// Ranked k-way merge of per-shard answer streams (docs/DISTRIBUTED.md).
//
// Every per-shard stream obeys the paper's enumeration invariant: scores
// are nonincreasing. That is what makes a *bounded-lookahead* merge
// rank-preserving — the coordinator holds exactly one head entry per
// live stream in a heap, and the popped sequence is globally sorted
// under the total order
//
//     (score desc, key asc, per-source arrival order)
//
// which is byte-identical to the single-process BatchEvaluator ranking
// (keys are unique per shard and range sharding keeps them contiguous,
// so no cross-shard tie ever needs a shard id — see shard_plan.h).
//
// Failure semantics reuse the truncation contract (docs/ROBUSTNESS.md):
// a source that dies mid-stream (worker killed, connection dropped,
// injected fault) contributes the clean prefix it already produced; the
// merge keeps going with the survivors and reports per-shard coverage
// instead of aborting. A source that *violates* the nonincreasing-score
// invariant (a lying or corrupted worker) is closed at the first
// out-of-order entry — its prefix up to that point is still clean.

#ifndef TMS_DIST_MERGE_STREAM_H_
#define TMS_DIST_MERGE_STREAM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/run_context.h"
#include "query/evaluator.h"

namespace tms::dist {

/// One ranked answer from one shard. `answer` carries the in-process
/// payload; remote sources additionally keep the worker's verbatim NDJSON
/// row in `line` so the coordinator can forward bytes untouched.
struct MergeEntry {
  std::string key;           // sequence key (unique across shards)
  double score = 0.0;        // the ranking score (E_max)
  query::AnswerInfo answer;  // in-process payload
  std::string line;          // remote payload: one NDJSON row, no '\n'
};

/// Per-shard outcome of a merged batch.
struct ShardCoverage {
  int shard_id = 0;
  int64_t sequences = 0;         // sequences this shard evaluated
  int64_t failed_sequences = 0;  // of those, ones with a non-OK Status
  int64_t answers = 0;           // entries that made it into the merge
  bool failed = false;     // stream died; its entries are a clean prefix
  bool truncated = false;  // shard self-reported truncation (RunContext)
  exec::StopReason reason = exec::StopReason::kNone;
  Status status;           // failure detail when failed
};

/// Serializes coverage as one JSON array — the "shards" member of the
/// merged stream's footer that `tms_cli dist` prints:
///   [{"shard":0,"sequences":2,"failed_sequences":0,"answers":5,
///     "complete":true,"truncated":false,"reason":"NONE"[,"error":"…"]},…]
/// `complete` is `!failed && !truncated` — true iff this shard's answers
/// are its full ranked stream rather than a clean prefix.
std::string CoverageJson(const std::vector<ShardCoverage>& coverage);

/// A ranked entry stream from one shard. Implementations: the in-process
/// VectorShardSource below, and dist::RemoteShardSource (client.h).
class ShardSource {
 public:
  virtual ~ShardSource() = default;

  /// The next entry, or nullopt when the stream is over — cleanly or not;
  /// Coverage() tells which.
  virtual std::optional<MergeEntry> Next() = 0;

  /// The shard's outcome. Complete once Next() has returned nullopt;
  /// before that it reflects the stream so far.
  virtual ShardCoverage Coverage() const = 0;
};

/// An in-memory source over pre-ranked entries — the in-process sharded
/// path and the merge property tests. Honors the `dist.mid_stream` fault
/// point: an injected fault ends the stream early with failed coverage,
/// exactly like a worker killed mid-stream.
class VectorShardSource : public ShardSource {
 public:
  VectorShardSource(std::vector<MergeEntry> entries, ShardCoverage coverage)
      : entries_(std::move(entries)), coverage_(std::move(coverage)) {}

  std::optional<MergeEntry> Next() override;
  ShardCoverage Coverage() const override { return coverage_; }

 private:
  std::vector<MergeEntry> entries_;
  size_t next_ = 0;
  ShardCoverage coverage_;
};

/// The bounded-lookahead heap merge. Pull entries with Next() until
/// nullopt, then read the per-shard outcome from Coverage().
class MergeStream {
 public:
  explicit MergeStream(std::vector<std::unique_ptr<ShardSource>> sources);

  /// The globally best remaining entry, or nullopt when every stream is
  /// drained (or closed by failure).
  std::optional<MergeEntry> Next();

  /// Per-shard coverage, indexed by source order. Final once Next() has
  /// returned nullopt.
  std::vector<ShardCoverage> Coverage() const;

  /// Total entries merged so far.
  int64_t answers() const { return answers_; }

  /// A heap element: one stream's current head (public for the order
  /// functor in merge_stream.cc).
  struct Head {
    MergeEntry entry;
    size_t source;
  };

 private:
  struct PerSource {
    bool done = false;
    bool has_prev = false;
    double prev_score = 0.0;
    std::string prev_key;
    int64_t answers = 0;
    // Set when the merge itself closes the stream (order violation).
    std::optional<Status> forced_failure;
  };

  /// Fetches the next head from source `i`, enforcing the nonincreasing
  /// invariant; on violation closes the stream with a clean prefix.
  void Pull(size_t i);
  void PushHead(Head head);
  void Finish();

  std::vector<std::unique_ptr<ShardSource>> sources_;
  std::vector<PerSource> state_;
  std::vector<Head> heap_;
  int64_t answers_ = 0;
  int64_t start_ns_ = 0;
  bool finished_ = false;
};

}  // namespace tms::dist

#endif  // TMS_DIST_MERGE_STREAM_H_
