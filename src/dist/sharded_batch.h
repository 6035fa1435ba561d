// In-process sharded batch evaluation (docs/DISTRIBUTED.md).
//
// The single-process reference and the sharded path live side by side so
// the differential suite can pin them against each other:
//
//   * RankedReferenceRows() turns db::BatchEvaluator::EvaluateAll output
//     (key order) into the *globally ranked* stream — the order every
//     sharded merge must reproduce byte for byte;
//   * EvaluateSharded() partitions the collection with shard_plan.h,
//     evaluates each shard with its own BatchEvaluator, one shard after
//     another, and k-way-merges the per-shard ranked streams with
//     MergeStream.
//
// Fault points (exec/fault.h): `dist.pre_shard` fails a whole shard
// before it evaluates; `dist.mid_stream` (in VectorShardSource) kills a
// shard's stream between two entries. Either way the merged output keeps
// the survivors' answers in correct global order and the coverage vector
// says exactly what was lost.

#ifndef TMS_DIST_SHARDED_BATCH_H_
#define TMS_DIST_SHARDED_BATCH_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "dist/merge_stream.h"
#include "transducer/transducer.h"

namespace tms::dist {

/// One globally ranked row: a (sequence, answer) pair.
struct RankedRow {
  std::string key;
  query::AnswerInfo answer;
};

/// Flattens per-sequence batch results (key order, per-sequence rank
/// order) into the globally ranked order:
///     (E_max desc, key asc, per-sequence rank asc).
/// This is the single-process reference stream of the shard-equivalence
/// contract. Failed sequences contribute no rows (their isolation is
/// per-sequence — see BatchEvaluator::EvaluateAll).
std::vector<RankedRow> RankedReferenceRows(
    const std::vector<db::BatchEvaluator::SequenceResult>& results);

struct ShardedBatchOptions {
  int shards = 1;
  /// Every shard's BatchEvaluator options. `batch.run` bounds the whole
  /// sharded batch (shared deadline / budget / cancel, per-sequence
  /// answer cap).
  db::BatchEvaluator::Options batch;
};

struct ShardedBatchResult {
  std::vector<RankedRow> rows;          // globally ranked
  std::vector<ShardCoverage> coverage;  // one entry per shard
  /// True iff every shard delivered its full stream (no failure, no
  /// truncation) — when true, `rows` equals the single-process reference.
  bool complete() const;
};

/// Evaluates `t` against every sequence of `collection`, split across
/// `options.shards` shards, and merges the per-shard ranked streams.
/// With no faults and no limits the row stream is byte-identical to
/// RankedReferenceRows() of a single-process EvaluateAll at any shard
/// count, thread count, and backend.
StatusOr<ShardedBatchResult> EvaluateSharded(
    const db::SequenceCollection& collection, const transducer::Transducer& t,
    int k, const ShardedBatchOptions& options);

}  // namespace tms::dist

#endif  // TMS_DIST_SHARDED_BATCH_H_
