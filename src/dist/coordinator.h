// The scatter/gather coordinator (docs/DISTRIBUTED.md): one query goes
// out to every worker's `POST /batch` endpoint, the per-shard ranked
// NDJSON streams come back, and a MergeStream folds them into a single
// globally ranked stream.
//
// The coordinator never re-serializes an answer: merged rows are the
// workers' verbatim line bytes (serve::AppendBatchRowJson), and the
// trailing footer carries the per-shard coverage. A worker that cannot be
// reached, dies mid-stream, or reports truncation degrades coverage — it
// never fails the batch.

#ifndef TMS_DIST_COORDINATOR_H_
#define TMS_DIST_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/client.h"
#include "dist/merge_stream.h"

namespace tms::dist {

struct CoordinatorOptions {
  /// Raw query-string forwarded to every worker ("k=3&deadline_ms=100");
  /// may be empty.
  std::string params;
  HttpStream::Options client;
};

/// Outcome of one scattered batch.
struct DistOutcome {
  std::vector<ShardCoverage> coverage;  // one per worker, in worker order
  int64_t answers = 0;                  // merged rows emitted
  /// True iff every worker delivered its complete stream.
  bool complete() const;
};

/// Scatters `query_body` to `workers` (worker i is shard i), merges the
/// ranked streams, and calls `emit` once per merged row with the worker's
/// verbatim NDJSON line (no trailing '\n'). If `emit` returns false the
/// merge stops early (client went away); coverage then reflects what was
/// merged so far.
DistOutcome ScatterGather(const std::vector<WorkerAddress>& workers,
                          const std::string& query_body,
                          const CoordinatorOptions& options,
                          const std::function<bool(const std::string&)>& emit);

}  // namespace tms::dist

#endif  // TMS_DIST_COORDINATOR_H_
