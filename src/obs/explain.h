// EXPLAIN-ANALYZE-style per-query cost report.
//
// An ExplainInput is assembled from a finished (or finishing) query: its
// QueryScope's registry snapshot, the name of the delay histogram of the
// answer mode it ran, and the exec outcome the caller already holds (stop
// reason, budget/deadline consumption). ExplainJson /
// ExplainText render it; both emit EVERY field with zero defaults so the
// JSON key set is workload-independent (tools/check_stats_schema.sh
// golden-checks it).
//
// The phase breakdown is derived from the *_ns histograms the engines and
// the answer pipeline record (optimize.optimize_ns, then compose_ns /
// solve_ns / oracle_ns / merge_ns / confidence_ns);
// whatever wall time they do not account for is reported as `other_ns`
// (answer emission, heap bookkeeping, instrumentation). Phase sums are
// CPU-time-like: with a thread pool they can exceed the wall duration.
//
// Everything here operates on plain snapshot data, so it behaves
// identically in instrumented and compiled-out builds (the latter just
// reports zeros).

#ifndef TMS_OBS_EXPLAIN_H_
#define TMS_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace tms::obs {

/// Everything the report needs. `stats` is normally the per-query
/// registry snapshot (QueryScope::Snapshot()); passing a global snapshot
/// degrades gracefully to a process-wide report.
struct ExplainInput {
  std::string query;      ///< command / engine name (e.g. "topk")
  uint64_t query_id = 0;  ///< QueryScope id (0 = no scope)
  int64_t duration_ns = 0;
  int threads = 1;
  std::string backend = "auto";  ///< requested kernel backend
  RegistrySnapshot stats;
  /// The `*.delay_ns` histogram of `stats` the delay section reports: the
  /// answer pipeline's `query.<mode>.delay_ns` (query/answers.h) for the
  /// mode the caller ran. Empty = no answer stream (all-zero delay).
  std::string delay_histogram;

  // Exec outcome (exec::RunContext); negative = not configured.
  std::string stop_reason = "none";
  int64_t answers = 0;
  int64_t work_charged = 0;
  int64_t budget = -1;
  double deadline_ms = -1;
};

/// The derived phase breakdown, exposed for tests.
struct ExplainPhases {
  int64_t optimize_ns = 0;    ///< optimize.optimize_ns (offline passes)
  int64_t compose_ns = 0;     ///< *.compose_ns
  int64_t solve_ns = 0;       ///< *.solve_ns + *.oracle_ns
  int64_t merge_ns = 0;       ///< *.merge_ns
  int64_t confidence_ns = 0;  ///< *.confidence_ns
  int64_t other_ns = 0;       ///< duration - accounted, clamped at 0
};
ExplainPhases DerivePhases(const ExplainInput& input);

/// One JSON object: {"explain":{"query":...,"phases":{...},"delay":{...},
/// "kernels":{...},"automata":{...},"exec":{...}}}.
std::string ExplainJson(const ExplainInput& input);

/// Human-readable multi-line report (tms_cli explain default output).
std::string ExplainText(const ExplainInput& input);

}  // namespace tms::obs

#endif  // TMS_OBS_EXPLAIN_H_
