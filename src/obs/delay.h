// Per-answer delay recorder for answer streams.
//
// The paper's headline guarantees are polynomial *delay* bounds between
// consecutive enumerated answers (Theorems 4.1, 4.3, 5.11). A
// DelayRecorder turns that claim into a measured distribution: its owner
// laps it on every emitted answer, and the inter-answer delays accumulate
// into a registry histogram named `<name>.delay_ns` (max / p50 / p99
// readable from its snapshot, see docs/OBSERVABILITY.md). The answer
// pipeline (query/answers.h) owns the one per stream; the server owns a
// second for the wire, and the benches lap their own around bare engines.

#ifndef TMS_OBS_DELAY_H_
#define TMS_OBS_DELAY_H_

#include <string>
#include <string_view>

#include "common/stopwatch.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/query_scope.h"

namespace tms::obs {

#if TMS_OBS_ACTIVE

inline namespace active {

class DelayRecorder {
 public:
  /// Registers (or reuses) the histogram `<name>.delay_ns`. The first
  /// recorded delay is measured from construction (or the last Restart()).
  explicit DelayRecorder(std::string_view name)
      : name_(std::string(name) + ".delay_ns"),
        histogram_(&Registry::Global().histogram(name_)) {}

  /// Re-arms the interval origin without recording (e.g. when work between
  /// answers should not count toward the next delay).
  void Restart() { watch_.Restart(); }

  /// Records the delay since the previous answer (or construction) and
  /// returns it in nanoseconds. Also routed to the current thread's
  /// QueryScope, so per-query delay distributions stay separable when
  /// several streams share the process.
  int64_t RecordAnswer() {
    int64_t ns = watch_.Lap();
    histogram_->Record(ns);
    QueryScope::RecordHistogram(name_, ns);
    return ns;
  }

  /// Distribution of every delay recorded under this name process-wide.
  HistogramSnapshot Snapshot() const { return histogram_->Snapshot(); }

 private:
  std::string name_;
  Stopwatch watch_;
  Histogram* histogram_;
};

}  // inline namespace active

#else  // !TMS_OBS_ACTIVE

inline namespace noop {

class DelayRecorder {
 public:
  explicit DelayRecorder(std::string_view) {}
  void Restart() {}
  int64_t RecordAnswer() { return 0; }
  HistogramSnapshot Snapshot() const { return {}; }
};

}  // inline namespace noop

#endif  // TMS_OBS_ACTIVE

}  // namespace tms::obs

#endif  // TMS_OBS_DELAY_H_
