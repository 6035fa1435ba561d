// Deterministic fault injection for robustness tests.
//
// The engines expose named FAULT POINTS (`TMS_FAULT_POINT("lawler.pre_solve")`)
// at the places where a production run can actually be hurt: just before a
// subspace solve, before a heap push, before an emptiness-oracle call,
// before a batch item. A test arms the global
// FaultInjector to fire at the Nth hit of a point:
//
//   * a DELAY (sleep) — widens race windows for the TSan suites,
//   * a CANCELLATION (flips a CancelToken) — the cancellation fuzz test
//     drives every enumerator through randomized cancellation points,
//   * a simulated RESOURCE FAILURE — Hit() returns true and the engine
//     takes its allocation-failure path (stop the run via
//     RunContext::InjectFault),
//   * an arbitrary CALLBACK.
//
// Zero-overhead switch, exactly like src/obs/config.h: the CMake option
// TMS_FAULTS (default ON) defines TMS_FAULTS_ENABLED; with it 0 the macro
// compiles to the constant `false` and not even the point-name literal
// survives. A TU may define TMS_FAULTS_FORCE_DISABLE before including
// this header to get the compiled-out surface in an instrumented build.
// Even when compiled in, an unarmed injector costs one relaxed atomic
// load per hit.
//
// Fault-point catalog: docs/ROBUSTNESS.md. Observability: counters
// `exec.fault.hits`, `.delays`, `.cancels`, `.failures`.

#ifndef TMS_EXEC_FAULT_H_
#define TMS_EXEC_FAULT_H_

#ifndef TMS_FAULTS_ENABLED
#define TMS_FAULTS_ENABLED 1
#endif

#if defined(TMS_FAULTS_FORCE_DISABLE)
#define TMS_FAULTS_ACTIVE 0
#else
#define TMS_FAULTS_ACTIVE TMS_FAULTS_ENABLED
#endif

#if TMS_FAULTS_ACTIVE

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "exec/run_context.h"

/// True iff an armed injector scheduled a simulated resource failure for
/// this hit; the engine then takes its failure path.
#define TMS_FAULT_POINT(name) (::tms::exec::FaultInjector::Global().Hit(name))

namespace tms::exec {

/// Process-global registry of scheduled faults. Thread-safe: Hit() may be
/// called concurrently from pool workers while a test thread cancels.
/// Disarmed (the default and the state after Reset) it is a single relaxed
/// load.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Every fault point passes through here. Returns true when a scheduled
  /// failure fires at this hit.
  bool Hit(const char* point) {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return HitSlow(point);
  }

  // -- test-side scheduling (each call arms the injector) ----------------
  // `nth_hit` is 1-based; 0 means "every hit".

  void ScheduleDelay(const std::string& point, int64_t nth_hit,
                     std::chrono::nanoseconds delay);
  void ScheduleCancel(const std::string& point, int64_t nth_hit,
                      CancelToken token);
  void ScheduleFailure(const std::string& point, int64_t nth_hit);
  void ScheduleCallback(const std::string& point, int64_t nth_hit,
                        std::function<void(int64_t)> fn);

  /// Schedules faults from a spec string — `point:kind:nth` clauses
  /// separated by ';', with kind one of
  ///   * `fail`       — a simulated resource failure (ScheduleFailure),
  ///   * `exit`       — std::_Exit(17) at the hit: the process dies like
  ///                    a crashed worker, atexit/flush skipped, so an
  ///                    in-flight chunked stream is cut mid-answer
  ///                    (tools/dist_smoke.sh kills a shard this way),
  ///   * `delay<ms>ms`— sleep, e.g. `delay50ms`.
  /// `nth` is the 1-based hit number (0 = every hit). Example:
  ///   "dist.mid_stream:exit:2;batch.pre_sequence:fail:1"
  Status ArmFromSpec(std::string_view spec);

  /// ArmFromSpec(getenv("TMS_FAULT_INJECT")) — a no-op when the variable
  /// is unset or empty; a bad spec is reported on stderr and otherwise
  /// ignored. Long-lived processes (tms_server) call this at startup so
  /// end-to-end fault drills need no test hook.
  void ArmFromEnv();

  /// Arms hit counting without scheduling anything — used to discover
  /// which points a workload passes (the fault-point catalog test).
  void Arm();

  /// Disarms and forgets every schedule and counter.
  void Reset();

  /// Hits observed at `point` since the last Reset (0 when never hit or
  /// the injector was disarmed).
  int64_t HitCount(const std::string& point) const;

  /// Every point name observed since the last Reset, sorted.
  std::vector<std::string> SeenPoints() const;

 private:
  struct Action {
    enum class Kind { kDelay, kCancel, kFail, kCallback };
    Kind kind;
    int64_t nth_hit = 0;
    std::chrono::nanoseconds delay{0};
    CancelToken token;
    std::function<void(int64_t)> fn;
  };
  struct Point {
    int64_t hits = 0;
    std::vector<Action> actions;
  };

  FaultInjector() = default;
  bool HitSlow(const char* point);
  void AddAction(const std::string& point, Action action);

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::map<std::string, Point> points_;
};

}  // namespace tms::exec

#else  // !TMS_FAULTS_ACTIVE

#define TMS_FAULT_POINT(name) (false)

#endif  // TMS_FAULTS_ACTIVE

#endif  // TMS_EXEC_FAULT_H_
