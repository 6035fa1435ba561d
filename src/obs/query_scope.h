// Request-scoped observability: per-query metrics and cross-thread trace
// context.
//
// The paper's guarantees are *per-query* (polynomial delay per answer
// stream, Thms 4.1/4.3/5.11), but the registry in obs/metrics.h is
// process-global: two concurrent queries on a shared exec::ThreadPool
// smear their counters and delay histograms together. A QueryScope fixes
// the attribution:
//
//   * it owns a PER-QUERY Registry, layered over the global one — every
//     TMS_OBS_* mutation made while the scope is current on a thread is
//     applied to both, so process totals keep working while the scope
//     accumulates exactly this query's share;
//   * it carries a TRACE CONTEXT (query id + current span id) that
//     propagates across exec::ThreadPool tasks (the pool captures the
//     submitting thread's context per batch and every worker adopts it
//     while draining) and is captured by the enumeration engines at
//     construction, so spans opened on worker threads — parallel Lawler
//     child solves, batch fan-out — parent correctly under the query's
//     root span;
//   * on destruction it publishes a process-global summary
//     (`obs.query.duration_ns`, whose count is the number of queries) and
//     one wide per-query event into the flight recorder
//     (obs/flight_recorder.h).
//
// Threading contract: a QueryScope is created and destroyed on the same
// thread (it installs itself into that thread's trace state, stack-like —
// scopes on one thread nest and must unwind LIFO). Other threads join the
// scope through ScopeAdoption, normally via the pool or an engine, never
// by sharing the QueryScope object itself. The scope must outlive every
// engine constructed under it and every pool batch submitted under it.
//
// With -DTMS_OBS=OFF everything here compiles to nothing (same inline-
// namespace ODR discipline as the rest of obs/).

#ifndef TMS_OBS_QUERY_SCOPE_H_
#define TMS_OBS_QUERY_SCOPE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/config.h"
#include "obs/metrics.h"

namespace tms::obs {

#if TMS_OBS_ACTIVE

inline namespace active {

class QueryScope;

/// A capturable snapshot of a thread's trace state: which query it is
/// working for and which span its new spans should parent under. Copy it
/// at task-submission time, adopt it (ScopeAdoption) on the executing
/// thread. A default-constructed context means "no query" — adopting it
/// detaches the thread, which is the correct attribution for work that
/// belongs to no query.
struct TraceContext {
  QueryScope* scope = nullptr;  ///< non-owning; must outlive the adoption
  uint64_t query_id = 0;
  uint64_t parent_span_id = 0;
};

/// The current thread's context (scope + query id + current span).
TraceContext CurrentTraceContext();

/// The current thread's query id (0 when no scope is current). Cheap —
/// one thread-local read; exec::RunContext tags its streams with this.
uint64_t CurrentQueryId();

/// See the file comment.
class QueryScope {
 public:
  /// Opens the scope: allocates a fresh query id and root span id, and
  /// installs the scope on the calling thread (saving what was there).
  explicit QueryScope(std::string name);
  /// Restores the calling thread's previous state, publishes the global
  /// summary metrics and the wide per-query flight-recorder event.
  ~QueryScope();

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  /// The scope current on this thread, or null. The returned pointer is
  /// only valid while that scope is alive.
  static QueryScope* Current();

  // -- routed mutation (used by the TMS_OBS_* macros) ---------------------
  // Applies to the CURRENT thread's scope, if any; a thread with no scope
  // pays one thread-local load and a predictable branch.

  static void AddCount(std::string_view name, int64_t delta);
  static void SetGauge(std::string_view name, double value);
  static void RecordHistogram(std::string_view name, int64_t value);

  // -- introspection ------------------------------------------------------

  uint64_t query_id() const { return query_id_; }
  const std::string& name() const { return name_; }
  /// The id every top-level span of this query parents under. The root
  /// span itself (named "obs.query") is emitted when the scope closes.
  uint64_t root_span_id() const { return root_span_id_; }
  int64_t start_ns() const { return start_ns_; }

  /// This query's private registry. Thread-safe, like the global one.
  Registry& registry() { return registry_; }
  RegistrySnapshot Snapshot() const { return registry_.Snapshot(); }

 private:
  std::string name_;
  uint64_t query_id_;
  uint64_t root_span_id_;
  int64_t start_ns_;
  Registry registry_;
  // Saved thread state, restored by the destructor (LIFO nesting).
  QueryScope* prev_scope_;
  uint64_t prev_query_id_;
  uint64_t prev_span_id_;
};

/// RAII adoption of a captured TraceContext on the executing thread.
/// exec::ThreadPool wraps every batch drain in one; the enumeration
/// engines wrap Next() in one (with the context captured at engine
/// construction), so a stream driven from any thread — or interleaved
/// with streams of other queries on the same thread — still attributes
/// its metrics and spans to its own query.
class ScopeAdoption {
 public:
  explicit ScopeAdoption(const TraceContext& context);
  ~ScopeAdoption();

  ScopeAdoption(const ScopeAdoption&) = delete;
  ScopeAdoption& operator=(const ScopeAdoption&) = delete;

 private:
  QueryScope* prev_scope_;
  uint64_t prev_query_id_;
  uint64_t prev_span_id_;
};

namespace internal {

/// Span-side access to the thread trace state (obs/span.cc only).
bool ThreadHasScope();
uint64_t CurrentSpanId();
void SetCurrentSpanId(uint64_t id);
uint64_t NextSpanId();

}  // namespace internal

}  // inline namespace active

#else  // !TMS_OBS_ACTIVE

inline namespace noop {

class QueryScope;

struct TraceContext {
  QueryScope* scope = nullptr;
  uint64_t query_id = 0;
  uint64_t parent_span_id = 0;
};

inline TraceContext CurrentTraceContext() { return {}; }
inline uint64_t CurrentQueryId() { return 0; }

class QueryScope {
 public:
  explicit QueryScope(std::string) {}
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  static QueryScope* Current() { return nullptr; }

  static void AddCount(std::string_view, int64_t) {}
  static void SetGauge(std::string_view, double) {}
  static void RecordHistogram(std::string_view, int64_t) {}

  uint64_t query_id() const { return 0; }
  const std::string& name() const {
    static const std::string empty;
    return empty;
  }
  uint64_t root_span_id() const { return 0; }
  int64_t start_ns() const { return 0; }
  Registry& registry() { return Registry::Global(); }
  RegistrySnapshot Snapshot() const { return {}; }
};

class ScopeAdoption {
 public:
  explicit ScopeAdoption(const TraceContext&) {}
  ScopeAdoption(const ScopeAdoption&) = delete;
  ScopeAdoption& operator=(const ScopeAdoption&) = delete;
};

namespace internal {
inline bool ThreadHasScope() { return false; }
inline uint64_t CurrentSpanId() { return 0; }
inline void SetCurrentSpanId(uint64_t) {}
inline uint64_t NextSpanId() { return 0; }
}  // namespace internal

}  // inline namespace noop

#endif  // TMS_OBS_ACTIVE

}  // namespace tms::obs

#endif  // TMS_OBS_QUERY_SCOPE_H_
