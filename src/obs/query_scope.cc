#include "obs/query_scope.h"

#if TMS_OBS_ACTIVE

#include <atomic>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace tms::obs {
inline namespace active {
namespace {

// Per-thread trace state. One POD thread_local keeps the hot-path cost of
// "is a scope current?" to a single load.
struct ThreadTraceState {
  QueryScope* scope = nullptr;
  uint64_t query_id = 0;
  uint64_t current_span = 0;
};

thread_local ThreadTraceState t_trace;

uint64_t NextQueryId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceContext CurrentTraceContext() {
  return {t_trace.scope, t_trace.query_id, t_trace.current_span};
}

uint64_t CurrentQueryId() { return t_trace.query_id; }

QueryScope::QueryScope(std::string name)
    : name_(std::move(name)),
      query_id_(NextQueryId()),
      root_span_id_(internal::NextSpanId()),
      start_ns_(MonotonicNanos()),
      prev_scope_(t_trace.scope),
      prev_query_id_(t_trace.query_id),
      prev_span_id_(t_trace.current_span) {
  t_trace.scope = this;
  t_trace.query_id = query_id_;
  t_trace.current_span = root_span_id_;
}

QueryScope::~QueryScope() {
  t_trace.scope = prev_scope_;
  t_trace.query_id = prev_query_id_;
  t_trace.current_span = prev_span_id_;

  const int64_t duration_ns = MonotonicNanos() - start_ns_;

  // Process-global summary, so long-lived servers can watch query volume
  // and latency without retaining per-query registries.
  Registry::Global().histogram("obs.query.duration_ns").Record(duration_ns);

  // Root span: parents every top-level span of this query in the trace,
  // and anchors the query in the flight-recorder ring.
  TraceEvent root;
  root.name = "obs.query";
  root.span_id = root_span_id_;
  root.parent_id = 0;
  root.query_id = query_id_;
  root.start_ns = start_ns_;
  root.duration_ns = duration_ns;
  if (TracingEnabled()) Tracer::Global().Record(root);
  FlightRecorder::Global().Record(root);

  // Wide per-query event: identity + final counter totals.
  QueryEndEvent wide;
  wide.query_id = query_id_;
  wide.name = name_;
  wide.start_ns = start_ns_;
  wide.duration_ns = duration_ns;
  RegistrySnapshot snap = registry_.Snapshot();
  wide.counters.reserve(snap.counters.size());
  for (const auto& [counter_name, value] : snap.counters) {
    wide.counters.emplace_back(counter_name, value);
  }
  FlightRecorder::Global().RecordQueryEnd(std::move(wide));
}

QueryScope* QueryScope::Current() { return t_trace.scope; }

void QueryScope::AddCount(std::string_view name, int64_t delta) {
  if (QueryScope* s = t_trace.scope) s->registry_.counter(name).Add(delta);
}

void QueryScope::SetGauge(std::string_view name, double value) {
  if (QueryScope* s = t_trace.scope) s->registry_.gauge(name).Set(value);
}

void QueryScope::RecordHistogram(std::string_view name, int64_t value) {
  if (QueryScope* s = t_trace.scope) {
    s->registry_.histogram(name).Record(value);
  }
}

ScopeAdoption::ScopeAdoption(const TraceContext& context)
    : prev_scope_(t_trace.scope),
      prev_query_id_(t_trace.query_id),
      prev_span_id_(t_trace.current_span) {
  t_trace.scope = context.scope;
  t_trace.query_id = context.query_id;
  t_trace.current_span = context.parent_span_id;
}

ScopeAdoption::~ScopeAdoption() {
  t_trace.scope = prev_scope_;
  t_trace.query_id = prev_query_id_;
  t_trace.current_span = prev_span_id_;
}

namespace internal {

bool ThreadHasScope() { return t_trace.scope != nullptr; }

uint64_t CurrentSpanId() { return t_trace.current_span; }

void SetCurrentSpanId(uint64_t id) { t_trace.current_span = id; }

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

}  // inline namespace active
}  // namespace tms::obs

#endif  // TMS_OBS_ACTIVE
