// Umbrella header and instrumentation macros for tms observability.
//
// Instrumented code uses the TMS_OBS_* macros below rather than touching
// the registry directly: each macro resolves its metric once (function-
// local static reference) and compiles to nothing when the build is
// configured with -DTMS_OBS=OFF (TMS_OBS_ENABLED=0), so disabled builds
// carry zero overhead — not even the string literal survives.
//
// Naming scheme: `<module>.<name>` (e.g. `ranking.lawler.solver_calls`);
// see docs/OBSERVABILITY.md for the full catalogue.

#ifndef TMS_OBS_OBS_H_
#define TMS_OBS_OBS_H_

#include "obs/config.h"
#include "obs/delay.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_scope.h"
#include "obs/span.h"

#define TMS_OBS_CONCAT_INNER_(a, b) a##b
#define TMS_OBS_CONCAT_(a, b) TMS_OBS_CONCAT_INNER_(a, b)

#if TMS_OBS_ACTIVE

// Every mutation is applied twice: to the process-global metric (resolved
// once, cached in a function-local static) and — when a QueryScope is
// current on the thread — to that query's private registry, so per-query
// attribution composes with the existing process totals. A thread with no
// scope pays one thread-local load and a not-taken branch for the second
// leg. The value operand is evaluated once, so both legs record the same
// sample even when it has side effects (e.g. `Stopwatch::Lap()`).

/// Adds `delta` to the counter `name` (a string literal).
#define TMS_OBS_COUNT(name, delta)                                     \
  do {                                                                 \
    static ::tms::obs::Counter& TMS_OBS_CONCAT_(tms_obs_counter_,      \
                                                __LINE__) =            \
        ::tms::obs::Registry::Global().counter(name);                  \
    const int64_t tms_obs_delta_ = static_cast<int64_t>(delta);        \
    TMS_OBS_CONCAT_(tms_obs_counter_, __LINE__).Add(tms_obs_delta_);   \
    ::tms::obs::QueryScope::AddCount(name, tms_obs_delta_);            \
  } while (0)

/// Sets the gauge `name` to `value`.
#define TMS_OBS_GAUGE_SET(name, value)                                 \
  do {                                                                 \
    static ::tms::obs::Gauge& TMS_OBS_CONCAT_(tms_obs_gauge_,          \
                                              __LINE__) =              \
        ::tms::obs::Registry::Global().gauge(name);                    \
    const double tms_obs_value_ = static_cast<double>(value);          \
    TMS_OBS_CONCAT_(tms_obs_gauge_, __LINE__).Set(tms_obs_value_);     \
    ::tms::obs::QueryScope::SetGauge(name, tms_obs_value_);            \
  } while (0)

/// Records `value` into the histogram `name`.
#define TMS_OBS_HISTOGRAM(name, value)                                 \
  do {                                                                 \
    static ::tms::obs::Histogram& TMS_OBS_CONCAT_(tms_obs_hist_,       \
                                                  __LINE__) =          \
        ::tms::obs::Registry::Global().histogram(name);                \
    const int64_t tms_obs_value_ = static_cast<int64_t>(value);        \
    TMS_OBS_CONCAT_(tms_obs_hist_, __LINE__).Record(tms_obs_value_);   \
    ::tms::obs::QueryScope::RecordHistogram(name, tms_obs_value_);     \
  } while (0)

/// Opens an RAII trace span covering the rest of the enclosing scope.
#define TMS_OBS_SPAN(name) \
  ::tms::obs::Span TMS_OBS_CONCAT_(tms_obs_span_, __LINE__)(name)

#else  // !TMS_OBS_ACTIVE

// The macros expand to nothing at all — they do not even reference
// their operands, so a variable that exists only to feed a metric needs
// its own #if TMS_OBS_ACTIVE guard (or a (void) cast) to stay
// -Werror-clean in disabled builds.
#define TMS_OBS_COUNT(name, delta) ((void)0)
#define TMS_OBS_GAUGE_SET(name, value) ((void)0)
#define TMS_OBS_HISTOGRAM(name, value) ((void)0)
#define TMS_OBS_SPAN(name) ((void)0)

#endif  // TMS_OBS_ACTIVE

#endif  // TMS_OBS_OBS_H_
