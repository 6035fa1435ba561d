// Sinks for the metrics registry: machine-readable JSON and
// Prometheus-style text exposition.
//
// Both writers operate on RegistrySnapshot, so they work identically in
// instrumented and compiled-out builds (the latter just sees an empty
// snapshot).

#ifndef TMS_OBS_EXPORT_H_
#define TMS_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace tms::obs {

/// Appends `s` to `*out` with JSON string escaping (quotes, backslashes,
/// control characters). Does not add surrounding quotes.
void AppendJsonEscaped(std::string_view s, std::string* out);

/// Formats a double as a JSON number (finite values only; NaN/inf are
/// emitted as 0 to keep the document valid).
void AppendJsonNumber(double v, std::string* out);

/// Maps an in-process metric name to a valid Prometheus metric name:
/// `tms_` prefix, [a-zA-Z0-9_:] charset, every other byte (dots included)
/// becomes '_'. Digits are preserved wherever they appear — a name like
/// `kernels.f64.gemv` keeps its `64` — and the fixed prefix guarantees
/// the result never starts with a digit.
std::string PrometheusMetricName(std::string_view name);

/// Appends `v` as a Prometheus sample value: `NaN`, `+Inf`, `-Inf`, or a
/// full-precision decimal. (JSON has no spelling for these; Prometheus
/// text exposition requires them.)
void AppendPrometheusNumber(double v, std::string* out);

/// Escapes a label value per the text exposition format: backslash,
/// double quote, and newline become \\, \", \n. Does not add quotes.
std::string PrometheusLabelEscape(std::string_view value);

/// The snapshot as one JSON object:
///   {"counters": {"ranking.lawler.solver_calls": 5, ...},
///    "gauges": {...},
///    "histograms": {"query.topk.delay_ns":
///        {"count":..,"sum":..,"min":..,"max":..,"mean":..,
///         "p50":..,"p90":..,"p99":..,
///         "buckets":[{"le":..,"count":..}, ...]}, ...}}
std::string RegistryJson(const RegistrySnapshot& snapshot);

/// The snapshot in Prometheus text exposition format. Metric names are
/// prefixed with `tms_` and dots become underscores; histograms emit
/// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
std::string PrometheusText(const RegistrySnapshot& snapshot);

}  // namespace tms::obs

#endif  // TMS_OBS_EXPORT_H_
