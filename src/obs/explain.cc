#include "obs/explain.h"

#include <cstdio>

#include "obs/export.h"

namespace tms::obs {

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int64_t CounterOr0(const RegistrySnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

const HistogramSnapshot* FindHistogram(const RegistrySnapshot& s,
                                       const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? nullptr : &it->second;
}

/// The delay histogram the caller named, or an empty one.
HistogramSnapshot DelayOf(const ExplainInput& input) {
  const HistogramSnapshot* hist =
      FindHistogram(input.stats, input.delay_histogram);
  return hist != nullptr ? *hist : HistogramSnapshot{};
}

int64_t DenseKernelCalls(const RegistrySnapshot& s) {
  return CounterOr0(s, "kernels.gemv.calls") +
         CounterOr0(s, "kernels.gemm.calls");
}

int64_t SparseKernelCalls(const RegistrySnapshot& s) {
  return CounterOr0(s, "kernels.sparse.gemv.calls") +
         CounterOr0(s, "kernels.sparse.gemm.calls") +
         CounterOr0(s, "kernels.sparse.maskor.calls");
}

void AppendI64(int64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *out += buf;
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

void AppendKeyI64(const char* key, int64_t v, std::string* out) {
  *out += '"';
  *out += key;
  *out += "\":";
  AppendI64(v, out);
}

std::string Ms(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string Pct(int64_t part, int64_t whole) {
  if (whole <= 0) return "-";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.0f%%",
                100.0 * static_cast<double>(part) / static_cast<double>(whole));
  return buf;
}

}  // namespace

ExplainPhases DerivePhases(const ExplainInput& input) {
  ExplainPhases p;
  for (const auto& [name, hist] : input.stats.histograms) {
    if (name == "optimize.optimize_ns") {
      p.optimize_ns += hist.sum;
    } else if (EndsWith(name, ".compose_ns")) {
      p.compose_ns += hist.sum;
    } else if (EndsWith(name, ".solve_ns") || EndsWith(name, ".oracle_ns")) {
      p.solve_ns += hist.sum;
    } else if (EndsWith(name, ".merge_ns")) {
      p.merge_ns += hist.sum;
    } else if (EndsWith(name, ".confidence_ns")) {
      p.confidence_ns += hist.sum;
    }
  }
  const int64_t accounted = p.optimize_ns + p.compose_ns + p.solve_ns +
                            p.merge_ns + p.confidence_ns;
  p.other_ns =
      input.duration_ns > accounted ? input.duration_ns - accounted : 0;
  return p;
}

std::string ExplainJson(const ExplainInput& input) {
  const ExplainPhases phases = DerivePhases(input);
  const HistogramSnapshot delay = DelayOf(input);
  const HistogramSnapshot* composed =
      FindHistogram(input.stats, "query.emax_enum.composed_states");
  const HistogramSnapshot* product =
      FindHistogram(input.stats, "automata.product.states");

  std::string out = "{\"explain\":{\"query\":\"";
  AppendJsonEscaped(input.query, &out);
  out += "\",\"query_id\":";
  AppendU64(input.query_id, &out);
  out += ',';
  AppendKeyI64("duration_ns", input.duration_ns, &out);
  out += ',';
  AppendKeyI64("threads", input.threads, &out);
  out += ",\"backend\":\"";
  AppendJsonEscaped(input.backend, &out);
  out += "\",\"phases\":{";
  AppendKeyI64("optimize_ns", phases.optimize_ns, &out);
  out += ',';
  AppendKeyI64("compose_ns", phases.compose_ns, &out);
  out += ',';
  AppendKeyI64("solve_ns", phases.solve_ns, &out);
  out += ',';
  AppendKeyI64("merge_ns", phases.merge_ns, &out);
  out += ',';
  AppendKeyI64("confidence_ns", phases.confidence_ns, &out);
  out += ',';
  AppendKeyI64("other_ns", phases.other_ns, &out);
  out += "},\"delay\":{\"source\":\"";
  AppendJsonEscaped(input.delay_histogram, &out);
  out += "\",";
  AppendKeyI64("count", delay.count, &out);
  out += ",\"mean_ns\":";
  AppendJsonNumber(delay.Mean(), &out);
  out += ',';
  AppendKeyI64("p50_ns", delay.Quantile(0.50), &out);
  out += ',';
  AppendKeyI64("p90_ns", delay.Quantile(0.90), &out);
  out += ',';
  AppendKeyI64("p99_ns", delay.Quantile(0.99), &out);
  out += ',';
  AppendKeyI64("max_ns", delay.max, &out);
  out += "},\"kernels\":{";
  AppendKeyI64("dense_calls", DenseKernelCalls(input.stats), &out);
  out += ',';
  AppendKeyI64("sparse_calls", SparseKernelCalls(input.stats), &out);
  out += ',';
  AppendKeyI64("sparse_chosen", CounterOr0(input.stats, "kernels.sparse.chosen"),
               &out);
  out += ',';
  AppendKeyI64("sparse_fallback",
               CounterOr0(input.stats, "kernels.sparse.fallback"), &out);
  out += ',';
  AppendKeyI64("sparse_rejected",
               CounterOr0(input.stats, "kernels.sparse.rejected"), &out);
  out += "},\"automata\":{";
  AppendKeyI64("composed_states_max", composed ? composed->max : 0, &out);
  out += ",\"composed_states_mean\":";
  AppendJsonNumber(composed ? composed->Mean() : 0.0, &out);
  out += ',';
  AppendKeyI64("product_states_max", product ? product->max : 0, &out);
  out += ',';
  AppendKeyI64("optimize_states_pruned",
               CounterOr0(input.stats, "optimize.product_states_pruned"),
               &out);
  out += "},\"exec\":{\"stop_reason\":\"";
  AppendJsonEscaped(input.stop_reason, &out);
  out += "\",";
  AppendKeyI64("answers", input.answers, &out);
  out += ',';
  AppendKeyI64("work_charged", input.work_charged, &out);
  out += ',';
  AppendKeyI64("budget", input.budget, &out);
  out += ",\"budget_used_pct\":";
  AppendJsonNumber(input.budget > 0
                       ? 100.0 * static_cast<double>(input.work_charged) /
                             static_cast<double>(input.budget)
                       : 0.0,
                   &out);
  out += ",\"deadline_ms\":";
  AppendJsonNumber(input.deadline_ms, &out);
  out += "}}}";
  return out;
}

std::string ExplainText(const ExplainInput& input) {
  const ExplainPhases phases = DerivePhases(input);
  const HistogramSnapshot delay = DelayOf(input);
  const HistogramSnapshot* composed =
      FindHistogram(input.stats, "query.emax_enum.composed_states");
  const HistogramSnapshot* product =
      FindHistogram(input.stats, "automata.product.states");
  const int64_t accounted =
      phases.optimize_ns + phases.compose_ns + phases.solve_ns +
      phases.merge_ns + phases.confidence_ns + phases.other_ns;

  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "EXPLAIN query=%s id=%llu duration=%s threads=%d backend=%s\n",
                input.query.c_str(),
                static_cast<unsigned long long>(input.query_id),
                Ms(input.duration_ns).c_str(), input.threads,
                input.backend.c_str());
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "  phases:  optimize %s (%s) | compose %s (%s) | solve %s (%s) | "
      "merge %s (%s) | confidence %s (%s) | other %s (%s)\n",
      Ms(phases.optimize_ns).c_str(),
      Pct(phases.optimize_ns, accounted).c_str(),
      Ms(phases.compose_ns).c_str(), Pct(phases.compose_ns, accounted).c_str(),
      Ms(phases.solve_ns).c_str(), Pct(phases.solve_ns, accounted).c_str(),
      Ms(phases.merge_ns).c_str(), Pct(phases.merge_ns, accounted).c_str(),
      Ms(phases.confidence_ns).c_str(),
      Pct(phases.confidence_ns, accounted).c_str(),
      Ms(phases.other_ns).c_str(), Pct(phases.other_ns, accounted).c_str());
  out += buf;
  if (delay.count > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  delay:   n=%lld mean=%s p50=%s p90=%s p99=%s max=%s "
                  "(%s)\n",
                  static_cast<long long>(delay.count),
                  Ms(static_cast<int64_t>(delay.Mean())).c_str(),
                  Ms(delay.Quantile(0.50)).c_str(),
                  Ms(delay.Quantile(0.90)).c_str(),
                  Ms(delay.Quantile(0.99)).c_str(),
                  Ms(delay.max).c_str(), input.delay_histogram.c_str());
    out += buf;
  } else {
    out += "  delay:   no answers recorded\n";
  }
  std::snprintf(
      buf, sizeof(buf),
      "  kernels: dense=%lld sparse=%lld calls "
      "(chosen=%lld fallback=%lld rejected=%lld)\n",
      static_cast<long long>(DenseKernelCalls(input.stats)),
      static_cast<long long>(SparseKernelCalls(input.stats)),
      static_cast<long long>(CounterOr0(input.stats, "kernels.sparse.chosen")),
      static_cast<long long>(
          CounterOr0(input.stats, "kernels.sparse.fallback")),
      static_cast<long long>(
          CounterOr0(input.stats, "kernels.sparse.rejected")));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  automata: composed_states mean=%.1f max=%lld "
                "product_states max=%lld optimize_pruned=%lld\n",
                composed ? composed->Mean() : 0.0,
                static_cast<long long>(composed ? composed->max : 0),
                static_cast<long long>(product ? product->max : 0),
                static_cast<long long>(CounterOr0(
                    input.stats, "optimize.product_states_pruned")));
  out += buf;
  std::string budget = input.budget < 0
                           ? std::string("unlimited")
                           : std::to_string(input.budget) + " (" +
                                 Pct(input.work_charged, input.budget) +
                                 " used)";
  std::string deadline =
      input.deadline_ms < 0
          ? std::string("none")
          : std::to_string(input.deadline_ms) + "ms";
  std::snprintf(buf, sizeof(buf),
                "  exec:    stop=%s answers=%lld work=%lld budget=%s "
                "deadline=%s\n",
                input.stop_reason.c_str(),
                static_cast<long long>(input.answers),
                static_cast<long long>(input.work_charged), budget.c_str(),
                deadline.c_str());
  out += buf;
  return out;
}

}  // namespace tms::obs
