// Sparse-vs-dense kernel scaling on large alphabets.
//
// The paper's DP algorithms are polynomial in |Σ|, but the dense kernel
// layer pays the full σ² per step even when the transition matrices are a
// few percent nonzero — the regime real tag sets and HMM-derived models
// live in. This bench measures the E_max Viterbi forward (the Theorem 4.3
// hot path) at |Σ| ∈ {64, 256, 1024} × n ∈ {1024, 4096} with ~5%-dense
// homogeneous transition matrices, on each backend:
//
//   dense   — the kernels.h GemmTN layer step,
//   sparse  — the kernels/sparse.h SpGemm step over the CSR transpose,
//   auto    — the kernels::ChooseBackend policy (must pick sparse here).
//
// Answers (witness world, output, probability) must be bitwise identical
// across backends — the sparse layer skips only ⊕-identity entries in the
// dense reduction order. The headline figure is the sparse speedup at
// σ=1024 / n=4096, expected well above 5×: the sparse step does
// O(nnz·|Q|) work against the dense O(σ²·|Q|).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "kernels/backend.h"
#include "query/emax.h"
#include "workload/random_models.h"

namespace tms {
namespace {

struct Instance {
  markov::MarkovSequence mu;
  transducer::Transducer t;
};

// ~5% density: each row of the shared transition matrix has max(1, σ/20)
// nonzero entries. The transducer is small and deterministic — the bench
// isolates the μ-side kernels, not transducer composition.
Instance MakeInstance(int sigma, int n, uint64_t seed) {
  Rng rng(seed);
  const int support = std::max(1, sigma / 20);
  markov::MarkovSequence mu =
      workload::RandomHomogeneousMarkovSequence(sigma, n, support, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = 2;
  opts.deterministic = true;
  opts.max_emission = 1;
  opts.output_symbols = 2;
  opts.accept_prob = 1.0;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  return Instance{std::move(mu), std::move(t)};
}

// One timed TopAnswer on a fresh context of the given backend; the
// context build (log mapping + CSR copy) is inside the measurement — it
// is part of what a caller pays per model.
double TimedTopAnswerMs(const Instance& inst, kernels::BackendChoice backend,
                        std::optional<query::Evidence>* out) {
  Stopwatch watch;
  query::EmaxContext ctx(inst.mu, backend);
  *out = ctx.TopAnswer(inst.t);
  return watch.ElapsedSeconds() * 1e3;
}

bool SameEvidence(const std::optional<query::Evidence>& a,
                  const std::optional<query::Evidence>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->world == b->world && a->output == b->output && a->prob == b->prob;
}

// Returns whether every σ×n row gave identical answers on all backends.
bool PrintScalingTable() {
  bench::PrintHeader(
      "Sparse kernel scaling: E_max Viterbi forward on ~5%-dense models",
      "same instance solved on the dense, sparse, and auto backends; the "
      "answers must be bitwise identical, only the time may differ.");

  std::printf("%-7s %-7s %-12s %-12s %-12s %-9s %-10s %-6s\n", "sigma", "n",
              "dense (ms)", "sparse (ms)", "auto (ms)", "speedup", "auto",
              "same?");
  bool all_identical = true;
  for (int sigma : {64, 256, 1024}) {
    for (int n : {1024, 4096}) {
      Instance inst = MakeInstance(sigma, n, 97);
      std::optional<query::Evidence> dense_ev, sparse_ev, auto_ev;
      const double dense_ms =
          TimedTopAnswerMs(inst, kernels::BackendChoice::kDense, &dense_ev);
      const double sparse_ms =
          TimedTopAnswerMs(inst, kernels::BackendChoice::kSparse, &sparse_ev);
      const double auto_ms =
          TimedTopAnswerMs(inst, kernels::BackendChoice::kAuto, &auto_ev);
      query::EmaxContext probe(inst.mu, kernels::BackendChoice::kAuto);
      const char* auto_backend = kernels::BackendName(probe.backend());
      const bool same = SameEvidence(dense_ev, sparse_ev) &&
                        SameEvidence(dense_ev, auto_ev);
      const double speedup = sparse_ms > 0 ? dense_ms / sparse_ms : 0.0;
      std::printf("%-7d %-7d %-12.2f %-12.2f %-12.2f %-9.2f %-10s %s\n",
                  sigma, n, dense_ms, sparse_ms, auto_ms, speedup,
                  auto_backend, same ? "yes" : "NO");
      std::string prefix = "sigma=" + std::to_string(sigma) +
                           ".n=" + std::to_string(n) + ".";
      bench::Report::Global().AddMetric(prefix + "dense_ms", dense_ms);
      bench::Report::Global().AddMetric(prefix + "sparse_ms", sparse_ms);
      bench::Report::Global().AddMetric(prefix + "auto_ms", auto_ms);
      bench::Report::Global().AddMetric(prefix + "speedup", speedup);
      bench::Report::Global().AddMetric(prefix + "identical",
                                        same ? 1.0 : 0.0);
      all_identical = all_identical && same;
    }
  }
  return all_identical;
}

void BM_SparseForward(benchmark::State& state) {
  Instance inst =
      MakeInstance(static_cast<int>(state.range(0)), 256, 101);
  const auto backend = state.range(1) == 0 ? kernels::BackendChoice::kDense
                                           : kernels::BackendChoice::kSparse;
  query::EmaxContext ctx(inst.mu, backend);
  for (auto _ : state) {
    auto best = ctx.TopAnswer(inst.t);
    benchmark::DoNotOptimize(best);
  }
  state.counters["sigma"] = static_cast<double>(state.range(0));
  state.counters["sparse"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_SparseForward)
    ->Args({64, 0})->Args({64, 1})
    ->Args({256, 0})->Args({256, 1});

}  // namespace
}  // namespace tms

// A backend that changes an answer fails the binary, so a broken
// dense/sparse identity can never pass as a timing.
int main(int argc, char** argv) {
  tms::bench::Session session("sparse_scaling");
  const bool identical = tms::PrintScalingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return identical ? 0 : 1;
}
