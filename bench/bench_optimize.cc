// The query-automaton prune (docs/OPTIMIZE.md). Two
// experiments:
//
//   OPT1  the query prune itself: unreachable and dead states and arcs
//         removed (states/edges before and after, pass wall time) on
//         random nondeterministic transducers.
//   OPT2  the E12 E_max workload end to end: the engine, which prunes the
//         query once and solves each subspace on the live pairs of its
//         product with the constraint (never building the product),
//         against a bench-local UNPRUNED reference (Lawler over a fresh
//         direct composition per subspace solve). The composed-product
//         state count must DROP while the emitted answer stream stays
//         byte-identical. compose_ns_on is the engine's live-product
//         build, compose_ns_off the reference's ComposeWithOutputConstraint.
//
// BENCH_optimize.json is the machine-readable baseline
// (bench/baselines/); a zero "identical" metric fails the binary, so a
// stream diff can never be checked in as a baseline.

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "obs/query_scope.h"
#include "optimize/transducer_opt.h"
#include "query/emax.h"
#include "query/emax_enum.h"
#include "ranking/answer_stream.h"
#include "ranking/lawler.h"
#include "transducer/compose.h"
#include "workload/random_models.h"

namespace tms {
namespace {

struct Instance {
  markov::MarkovSequence mu;
  transducer::Transducer t;
};

// The E12 instance family of bench_enumeration_delay.cc: dense 3-node
// Markov sequences and a small deterministic transducer, the workload the
// acceptance bar for the optimization pass is stated against.
Instance MakeInstance(int n, uint64_t seed) {
  Rng rng(seed);
  markov::MarkovSequence mu = workload::RandomMarkovSequence(3, n, 2, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = 3;
  opts.deterministic = true;
  opts.max_emission = 1;
  opts.output_symbols = 2;
  opts.accept_prob = 1.0;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  return Instance{std::move(mu), std::move(t)};
}

int64_t CounterOr0(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

int64_t HistSumOr0(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.sum;
}

// OPT1 — the query prune in isolation. Nondeterministic random
// transducers with a sub-1 accept probability carry unreachable and dead
// states, so the prune has real work to do.
void PrintPrunePass() {
  bench::PrintHeader(
      "OPT1: query prune reductions (unreachable and dead states)",
      "the linear prune removes states unreachable from the initial state "
      "or unable to reach an accepting one, and their arcs; states_after "
      "<= states_before always.");

  std::printf("%-8s %-8s %-10s %-10s %-10s %-10s\n", "states", "trial",
              "st_before", "st_prune", "edges_out", "pass_ms");
  for (int num_states : {8, 16, 32}) {
    for (int trial = 0; trial < 3; ++trial) {
      Rng rng(1000 + static_cast<uint64_t>(100 * num_states + trial));
      markov::MarkovSequence mu = workload::RandomMarkovSequence(3, 12, 2, rng);
      workload::RandomTransducerOptions opts;
      opts.num_states = num_states;
      opts.deterministic = false;
      opts.density = 0.5;
      opts.max_emission = 1;
      opts.output_symbols = 2;
      opts.accept_prob = 0.3;
      transducer::Transducer t =
          workload::RandomTransducer(mu.nodes(), opts, rng);

      optimize::OptimizeStats stats;
      Stopwatch sw;
      optimize::PruneTransducer(t, &stats);
      double pass_ms = sw.ElapsedSeconds() * 1e3;

      std::printf("%-8d %-8d %-10d %-10d %-10d %-10.3f\n", num_states, trial,
                  stats.states_before, stats.states_after, stats.edges_after,
                  pass_ms);
      std::string prefix = "states=" + std::to_string(num_states) +
                           ".trial=" + std::to_string(trial) + ".";
      bench::Report::Global().AddMetric(prefix + "states_before",
                                        stats.states_before);
      bench::Report::Global().AddMetric(prefix + "states_after_prune",
                                        stats.states_after);
      bench::Report::Global().AddMetric(prefix + "edges_before",
                                        stats.edges_before);
      bench::Report::Global().AddMetric(prefix + "edges_after",
                                        stats.edges_after);
      bench::Report::Global().AddMetric(prefix + "pass_ms", pass_ms);
    }
  }
}

struct E12Run {
  std::vector<ranking::ScoredAnswer> answers;
  double wall_ms = 0.0;
  int64_t composed_states = 0;  ///< sum over all subspace composes
  int64_t compose_ns = 0;       ///< product build (live pairs for the engine)
  int64_t optimize_ns = 0;      ///< query-prune time (engine only)
  int64_t states_pruned = 0;    ///< optimize.product_states_pruned
};

// Drains up to k answers, timing the drain (the stream's constructor has
// already run the first subspace solve).
void DrainTimed(ranking::AnswerStream& it, int k, E12Run* run) {
  Stopwatch wall;
  while (static_cast<int>(run->answers.size()) < k) {
    auto answer = it.Next();
    if (!answer.has_value()) break;
    run->answers.push_back(std::move(*answer));
  }
  run->wall_ms = wall.ElapsedSeconds() * 1e3;
}

// One measured engine repetition: a fresh enumerator, so every
// repetition redoes the query prune and every live-product build.
E12Run RunEngineOnce(const Instance& inst, int n, int k) {
  E12Run run;
  obs::QueryScope scope("bench_optimize.engine.n=" + std::to_string(n));
  query::EmaxEnumerator it(inst.mu, inst.t);
  DrainTimed(it, k, &run);
  obs::RegistrySnapshot snap = scope.Snapshot();
  run.composed_states = HistSumOr0(snap, "query.emax_enum.composed_states");
  run.compose_ns = HistSumOr0(snap, "query.emax_enum.compose_ns");
  run.optimize_ns = HistSumOr0(snap, "optimize.optimize_ns");
  run.states_pruned = CounterOr0(snap, "optimize.product_states_pruned");
  return run;
}

// One measured reference repetition: Lawler whose solver composes the
// query as given with each constraint (no prune) and runs the
// dense Viterbi on the full product, summing the product sizes and the
// composition time itself.
E12Run RunReferenceOnce(const Instance& inst, int k) {
  E12Run run;
  const query::EmaxContext ctx(inst.mu, kernels::BackendChoice::kDense);
  ranking::LawlerEnumerator lawler(
      [&](const ranking::OutputConstraint& c)
          -> std::optional<ranking::ScoredAnswer> {
        Stopwatch sw;
        const transducer::Transducer composed =
            transducer::ComposeWithOutputConstraint(inst.t, c);
        run.compose_ns += sw.ElapsedNanos();
        run.composed_states += composed.num_states();
        auto best = ctx.TopAnswer(composed);
        if (!best.has_value()) return std::nullopt;
        return ranking::ScoredAnswer{std::move(best->output), best->prob};
      });
  DrainTimed(lawler, k, &run);
  return run;
}

// Best-of-`reps` on the timing metrics (minimum over repetitions, the
// usual scheduler-noise suppressor); the count metrics and the answer
// stream are deterministic across repetitions, so the first repetition's
// values stand for all of them.
template <typename RunOnce>
E12Run BestOf(RunOnce run_once) {
  constexpr int kReps = 15;
  E12Run best = run_once();
  for (int rep = 1; rep < kReps; ++rep) {
    E12Run r = run_once();
    best.wall_ms = std::min(best.wall_ms, r.wall_ms);
    best.compose_ns = std::min(best.compose_ns, r.compose_ns);
    best.optimize_ns = std::min(best.optimize_ns, r.optimize_ns);
  }
  return best;
}

// OPT2 — the acceptance workload. Per instance size, the same top-k
// E_max enumeration is driven through the unpruned reference (`off`) and
// the engine (`on`); the JSON records both sides plus the reduction, and
// the streams are byte-compared (output AND bitwise score). Returns false
// on any diff.
bool PrintE12Comparison() {
  bench::PrintHeader(
      "OPT2: E12 E_max workload, unpruned reference vs engine",
      "pruning the composed products shrinks every per-subspace solve: "
      "the summed composed-product state count drops while the answer "
      "stream stays byte-identical to the unpruned reference.");

  bool all_identical = true;
  std::printf("%-6s %-12s %-12s %-12s %-12s %-10s %-10s\n", "n",
              "states_off", "states_on", "compose_off", "compose_on",
              "pruned", "identical");
  for (int n : {16, 32, 48}) {
    const int k = 100;
    Instance inst = MakeInstance(n, 211);
    E12Run off = BestOf([&] { return RunReferenceOnce(inst, k); });
    E12Run on = BestOf([&] { return RunEngineOnce(inst, n, k); });

    bool identical = off.answers.size() == on.answers.size();
    for (size_t i = 0; identical && i < off.answers.size(); ++i) {
      identical = off.answers[i].output == on.answers[i].output &&
                  off.answers[i].score == on.answers[i].score;
    }
    all_identical = all_identical && identical;

    std::printf("%-6d %-12lld %-12lld %-12.3f %-12.3f %-10lld %-10s\n", n,
                static_cast<long long>(off.composed_states),
                static_cast<long long>(on.composed_states),
                static_cast<double>(off.compose_ns) * 1e-6,
                static_cast<double>(on.compose_ns) * 1e-6,
                static_cast<long long>(on.states_pruned),
                identical ? "yes" : "NO");

    std::string prefix = "e12.n=" + std::to_string(n) + ".";
    bench::Report::Global().AddMetric(prefix + "answers",
                                      static_cast<double>(off.answers.size()));
    bench::Report::Global().AddMetric(prefix + "composed_states_off",
                                      static_cast<double>(off.composed_states));
    bench::Report::Global().AddMetric(prefix + "composed_states_on",
                                      static_cast<double>(on.composed_states));
    bench::Report::Global().AddMetric(
        prefix + "composed_states_reduction",
        static_cast<double>(off.composed_states - on.composed_states));
    bench::Report::Global().AddMetric(prefix + "compose_ns_off",
                                      static_cast<double>(off.compose_ns));
    bench::Report::Global().AddMetric(prefix + "compose_ns_on",
                                      static_cast<double>(on.compose_ns));
    bench::Report::Global().AddMetric(
        prefix + "compose_ns_reduction",
        static_cast<double>(off.compose_ns - on.compose_ns));
    bench::Report::Global().AddMetric(prefix + "optimize_ns_on",
                                      static_cast<double>(on.optimize_ns));
    bench::Report::Global().AddMetric(prefix + "product_states_pruned",
                                      static_cast<double>(on.states_pruned));
    bench::Report::Global().AddMetric(prefix + "wall_ms_off", off.wall_ms);
    bench::Report::Global().AddMetric(prefix + "wall_ms_on", on.wall_ms);
    bench::Report::Global().AddMetric(prefix + "identical",
                                      identical ? 1.0 : 0.0);
    if (!identical) {
      bench::Report::Global().AddSkip(
          "OPT2: engine stream diverged from the unpruned reference at n=" +
          std::to_string(n));
    }
  }
  return all_identical;
}

}  // namespace
}  // namespace tms

// Like bench_enumeration_delay this registers no google-benchmark cases:
// the reference-vs-engine comparison above is the whole measurement, and the
// byte-identity check is an asserted contract — a stream diff fails the
// binary so it can never become a checked-in baseline.
int main() {
  tms::bench::Session session("optimize");
  tms::PrintPrunePass();
  bool identical = tms::PrintE12Comparison();
  return identical ? 0 : 1;
}
