// E10 — the paper's motivation (§1, §3.2): the classic two-step evaluation
// ("enumerate ALL answers, then compute each confidence") is impractical
// because |A^ω(μ)| can be exponential in n, while users want a few
// top-ranked answers. The reproduction table pits the two-step baseline
// against ranked top-k evaluation as n grows: the two-step cost explodes
// with the answer count; top-k stays polynomial.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "query/evaluator.h"
#include "workload/random_models.h"

namespace tms {
namespace {

struct Instance {
  markov::MarkovSequence mu;
  transducer::Transducer t;
};

Instance MakeInstance(int n, uint64_t seed) {
  Rng rng(seed);
  // Denser support → more answers, the regime the paper warns about.
  markov::MarkovSequence mu = workload::RandomMarkovSequence(3, n, 3, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = 2;
  opts.deterministic = true;
  opts.max_emission = 1;
  opts.output_symbols = 2;
  opts.accept_prob = 1.0;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  return Instance{std::move(mu), std::move(t)};
}

void PrintReproduction() {
  bench::PrintHeader(
      "E10: two-step evaluation vs ranked top-k (paper §1, §3.2)",
      "the answer set grows exponentially with n, so producing all answers "
      "before ranking is impractical; ranked enumeration makes top-k "
      "affordable. Expected shape: two-step time tracks the answer count; "
      "top-10 time grows polynomially in n only.");

  std::printf("%-6s %-12s %-18s %-16s\n", "n", "answers",
              "two-step (ms)", "top-10 (ms)");
  for (int n : {6, 8, 10, 12, 14, 16}) {
    Instance inst = MakeInstance(n, 131);
    auto eval = query::Evaluator::Create(&inst.mu, &inst.t);

    Stopwatch two_step;
    auto all = eval->EvaluateTwoStep();
    double two_step_ms = two_step.ElapsedSeconds() * 1e3;

    Stopwatch ranked;
    auto topk = eval->TopK(10);
    double ranked_ms = ranked.ElapsedSeconds() * 1e3;

    std::printf("%-6d %-12zu %-18.2f %-16.2f\n", n, all->size(),
                two_step_ms, ranked_ms);
    std::string prefix = "n=" + std::to_string(n) + ".";
    bench::Report::Global().AddMetric(prefix + "answers",
                                      static_cast<double>(all->size()));
    bench::Report::Global().AddMetric(prefix + "twostep_ms", two_step_ms);
    bench::Report::Global().AddMetric(prefix + "top10_ms", ranked_ms);
  }
}

// The Lahar framing: one query over a whole collection of Markov
// sequences. db::BatchEvaluator fans the per-sequence top-k evaluations
// across a thread pool and shares one composition cache (the composed
// transducers depend only on the constraint, not on μ), so the sequential
// collection scan is both the correctness reference and the 1-thread row.
void PrintBatchReproduction() {
  bench::PrintHeader(
      "E10b: one query over a sequence collection (db::BatchEvaluator)",
      "per-sequence evaluations are independent and share all composition "
      "work through one cache; the batched evaluator returns rows "
      "byte-identical to the sequential collection scan at every thread "
      "count.");

  constexpr int kSequences = 12;
  constexpr int kN = 12;
  constexpr int kTopK = 5;
  Rng rng(151);
  markov::MarkovSequence seed = workload::RandomMarkovSequence(3, kN, 3, rng);
  db::SequenceCollection collection(seed.nodes());
  for (int i = 0; i < kSequences; ++i) {
    Status st = collection.Insert(
        "seq-" + std::to_string(i),
        i == 0 ? seed : workload::RandomMarkovSequence(3, kN, 3, rng));
    if (!st.ok()) {
      bench::Report::Global().AddSkip("E10b: insert failed: " + st.message());
      return;
    }
  }
  workload::RandomTransducerOptions opts;
  opts.num_states = 2;
  opts.deterministic = true;
  opts.max_emission = 1;
  opts.output_symbols = 2;
  opts.accept_prob = 1.0;
  transducer::Transducer t =
      workload::RandomTransducer(collection.nodes(), opts, rng);

  Stopwatch sequential;
  auto want = collection.TopKPerSequence(t, kTopK);
  double sequential_ms = sequential.ElapsedSeconds() * 1e3;
  if (!want.ok()) {
    bench::Report::Global().AddSkip("E10b: sequential scan failed: " +
                                    want.status().message());
    return;
  }
  std::printf("%-10s %-8s %-8s %-12s %-10s %-10s\n", "mode", "threads",
              "rows", "total (ms)", "identical", "cache hits");
  std::printf("%-10s %-8d %-8zu %-12.2f %-10s %-10s\n", "collection", 1,
              want->size(), sequential_ms, "(ref)", "-");
  bench::Report::Global().AddMetric("batch.sequential_ms", sequential_ms);

  for (int threads : {1, 2, 4}) {
    auto batch = db::BatchEvaluator::Create(
        &collection, &t, db::BatchEvaluator::Options{threads});
    if (!batch.ok()) {
      bench::Report::Global().AddSkip("E10b: Create failed: " +
                                      batch.status().message());
      continue;
    }
    Stopwatch wall;
    const std::vector<db::BatchEvaluator::SequenceResult> results =
        batch->EvaluateAll(kTopK);
    double total_ms = wall.ElapsedSeconds() * 1e3;
    std::vector<db::SequenceCollection::Row> got;
    Status failed;
    for (const db::BatchEvaluator::SequenceResult& r : results) {
      if (!r.status.ok() && failed.ok()) failed = r.status;
      for (const query::AnswerInfo& info : r.answers) {
        got.push_back(db::SequenceCollection::Row{r.key, info});
      }
    }
    if (!failed.ok()) {
      bench::Report::Global().AddSkip("E10b: batch scan failed: " +
                                      failed.message());
      continue;
    }
    bool identical = got.size() == want->size();
    for (size_t i = 0; identical && i < got.size(); ++i) {
      identical = got[i].key == (*want)[i].key &&
                  got[i].answer.output == (*want)[i].answer.output &&
                  got[i].answer.emax == (*want)[i].answer.emax &&
                  got[i].answer.confidence == (*want)[i].answer.confidence;
    }
    auto stats = batch->cache_stats();
    std::printf("%-10s %-8d %-8zu %-12.2f %-10s %-10lld\n", "batch", threads,
                got.size(), total_ms, identical ? "yes" : "NO",
                static_cast<long long>(stats.hits));
    std::string prefix = "batch.threads=" + std::to_string(threads) + ".";
    bench::Report::Global().AddMetric(prefix + "total_ms", total_ms);
    bench::Report::Global().AddMetric(prefix + "rows",
                                      static_cast<double>(got.size()));
    bench::Report::Global().AddMetric(prefix + "identical",
                                      identical ? 1.0 : 0.0);
    bench::Report::Global().AddMetric(prefix + "cache_hits",
                                      static_cast<double>(stats.hits));
    if (!identical) {
      bench::Report::Global().AddSkip(
          "E10b: batch rows diverged from the sequential scan at threads=" +
          std::to_string(threads));
    }
  }
}

void BM_TwoStep(benchmark::State& state) {
  Instance inst = MakeInstance(static_cast<int>(state.range(0)), 137);
  auto eval = query::Evaluator::Create(&inst.mu, &inst.t);
  for (auto _ : state) {
    auto all = eval->EvaluateTwoStep();
    benchmark::DoNotOptimize(all);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_TwoStep)->Arg(6)->Arg(10)->Arg(14);

void BM_RankedTop10(benchmark::State& state) {
  Instance inst = MakeInstance(static_cast<int>(state.range(0)), 137);
  auto eval = query::Evaluator::Create(&inst.mu, &inst.t);
  for (auto _ : state) {
    auto topk = eval->TopK(10);
    benchmark::DoNotOptimize(topk);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RankedTop10)->Arg(6)->Arg(10)->Arg(14)->Arg(32)->Arg(64);

}  // namespace
}  // namespace tms

int main(int argc, char** argv) {
  tms::bench::Session session("twostep_vs_ranked");
  tms::PrintReproduction();
  tms::PrintBatchReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
