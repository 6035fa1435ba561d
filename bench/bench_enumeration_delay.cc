// E12 — inter-answer delay distributions for the three enumeration
// engines. The paper's guarantees are *delay* bounds: unranked
// enumeration has polynomial delay (Theorem 4.1), E_max-ranked
// enumeration has polynomial delay (Theorem 4.3), and I_max-ranked
// s-projector enumeration has polynomial delay (Theorem 5.11). The
// reproduction tables record the realized delay distribution (max, p50,
// p99) per engine and instance size via obs::DelayRecorder histograms;
// BENCH_enumeration_delay.json is the machine-readable baseline. E12b and
// E12c repeat the ranked streams at 1, 2 and 4 threads: E12b the bare
// E_max engine, E12c the answer pipeline with each answer's exact
// confidence. E12d checks the bounded-execution contract.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "exec/fault.h"
#include "exec/run_context.h"
#include "exec/thread_pool.h"
#include "obs/delay.h"
#include "obs/explain.h"
#include "obs/query_scope.h"
#include "ranking/lawler.h"
#include "projector/imax_enum.h"
#include "projector/sprojector.h"
#include "query/answers.h"
#include "query/emax_enum.h"
#include "query/unranked_enum.h"
#include "workload/random_models.h"

namespace tms {
namespace {

struct Instance {
  markov::MarkovSequence mu;
  transducer::Transducer t;
};

// Per-query explain reports collected across the measured runs; written
// as BENCH_enumeration_delay_explain.json beside the main report so a
// delay regression can be attributed to a phase (compose / solve / merge
// / confidence) without rerunning the bench under a profiler.
std::vector<std::string>& ExplainDocs() {
  static std::vector<std::string> docs;
  return docs;
}

// Runs `fn` under its own obs::QueryScope and captures the per-query
// explain JSON, whose delay section reads the histogram `delay_histogram`
// that `fn` laps. The engines must be constructed inside `fn` so they
// capture the scope's trace context.
template <typename Fn>
void RunAsQuery(const std::string& name, int threads,
                const std::string& delay_histogram, Fn fn) {
  obs::QueryScope scope(name);
  const int64_t start_ns = obs::MonotonicNanos();
  fn();
  obs::ExplainInput input;
  input.query = name;
  input.query_id = scope.query_id();
  input.duration_ns = obs::MonotonicNanos() - start_ns;
  input.threads = threads;
  input.stats = scope.Snapshot();
  input.delay_histogram = delay_histogram;
  ExplainDocs().push_back(obs::ExplainJson(input));
}

// Writes the sidecar ({"bench":...,"queries":[{"explain":{...}}, ...]})
// to the same directory as the main report. Returns false on I/O failure.
bool WriteExplainSidecar() {
  std::string dir = ".";
  if (const char* env = std::getenv("TMS_BENCH_JSON_DIR")) dir = env;
  const std::string path = dir + "/BENCH_enumeration_delay_explain.json";
  std::string doc = "{\"bench\":\"enumeration_delay\",\"queries\":[";
  bool first = true;
  for (const std::string& e : ExplainDocs()) {
    if (!first) doc += ',';
    first = false;
    doc += e;
  }
  doc += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARNING: failed to write %s\n", path.c_str());
    return false;
  }
  std::fputs(doc.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

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

projector::SProjector RandomProjector(const Alphabet& ab, Rng& rng) {
  auto p = projector::SProjector::Create(
      workload::RandomDfa(ab, 2, rng, 0.6), workload::RandomDfa(ab, 2, rng, 0.6),
      workload::RandomDfa(ab, 2, rng, 0.6));
  return std::move(p).value();
}

// The delay recorder name of one E12 table cell; its histogram is
// `<name>.delay_ns`.
std::string DelayCell(const std::string& engine, int n) {
  std::string cell = "bench.delay.";
  cell += engine;
  cell += ".n";
  cell += std::to_string(n);
  return cell;
}

// Runs `next` until exhaustion (or `limit` answers), lapping a dedicated
// delay histogram `bench.delay.<engine>.n<k>.delay_ns` per answer, then
// prints one table row and records the distribution in the bench JSON.
template <typename NextFn>
void MeasureDelays(const char* engine, int n, int limit, NextFn next) {
  obs::DelayRecorder delay(DelayCell(engine, n));
  int count = 0;
  delay.Restart();
  while (count < limit && next()) {
    delay.RecordAnswer();
    ++count;
  }
  obs::HistogramSnapshot snap = delay.Snapshot();
  double max_ms = static_cast<double>(snap.max) * 1e-6;
  double p50_ms = snap.Quantile(0.5) * 1e-6;
  double p99_ms = snap.Quantile(0.99) * 1e-6;
  double total_ms = static_cast<double>(snap.sum) * 1e-6;
  std::printf("%-10s %-6d %-10d %-14.3f %-12.3f %-12.3f %-12.3f\n", engine, n,
              count, max_ms, p50_ms, p99_ms, total_ms);
  std::string prefix = std::string(engine) + ".n=" + std::to_string(n) + ".";
  bench::Report::Global().AddMetric(prefix + "answers", count);
  bench::Report::Global().AddMetric(prefix + "max_delay_ms", max_ms);
  bench::Report::Global().AddMetric(prefix + "p50_delay_ms", p50_ms);
  bench::Report::Global().AddMetric(prefix + "p99_delay_ms", p99_ms);
  bench::Report::Global().AddMetric(prefix + "total_ms", total_ms);
}

void PrintReproduction() {
  bench::PrintHeader(
      "E12: inter-answer delay distributions (Theorems 4.1, 4.3, 5.11)",
      "all three enumeration engines guarantee polynomial delay; the "
      "measured max / p50 / p99 inter-answer delays must grow polynomially "
      "with n and stay flat in the number of answers already emitted.");

  std::printf("%-10s %-6s %-10s %-14s %-12s %-12s %-12s\n", "engine", "n",
              "answers", "max (ms)", "p50 (ms)", "p99 (ms)", "total (ms)");
  for (int n : {8, 16, 32, 64}) {
    Instance inst = MakeInstance(n, 211);
    RunAsQuery("unranked.n=" + std::to_string(n), 1,
               DelayCell("unranked", n) + ".delay_ns", [&] {
      query::UnrankedEnumerator it(inst.mu, inst.t);
      MeasureDelays("unranked", n, 200,
                    [&] { return it.Next().has_value(); });
    });
  }
  for (int n : {8, 16, 32, 64}) {
    Instance inst = MakeInstance(n, 211);
    RunAsQuery("emax.n=" + std::to_string(n), 1,
               DelayCell("emax", n) + ".delay_ns", [&] {
      query::EmaxEnumerator it(inst.mu, inst.t);
      MeasureDelays("emax", n, 100, [&] { return it.Next().has_value(); });
    });
  }
  for (int n : {8, 16, 32}) {
    // Random projectors can be empty on a given seed; scan a fixed seed
    // range for one with a nonempty answer set so every row measures
    // real delays (still fully deterministic).
    bool measured = false;
    for (uint64_t seed = 223; seed < 239 && !measured; ++seed) {
      Rng rng(seed);
      markov::MarkovSequence mu = workload::RandomMarkovSequence(2, n, 2, rng);
      projector::SProjector p = RandomProjector(mu.nodes(), rng);
      auto probe = projector::ImaxEnumerator::Create(&mu, &p);
      if (!probe.ok() || !probe->Next().has_value()) continue;
      RunAsQuery("imax.n=" + std::to_string(n), 1,
                 DelayCell("imax", n) + ".delay_ns", [&] {
        auto it = projector::ImaxEnumerator::Create(&mu, &p);
        MeasureDelays("imax", n, 100,
                      [&] { return it->Next().has_value(); });
      });
      measured = true;
    }
    if (!measured) {
      bench::Report::Global().AddSkip(
          "imax: no projector with answers in seed range at n=" +
          std::to_string(n));
    }
  }
}

// The same E12 E_max workload driven end-to-end at several thread counts.
// The per-pop child subspaces are solved on an exec::ThreadPool and merged
// deterministically, so besides the wall-time column the harness checks —
// and records — that every thread count emits the exact answer stream of
// the sequential engine.
void PrintMultiThread() {
  bench::PrintHeader(
      "E12b: total enumeration wall-time vs thread count (parallel Lawler)",
      "child subspaces of each Lawler pop are independent and solved "
      "concurrently with a deterministic merge: the emitted stream is "
      "byte-identical at every thread count while the total enumeration "
      "wall-time for the same answer budget drops.");

  std::printf("%-8s %-6s %-10s %-12s %-10s\n", "threads", "n", "answers",
              "total (ms)", "identical");
  for (int n : {32, 64}) {
    std::vector<ranking::ScoredAnswer> reference;
    for (int threads : {1, 2, 4}) {
      Instance inst = MakeInstance(n, 211);
      std::unique_ptr<exec::ThreadPool> pool;
      if (threads > 1) {
        pool = std::make_unique<exec::ThreadPool>(threads - 1);
      }
      std::vector<ranking::ScoredAnswer> answers;
      double total_ms = 0.0;
      // The bare engine times nothing itself: lap a recorder per answer,
      // as MeasureDelays does.
      std::string engine = "emax.t";
      engine += std::to_string(threads);
      const std::string cell = DelayCell(engine, n);
      RunAsQuery("emax.threads=" + std::to_string(threads) +
                     ".n=" + std::to_string(n),
                 threads, cell + ".delay_ns", [&] {
        query::EmaxEnumerator it(inst.mu, inst.t, {.pool = pool.get()});
        obs::DelayRecorder delay(cell);
        Stopwatch wall;
        while (static_cast<int>(answers.size()) < 100) {
          auto answer = it.Next();
          if (!answer.has_value()) break;
          delay.RecordAnswer();
          answers.push_back(std::move(*answer));
        }
        total_ms = wall.ElapsedSeconds() * 1e3;
      });

      bool identical = true;
      if (threads == 1) {
        reference = answers;
      } else {
        identical = answers.size() == reference.size();
        for (size_t i = 0; identical && i < answers.size(); ++i) {
          identical = answers[i].output == reference[i].output &&
                      answers[i].score == reference[i].score;
        }
      }
      std::printf("%-8d %-6d %-10zu %-12.3f %-10s\n", threads, n,
                  answers.size(), total_ms, identical ? "yes" : "NO");
      std::string prefix = "emax.threads=" + std::to_string(threads) +
                           ".n=" + std::to_string(n) + ".";
      bench::Report::Global().AddMetric(prefix + "answers",
                                        static_cast<double>(answers.size()));
      bench::Report::Global().AddMetric(prefix + "total_ms", total_ms);
      bench::Report::Global().AddMetric(prefix + "identical",
                                        identical ? 1.0 : 0.0);
      if (!identical) {
        bench::Report::Global().AddSkip(
            "E12b: thread count " + std::to_string(threads) +
            " diverged from the sequential stream at n=" + std::to_string(n));
      }
    }
  }
}

// A deterministic query whose outputs stay short on a long sequence:
// every 16th symbol is marked with one of four classes, the first two
// steps onto marked symbols emit their classes, and every other step is
// silent. Its confidence is Theorem 4.6's DP.
transducer::Transducer MarkedVisitQuery(const Alphabet& nodes) {
  const int sigma = static_cast<int>(nodes.size());
  transducer::Transducer t(nodes, workload::MakeSymbols(4, "c"), 3);
  t.SetInitial(0);
  for (int q = 0; q < 3; ++q) {
    t.SetAccepting(q);
    for (int s = 0; s < sigma; ++s) {
      const bool visit = s % 16 == 5 && q < 2;
      Str out;
      if (visit) out.push_back(static_cast<Symbol>((s / 16) % 4));
      TMS_CHECK(t.AddTransition(q, static_cast<Symbol>(s), visit ? q + 1 : q,
                                std::move(out))
                    .ok());
    }
  }
  return t;
}

bool SameAnswers(const std::vector<query::AnswerInfo>& a,
                 const std::vector<query::AnswerInfo>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].output != b[i].output ||
        std::bit_cast<uint64_t>(a[i].emax) !=
            std::bit_cast<uint64_t>(b[i].emax) ||
        std::bit_cast<uint64_t>(a[i].confidence) !=
            std::bit_cast<uint64_t>(b[i].confidence)) {
      return false;
    }
  }
  return true;
}

// The answer pipeline — E_max order plus each answer's exact confidence,
// the stream /query serves — on a long sparse instance at several thread
// counts. With a pool, each answer's confidence DP runs beside the child
// solves of its pop, so the per-answer delay approaches the larger of the
// two instead of their sum. Every drain must emit the sequential stream
// bit for bit (outputs, E_max and confidence); returns false otherwise.
bool PrintPipeline() {
  bench::PrintHeader(
      "E12c: answer-pipeline per-answer delay vs thread count (confidence "
      "included)",
      "each answer's exact confidence runs beside its Lawler pop's child "
      "solves on the pool: the stream (outputs, E_max and confidence bits) "
      "is identical at every thread count while the per-answer delay "
      "drops.");

  constexpr int kSigma = 256;
  constexpr int kLength = 1024;
  constexpr int kAnswers = 10;
  constexpr int kDrains = 3;
  Rng rng(307);
  const markov::MarkovSequence mu = workload::RandomHomogeneousMarkovSequence(
      kSigma, kLength, kSigma / 20, rng);
  const transducer::Transducer t = MarkedVisitQuery(mu.nodes());

  std::printf("%-8s %-8s %-10s %-12s %-12s %-12s %-10s\n", "threads",
              "answers", "drains", "p50 (ms)", "max (ms)", "total (ms)",
              "identical");
  bool ok = true;
  std::vector<query::AnswerInfo> reference;
  for (int threads : {1, 2, 4}) {
    std::unique_ptr<exec::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<exec::ThreadPool>(threads - 1);
    std::vector<double> delays_ms;
    std::vector<double> totals_ms;
    bool identical = true;
    size_t answers = 0;
    for (int drain = 0; drain < kDrains; ++drain) {
      std::vector<query::AnswerInfo> got;
      RunAsQuery("pipeline.threads=" + std::to_string(threads), threads,
                 "query.topk.delay_ns", [&] {
        auto pipeline = query::AnswerPipeline::Create(
            mu, t, query::AnswerMode::kRanked, {.pool = pool.get()});
        TMS_CHECK(pipeline.ok());
        Stopwatch lap;
        double total_ms = 0.0;
        while (static_cast<int>(got.size()) < kAnswers) {
          auto answer = pipeline->Next();
          TMS_CHECK(answer.ok());
          if (!answer->has_value()) break;
          const double delay_ms = lap.LapSeconds() * 1e3;
          delays_ms.push_back(delay_ms);
          total_ms += delay_ms;
          got.push_back(std::move(**answer));
        }
        totals_ms.push_back(total_ms);
      });
      if (reference.empty()) reference = got;
      identical = identical && SameAnswers(got, reference);
      answers = got.size();
    }
    std::sort(delays_ms.begin(), delays_ms.end());
    std::sort(totals_ms.begin(), totals_ms.end());
    const double p50_ms = delays_ms.empty() ? 0.0
                                            : delays_ms[delays_ms.size() / 2];
    const double max_ms = delays_ms.empty() ? 0.0 : delays_ms.back();
    const double total_ms = totals_ms[totals_ms.size() / 2];
    std::printf("%-8d %-8zu %-10d %-12.3f %-12.3f %-12.3f %-10s\n", threads,
                answers, kDrains, p50_ms, max_ms, total_ms,
                identical ? "yes" : "NO");
    const std::string prefix =
        "pipeline.threads=" + std::to_string(threads) + ".";
    bench::Report::Global().AddMetric(prefix + "answers",
                                      static_cast<double>(answers));
    bench::Report::Global().AddMetric(prefix + "p50_delay_ms", p50_ms);
    bench::Report::Global().AddMetric(prefix + "max_delay_ms", max_ms);
    bench::Report::Global().AddMetric(prefix + "total_ms", total_ms);
    bench::Report::Global().AddMetric(prefix + "identical",
                                      identical ? 1.0 : 0.0);
    if (!identical) {
      ok = false;
      bench::Report::Global().AddSkip(
          "E12c: thread count " + std::to_string(threads) +
          " diverged from the sequential answer pipeline");
    }
  }
  return ok;
}

bool IsPrefixOf(const std::vector<ranking::ScoredAnswer>& prefix,
                const std::vector<ranking::ScoredAnswer>& stream) {
  if (prefix.size() > stream.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i].output != stream[i].output ||
        prefix[i].score != stream[i].score) {
      return false;
    }
  }
  return true;
}

// The bounded-execution contract (docs/ROBUSTNESS.md) under the bench
// harness: a wall-clock deadline may be overrun by at most one
// answer-delay, and a drained work budget truncates the stream to a
// byte-identical prefix of the unbounded one at every thread count. The
// exec.budget.* / exec.fault.* counters accumulated by these runs are
// exported as first-class metrics so the bench JSON records how much work
// each limit admitted. Returns false when the contract is violated — the
// binary then exits nonzero.
bool PrintBounded() {
  bench::PrintHeader(
      "E12d: bounded execution (deadline overshoot, budget truncation)",
      "a fired limit stops the stream at the next answer boundary: the "
      "truncated stream is a byte-identical prefix of the unbounded one "
      "at every thread count, and a deadline is overrun by at most one "
      "answer-delay.");

  bool ok = true;
  const int n = 64;
  Instance inst = MakeInstance(n, 211);

  // Unbounded reference stream and its worst single answer-delay — the
  // yardstick a deadline overshoot is measured against.
  std::vector<ranking::ScoredAnswer> reference;
  double ref_max_delay_ms = 0.0;
  {
    query::EmaxEnumerator it(inst.mu, inst.t);
    Stopwatch lap;
    while (static_cast<int>(reference.size()) < 100) {
      auto answer = it.Next();
      double delay_ms = lap.LapSeconds() * 1e3;
      if (!answer.has_value()) break;
      ref_max_delay_ms = std::max(ref_max_delay_ms, delay_ms);
      reference.push_back(std::move(*answer));
    }
  }

  // Deadline overshoot: stop the same enumeration mid-stream with a
  // wall-clock deadline. The engine checks the clock at every charge and
  // answer boundary, so it may run past the deadline by at most the time
  // of one in-flight answer; allow 2x the reference max delay plus a 5 ms
  // scheduler-granularity floor so a CI context switch cannot flake the
  // bench.
  {
    const int64_t deadline_ms = 20;
    exec::RunContext run;
    // The stopwatch and the deadline share an origin so the measured
    // overshoot covers everything the deadline does, enumerator
    // construction included.
    Stopwatch wall;
    run.set_deadline_after_ms(deadline_ms);
    query::EmaxEnumerator it(inst.mu, inst.t, {.run = &run});
    std::vector<ranking::ScoredAnswer> answers;
    while (true) {
      auto answer = it.Next();
      if (!answer.has_value()) break;
      answers.push_back(std::move(*answer));
    }
    double wall_ms = wall.ElapsedSeconds() * 1e3;
    double overshoot_ms =
        std::max(0.0, wall_ms - static_cast<double>(deadline_ms));
    double bound_ms = std::max(2.0 * ref_max_delay_ms, 5.0);
    bool within = overshoot_ms <= bound_ms;
    // The shorter of the two streams must be an exact prefix of the other
    // (the reference itself is capped at 100 answers).
    bool prefix = answers.size() <= reference.size()
                      ? IsPrefixOf(answers, reference)
                      : IsPrefixOf(reference, answers);
    std::printf(
        "deadline   %-6d ms: stopped after %zu answers in %.3f ms "
        "(overshoot %.3f ms, bound %.3f ms) %s %s\n",
        static_cast<int>(deadline_ms), answers.size(), wall_ms, overshoot_ms,
        bound_ms, within ? "within" : "EXCEEDED", prefix ? "" : "NOT-PREFIX");
    bench::Report::Global().AddMetric("deadline.wall_ms", wall_ms);
    bench::Report::Global().AddMetric("deadline.overshoot_ms", overshoot_ms);
    bench::Report::Global().AddMetric("deadline.bound_ms", bound_ms);
    bench::Report::Global().AddMetric("deadline.within_bound",
                                      within ? 1.0 : 0.0);
    bench::Report::Global().AddMetric("deadline.answers",
                                      static_cast<double>(answers.size()));
    if (!run.truncated()) {
      bench::Report::Global().AddSkip(
          "E12d: stream exhausted before the deadline fired; overshoot not "
          "measured");
    } else if (!within || !prefix) {
      ok = false;
    }
  }

  // Budget truncation: the per-pop charge totals are independent of the
  // thread count, so the truncated stream must be the exact same prefix
  // of the reference stream no matter how many workers solve subspaces.
  std::printf("%-8s %-8s %-10s %-8s\n", "budget", "threads", "answers",
              "prefix");
  for (int64_t budget : {1, 5, 20}) {
    std::vector<ranking::ScoredAnswer> first;
    bool have_first = false;
    for (int threads : {1, 4}) {
      exec::RunContext run;
      run.set_work_budget(budget);
      std::unique_ptr<exec::ThreadPool> pool;
      if (threads > 1) {
        pool = std::make_unique<exec::ThreadPool>(threads - 1);
      }
      query::EmaxEnumerator it(inst.mu, inst.t,
                               {.pool = pool.get(), .run = &run});
      std::vector<ranking::ScoredAnswer> answers;
      while (true) {
        auto answer = it.Next();
        if (!answer.has_value()) break;
        answers.push_back(std::move(*answer));
      }
      bool prefix = IsPrefixOf(answers, reference);
      bool identical = !have_first || (answers.size() == first.size() &&
                                       IsPrefixOf(answers, first));
      if (!have_first) {
        first = answers;
        have_first = true;
      }
      std::printf("%-8lld %-8d %-10zu %-8s\n",
                  static_cast<long long>(budget), threads, answers.size(),
                  prefix && identical ? "yes" : "NO");
      std::string prefix_key = "budget=" + std::to_string(budget) +
                               ".threads=" + std::to_string(threads) + ".";
      bench::Report::Global().AddMetric(prefix_key + "answers",
                                        static_cast<double>(answers.size()));
      bench::Report::Global().AddMetric(prefix_key + "prefix_ok",
                                        prefix && identical ? 1.0 : 0.0);
      if (!prefix || !identical) {
        ok = false;
        bench::Report::Global().AddSkip(
            "E12d: budget " + std::to_string(budget) + " at " +
            std::to_string(threads) +
            " threads diverged from the unbounded stream");
      }
    }
  }

#if TMS_FAULTS_ACTIVE
  // One delayed solve through the injector so the exec.fault.* counters
  // are live in the exported metrics (and the bench exercises the
  // injected-delay path end to end).
  exec::FaultInjector::Global().ScheduleDelay(
      "lawler.pre_solve", /*nth_hit=*/1, std::chrono::microseconds(50));
  {
    exec::RunContext run;
    run.set_max_answers(2);
    query::EmaxEnumerator it(inst.mu, inst.t, {.run = &run});
    while (it.Next().has_value()) {
    }
  }
  exec::FaultInjector::Global().Reset();
#endif

  // Export the bounded-execution counters as first-class bench metrics
  // (they also appear in the registry dump, but dashboards read the
  // experiment metrics).
  for (const char* name :
       {"exec.budget.work_charged", "exec.budget.answer_capped",
        "exec.budget.budget_exhausted", "exec.budget.deadline_exceeded",
        "exec.budget.cancelled", "exec.budget.faults", "exec.fault.hits",
        "exec.fault.delays", "exec.fault.cancels", "exec.fault.failures"}) {
    bench::Report::Global().AddMetric(
        name,
        static_cast<double>(obs::Registry::Global().counter(name).value()));
  }
  return ok;
}

}  // namespace
}  // namespace tms

// Unlike the other benches this one registers no google-benchmark cases:
// the delay distributions above are the whole measurement. E12c asserts
// that the answer pipeline's stream is the same at every thread count and
// E12d the bounded-execution contract — a diverged pipeline stream, a
// violated deadline-overshoot bound or a non-prefix truncated stream fails
// the binary.
int main() {
  tms::bench::Session session("enumeration_delay");
  tms::PrintReproduction();
  tms::PrintMultiThread();
  bool pipeline_ok = tms::PrintPipeline();
  bool bounded_ok = tms::PrintBounded();
  bool sidecar_ok = tms::WriteExplainSidecar();
  return pipeline_ok && bounded_ok && sidecar_ok ? 0 : 1;
}
