// The truncation contract, property-tested over random models: whenever a
// RunContext limit fires — answer cap, work budget, expired deadline — the
// emitted stream is a byte-identical prefix of the unbounded stream, at
// every thread count, for every enumeration engine. Small instances are
// additionally cross-checked against the possible-world ground truth so
// "prefix of the unbounded stream" also means "prefix of the right
// stream". Run just these suites with `ctest -L robustness`; seeds obey
// TMS_TEST_SEED (see testing::TestSeed).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "exec/run_context.h"
#include "exec/thread_pool.h"
#include "projector/imax_enum.h"
#include "projector/sprojector.h"
#include "query/emax_enum.h"
#include "query/unranked_enum.h"
#include "test_util.h"
#include "workload/random_models.h"

namespace tms {
namespace {

struct Instance {
  markov::MarkovSequence mu;
  transducer::Transducer t;
};

Instance RandomInstance(Rng& rng) {
  const int sigma = static_cast<int>(rng.UniformInt(2, 3));
  const int n = static_cast<int>(rng.UniformInt(2, 4));
  markov::MarkovSequence mu = workload::RandomMarkovSequence(
      sigma, n, /*support=*/sigma, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = static_cast<int>(rng.UniformInt(2, 3));
  opts.density = 1.2;
  opts.max_emission = 2;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  return Instance{std::move(mu), std::move(t)};
}

// Drains a ranked enumeration bounded by `run` (null = unbounded), with a
// hard iteration guard so a bug cannot hang the suite.
std::vector<ranking::ScoredAnswer> DrainEmax(const Instance& inst,
                                             exec::ThreadPool* pool,
                                             exec::RunContext* run,
                                             int guard = 500) {
  query::EmaxEnumerator it(inst.mu, inst.t, {.pool = pool, .run = run});
  std::vector<ranking::ScoredAnswer> out;
  for (int i = 0; i < guard; ++i) {
    auto answer = it.Next();
    if (!answer.has_value()) break;
    out.push_back(std::move(*answer));
  }
  return out;
}

std::vector<Str> DrainUnranked(const Instance& inst, exec::RunContext* run,
                               int guard = 2000) {
  query::UnrankedEnumerator it(inst.mu, inst.t, {.run = run});
  std::vector<Str> out;
  for (int i = 0; i < guard; ++i) {
    auto answer = it.Next();
    if (!answer.has_value()) break;
    out.push_back(std::move(answer->output));
  }
  return out;
}

// Byte-identical prefix: same outputs, same scores, in the same order.
void ExpectPrefix(const std::vector<ranking::ScoredAnswer>& prefix,
                  const std::vector<ranking::ScoredAnswer>& full) {
  ASSERT_LE(prefix.size(), full.size());
  for (size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(prefix[i].output, full[i].output) << "answer " << i;
    EXPECT_EQ(prefix[i].score, full[i].score) << "answer " << i;
  }
}

TEST(PrefixConsistencyTest, AnswerCapYieldsExactPrefixAtEveryThreadCount) {
  const uint64_t seed = testing::TestSeed(8101);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    Instance inst = RandomInstance(rng);
    const std::vector<ranking::ScoredAnswer> full =
        DrainEmax(inst, nullptr, nullptr);
    for (int threads : {1, 2, 8}) {
      std::optional<exec::ThreadPool> pool;
      if (threads > 1) pool.emplace(threads - 1);
      for (size_t cap : {size_t{0}, size_t{1}, full.size() / 2, full.size()}) {
        exec::RunContext run;
        run.set_max_answers(static_cast<int64_t>(cap));
        std::vector<ranking::ScoredAnswer> bounded =
            DrainEmax(inst, pool ? &*pool : nullptr, &run);
        ASSERT_EQ(bounded.size(), std::min(cap, full.size()))
            << "threads=" << threads << " cap=" << cap;
        ExpectPrefix(bounded, full);
        EXPECT_TRUE(run.status().ok());  // client cap: OK + truncated
        if (cap < full.size()) {
          EXPECT_TRUE(run.truncated());
        }
      }
    }
  }
}

TEST(PrefixConsistencyTest, BudgetTruncationIsDeterministicAcrossThreads) {
  const uint64_t seed = testing::TestSeed(8102);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst = RandomInstance(rng);
    const std::vector<ranking::ScoredAnswer> full =
        DrainEmax(inst, nullptr, nullptr);
    for (int64_t budget : {int64_t{1}, int64_t{3}, int64_t{8}, int64_t{50}}) {
      // The per-pop charge totals are thread-count-independent, so the pop
      // at which the pool drains — and hence the emitted answer count — is
      // the same at every thread count.
      std::optional<std::vector<ranking::ScoredAnswer>> reference;
      for (int threads : {1, 2, 8}) {
        std::optional<exec::ThreadPool> pool;
        if (threads > 1) pool.emplace(threads - 1);
        exec::RunContext run;
        run.set_work_budget(budget);
        std::vector<ranking::ScoredAnswer> bounded =
            DrainEmax(inst, pool ? &*pool : nullptr, &run);
        ExpectPrefix(bounded, full);
        if (bounded.size() < full.size()) {
          EXPECT_TRUE(run.truncated());
          EXPECT_EQ(run.status().code(), StatusCode::kBudgetExhausted);
        }
        EXPECT_LE(run.work_charged(), budget);
        if (!reference.has_value()) {
          reference = std::move(bounded);
        } else {
          ASSERT_EQ(bounded.size(), reference->size())
              << "threads=" << threads << " budget=" << budget;
          ExpectPrefix(bounded, *reference);
        }
      }
    }
  }
}

TEST(PrefixConsistencyTest, ExpiredDeadlineEmitsNothingButStopsCleanly) {
  const uint64_t seed = testing::TestSeed(8103);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 5; ++trial) {
    Instance inst = RandomInstance(rng);
    exec::RunContext run;
    run.set_deadline(exec::RunContext::Clock::now() -
                     std::chrono::milliseconds(1));
    std::vector<ranking::ScoredAnswer> bounded =
        DrainEmax(inst, nullptr, &run);
    EXPECT_TRUE(bounded.empty());
    EXPECT_TRUE(run.truncated());
    EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(PrefixConsistencyTest, LiveDeadlineStillYieldsAPrefix) {
  const uint64_t seed = testing::TestSeed(8104);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 8; ++trial) {
    Instance inst = RandomInstance(rng);
    const std::vector<ranking::ScoredAnswer> full =
        DrainEmax(inst, nullptr, nullptr);
    for (int threads : {1, 8}) {
      std::optional<exec::ThreadPool> pool;
      if (threads > 1) pool.emplace(threads - 1);
      exec::RunContext run;
      // Tight but live: where the stream stops is timing-dependent, but
      // whatever comes out must be a prefix.
      run.set_deadline_after_ms(2);
      std::vector<ranking::ScoredAnswer> bounded =
          DrainEmax(inst, pool ? &*pool : nullptr, &run);
      ExpectPrefix(bounded, full);
      if (run.truncated()) {
        EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
      }
    }
  }
}

TEST(PrefixConsistencyTest, FullStreamMatchesBruteForceGroundTruth) {
  const uint64_t seed = testing::TestSeed(8105);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 8; ++trial) {
    Instance inst = RandomInstance(rng);
    const std::vector<ranking::ScoredAnswer> full =
        DrainEmax(inst, nullptr, nullptr);
    auto truth = testing::BruteForceAnswers(inst.mu, inst.t);
    ASSERT_EQ(full.size(), truth.size());
    double prev = std::numeric_limits<double>::infinity();
    std::set<Str> seen;
    for (const ranking::ScoredAnswer& a : full) {
      EXPECT_LE(a.score, prev) << "ranked stream must be nonincreasing";
      prev = a.score;
      EXPECT_TRUE(seen.insert(a.output).second) << "duplicate answer";
      ASSERT_TRUE(truth.count(a.output)) << "answer not in ground truth";
      EXPECT_NEAR(a.score, testing::BruteForceEmax(inst.mu, inst.t, a.output),
                  1e-9);
    }
  }
}

TEST(PrefixConsistencyTest, UnrankedBudgetTruncationIsAPrefix) {
  const uint64_t seed = testing::TestSeed(8106);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst = RandomInstance(rng);
    const std::vector<Str> full = DrainUnranked(inst, nullptr);
    for (int64_t budget : {int64_t{1}, int64_t{5}, int64_t{20}}) {
      exec::RunContext run;
      run.set_work_budget(budget);
      std::vector<Str> bounded = DrainUnranked(inst, &run);
      ASSERT_LE(bounded.size(), full.size());
      for (size_t i = 0; i < bounded.size(); ++i) {
        EXPECT_EQ(bounded[i], full[i]) << "answer " << i;
      }
      if (bounded.size() < full.size()) {
        EXPECT_TRUE(run.truncated());
        EXPECT_EQ(run.status().code(), StatusCode::kBudgetExhausted);
      }
    }
    // Answer caps on the unranked engine, too.
    exec::RunContext capped;
    capped.set_max_answers(1);
    std::vector<Str> one = DrainUnranked(inst, &capped);
    EXPECT_EQ(one.size(), std::min<size_t>(1, full.size()));
    if (!full.empty()) {
      EXPECT_EQ(one[0], full[0]);
    }
  }
}

TEST(PrefixConsistencyTest, ImaxEnumeratorHonorsTheContract) {
  const uint64_t seed = testing::TestSeed(8107);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  // RandomMarkovSequence interns its nodes as n0, n1, ... — the projector
  // must share that alphabet exactly.
  Alphabet ab = workload::MakeSymbols(2, "n");
  auto p = projector::SProjector::FromRegex(ab, ". *", "n0 +", ". *");
  ASSERT_TRUE(p.ok()) << p.status();
  for (int trial = 0; trial < 6; ++trial) {
    markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 4, 2, rng);
    auto full_it = projector::ImaxEnumerator::Create(&mu, &*p);
    ASSERT_TRUE(full_it.ok());
    std::vector<ranking::ScoredAnswer> full;
    while (auto a = full_it->Next()) full.push_back(std::move(*a));
    for (size_t cap = 0; cap <= full.size(); ++cap) {
      for (int threads : {1, 8}) {
        std::optional<exec::ThreadPool> pool;
        if (threads > 1) pool.emplace(threads - 1);
        exec::RunContext run;
        run.set_max_answers(static_cast<int64_t>(cap));
        auto it = projector::ImaxEnumerator::Create(
            &mu, &*p, {.pool = pool ? &*pool : nullptr, .run = &run});
        ASSERT_TRUE(it.ok());
        std::vector<ranking::ScoredAnswer> bounded;
        while (auto a = it->Next()) bounded.push_back(std::move(*a));
        ASSERT_EQ(bounded.size(), cap);
        ExpectPrefix(bounded, full);
      }
    }
  }
}

}  // namespace
}  // namespace tms
