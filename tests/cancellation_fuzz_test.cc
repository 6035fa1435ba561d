// Cancellation / fault-injection fuzz over every enumeration engine: arm
// the global FaultInjector at a randomized (point, hit) and drive the
// enumeration to completion. Whatever fires — a cancellation token
// flipped mid-run, a simulated allocation failure, a delay widening race
// windows at 8 threads — the engine must shut down cleanly at an answer
// boundary with a structured stop reason, and the emitted answers must be
// an exact prefix of the unbounded stream. Run under
// -DTMS_SANITIZE=address,undefined and thread (tools/ci_verify.sh); the
// suites are in `ctest -L robustness`. Seeds obey TMS_TEST_SEED.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/fault.h"
#include "exec/run_context.h"
#include "exec/thread_pool.h"
#include "obs/config.h"
#include "projector/imax_enum.h"
#include "projector/sprojector.h"
#include "query/answers.h"
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
  markov::MarkovSequence mu =
      workload::RandomMarkovSequence(sigma, n, /*support=*/sigma, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = static_cast<int>(rng.UniformInt(2, 3));
  opts.density = 1.2;
  opts.max_emission = 2;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  return Instance{std::move(mu), std::move(t)};
}

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

void ExpectPrefix(const std::vector<ranking::ScoredAnswer>& prefix,
                  const std::vector<ranking::ScoredAnswer>& full) {
  ASSERT_LE(prefix.size(), full.size());
  for (size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(prefix[i].output, full[i].output) << "answer " << i;
    EXPECT_EQ(prefix[i].score, full[i].score) << "answer " << i;
  }
}

class CancellationFuzzTest : public ::testing::Test {
 protected:
  void TearDown() override { exec::FaultInjector::Global().Reset(); }
};

// The Lawler-based ranked engine under randomized cancellations at every
// fault point it passes, at 1, 2 and 8 threads.
TEST_F(CancellationFuzzTest, RankedEngineCancelsCleanlyAnywhere) {
  const uint64_t seed = testing::TestSeed(9201);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const std::vector<std::string> points = {"lawler.pre_solve",
                                           "lawler.pre_heap_push"};
  for (int trial = 0; trial < 24; ++trial) {
    Instance inst = RandomInstance(rng);
    const std::vector<ranking::ScoredAnswer> full =
        DrainEmax(inst, nullptr, nullptr);
    const std::string& point =
        points[static_cast<size_t>(rng.UniformInt(0, 1))];
    const int64_t nth = rng.UniformInt(1, 6);
    for (int t : {1, 2, 8}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " point=" + point +
                   " nth=" + std::to_string(nth) +
                   " threads=" + std::to_string(t));
      std::optional<exec::ThreadPool> pool;
      if (t > 1) pool.emplace(t - 1);
      exec::RunContext run;
      exec::FaultInjector::Global().ScheduleCancel(point, nth,
                                                   run.cancel_token());
      std::vector<ranking::ScoredAnswer> bounded =
          DrainEmax(inst, pool ? &*pool : nullptr, &run);
      exec::FaultInjector::Global().Reset();
      ExpectPrefix(bounded, full);
      // Either the point was never reached (run completed) or the
      // cancellation latched; nothing else.
      if (run.truncated()) {
        EXPECT_EQ(run.stop_reason(), exec::StopReason::kCancelled);
        EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
      } else {
        EXPECT_EQ(bounded.size(), full.size());
      }
    }
  }
}

// Simulated allocation failures at the solver and heap-push sites: the
// engine takes its failure path, reports kInternal, and still emits a
// clean prefix.
TEST_F(CancellationFuzzTest, RankedEngineSurvivesResourceFailures) {
  const uint64_t seed = testing::TestSeed(9202);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const std::vector<std::string> points = {"lawler.pre_solve",
                                           "lawler.pre_heap_push"};
  for (int trial = 0; trial < 16; ++trial) {
    Instance inst = RandomInstance(rng);
    const std::vector<ranking::ScoredAnswer> full =
        DrainEmax(inst, nullptr, nullptr);
    int64_t full_calls = 0;
    auto full_pipeline =
        testing::DrainRankedPipeline(inst.mu, inst.t, {}, &full_calls);
    ASSERT_TRUE(full_pipeline.ok()) << full_pipeline.status();
    const std::string& point =
        points[static_cast<size_t>(rng.UniformInt(0, 1))];
    const int64_t nth = rng.UniformInt(1, 5);
    for (int t : {1, 8}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " point=" + point +
                   " nth=" + std::to_string(nth) +
                   " threads=" + std::to_string(t));
      std::optional<exec::ThreadPool> pool;
      if (t > 1) pool.emplace(t - 1);
      exec::RunContext run;
      exec::FaultInjector::Global().ScheduleFailure(point, nth);
      std::vector<ranking::ScoredAnswer> bounded =
          DrainEmax(inst, pool ? &*pool : nullptr, &run);
      exec::FaultInjector::Global().Reset();
      ExpectPrefix(bounded, full);
      if (run.truncated()) {
        EXPECT_EQ(run.stop_reason(), exec::StopReason::kFault);
        EXPECT_EQ(run.status().code(), StatusCode::kInternal);
      } else {
        EXPECT_EQ(bounded.size(), full.size());
      }

      // The same failure under the answer pipeline: the confidences pass
      // no fault point, so it stops after the same answer, and it ran a
      // confidence DP for exactly the answers it returned.
      exec::RunContext pipeline_run;
      int64_t confidence_calls = 0;
      exec::FaultInjector::Global().ScheduleFailure(point, nth);
      auto piped = testing::DrainRankedPipeline(
          inst.mu, inst.t,
          {.pool = pool ? &*pool : nullptr, .run = &pipeline_run},
          &confidence_calls);
      exec::FaultInjector::Global().Reset();
      ASSERT_TRUE(piped.ok()) << piped.status();
      ASSERT_EQ(piped->size(), bounded.size());
      ASSERT_LE(piped->size(), full_pipeline->size());
      EXPECT_EQ(pipeline_run.stop_reason(), run.stop_reason());
      for (size_t i = 0; i < piped->size(); ++i) {
        EXPECT_EQ((*piped)[i].output, (*full_pipeline)[i].output)
            << "answer " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>((*piped)[i].confidence),
                  std::bit_cast<uint64_t>((*full_pipeline)[i].confidence))
            << "answer " << i;
      }
#if TMS_OBS_ACTIVE
      EXPECT_EQ(confidence_calls, static_cast<int64_t>(piped->size()));
#endif
    }
  }
}

// Delays at the heap-push site widen the window between a pop's emission
// and its child fanout — the classic spot for a parallel-merge race. At 8
// threads with delays the output must STILL be byte-identical. (Run under
// TSan for the data-race half of the claim.)
TEST_F(CancellationFuzzTest, DelaysDoNotPerturbParallelOutput) {
  const uint64_t seed = testing::TestSeed(9204);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    Instance inst = RandomInstance(rng);
    const std::vector<ranking::ScoredAnswer> full =
        DrainEmax(inst, nullptr, nullptr);
    exec::FaultInjector::Global().ScheduleDelay(
        "lawler.pre_solve", /*nth_hit=*/rng.UniformInt(1, 4),
        std::chrono::milliseconds(2));
    exec::ThreadPool pool(7);
    std::vector<ranking::ScoredAnswer> delayed =
        DrainEmax(inst, &pool, nullptr);
    exec::FaultInjector::Global().Reset();
    ASSERT_EQ(delayed.size(), full.size());
    ExpectPrefix(delayed, full);
  }
}

// The unranked engine under randomized cancellation and failure at its
// oracle gate.
TEST_F(CancellationFuzzTest, UnrankedEngineCancelsCleanly) {
  const uint64_t seed = testing::TestSeed(9205);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 16; ++trial) {
    Instance inst = RandomInstance(rng);
    std::vector<Str> full;
    {
      query::UnrankedEnumerator it(inst.mu, inst.t);
      while (auto a = it.Next()) {
        full.push_back(std::move(a->output));
        if (full.size() > 2000) break;
      }
    }
    const bool cancel = rng.Bernoulli(0.5);
    const int64_t nth = rng.UniformInt(1, 10);
    SCOPED_TRACE("trial " + std::to_string(trial) +
                 (cancel ? " cancel" : " failure") +
                 " nth=" + std::to_string(nth));
    exec::RunContext run;
    if (cancel) {
      exec::FaultInjector::Global().ScheduleCancel("unranked.pre_oracle", nth,
                                                   run.cancel_token());
    } else {
      exec::FaultInjector::Global().ScheduleFailure("unranked.pre_oracle", nth);
    }
    std::vector<Str> bounded;
    {
      query::UnrankedEnumerator it(inst.mu, inst.t, {.run = &run});
      while (auto a = it.Next()) {
        bounded.push_back(std::move(a->output));
        if (bounded.size() > 2000) break;
      }
    }
    exec::FaultInjector::Global().Reset();
    ASSERT_LE(bounded.size(), full.size());
    for (size_t i = 0; i < bounded.size(); ++i) EXPECT_EQ(bounded[i], full[i]);
    if (run.truncated()) {
      EXPECT_EQ(run.stop_reason(), cancel ? exec::StopReason::kCancelled
                                          : exec::StopReason::kFault);
    } else {
      EXPECT_EQ(bounded.size(), full.size());
    }
  }
}

// The s-projector ranked engine through the same Lawler fault points.
TEST_F(CancellationFuzzTest, ImaxEngineCancelsCleanly) {
  const uint64_t seed = testing::TestSeed(9206);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  // RandomMarkovSequence interns its nodes as n0, n1, ... — the projector
  // must share that alphabet exactly.
  Alphabet ab = workload::MakeSymbols(2, "n");
  auto p = projector::SProjector::FromRegex(ab, ". *", "n0 +", ". *");
  ASSERT_TRUE(p.ok()) << p.status();
  for (int trial = 0; trial < 10; ++trial) {
    markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 4, 2, rng);
    std::vector<ranking::ScoredAnswer> full;
    {
      auto it = projector::ImaxEnumerator::Create(&mu, &*p);
      ASSERT_TRUE(it.ok());
      while (auto a = it->Next()) full.push_back(std::move(*a));
    }
    const int64_t nth = rng.UniformInt(1, 6);
    for (int t : {1, 8}) {
      SCOPED_TRACE("trial " + std::to_string(trial) +
                   " nth=" + std::to_string(nth) +
                   " threads=" + std::to_string(t));
      std::optional<exec::ThreadPool> pool;
      if (t > 1) pool.emplace(t - 1);
      exec::RunContext run;
      exec::FaultInjector::Global().ScheduleCancel("lawler.pre_solve", nth,
                                                   run.cancel_token());
      auto it = projector::ImaxEnumerator::Create(
          &mu, &*p, {.pool = pool ? &*pool : nullptr, .run = &run});
      ASSERT_TRUE(it.ok());
      std::vector<ranking::ScoredAnswer> bounded;
      while (auto a = it->Next()) bounded.push_back(std::move(*a));
      exec::FaultInjector::Global().Reset();
      ExpectPrefix(bounded, full);
      if (run.truncated()) {
        EXPECT_EQ(run.stop_reason(), exec::StopReason::kCancelled);
      } else {
        EXPECT_EQ(bounded.size(), full.size());
      }
    }
  }
}

// The fault-point catalog is part of the public robustness contract
// (docs/ROBUSTNESS.md): a ranked run passes lawler.pre_solve; heap
// pushes happen whenever a pop
// fans out. If this test fails, a point was renamed or removed — update
// the catalog and the tests together.
TEST_F(CancellationFuzzTest, FaultPointCatalogIsLive) {
  const uint64_t seed = testing::TestSeed(9207);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  Instance inst = RandomInstance(rng);
  exec::FaultInjector::Global().Arm();
  (void)DrainEmax(inst, nullptr, nullptr);
  {
    query::UnrankedEnumerator it(inst.mu, inst.t);
    for (int i = 0; i < 3 && it.Next().has_value(); ++i) {
    }
  }
  auto& injector = exec::FaultInjector::Global();
  EXPECT_GT(injector.HitCount("lawler.pre_solve"), 0);
  EXPECT_GT(injector.HitCount("unranked.pre_oracle"), 0);
}

}  // namespace
}  // namespace tms
