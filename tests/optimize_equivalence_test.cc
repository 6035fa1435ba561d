// Differential equivalence harness for the query-automaton optimization
// pass (src/optimize/, docs/OPTIMIZE.md).
//
// The system's headline guarantee is byte-identical ranked streams at
// every thread count and backend; the optimization knob must preserve it
// EXACTLY. This suite byte-compares optimized-vs-unoptimized answer
// streams across the enumeration engines × {dense,sparse,auto} backends ×
// {1,2,8} threads on randomized instances (TMS_TEST_SEED-replayable), and
// adds the metamorphic properties the pass documents:
//   * PruneTransducer and MinimizeTransducer are idempotent;
//   * pruning/minimization never change the answer set, and minimization
//     preserves per-answer scores within the documented 1e-12 tolerance
//     (pruning is exact — bitwise);
//   * CompositionCache keys the optimization level — a lookup can never
//     return an entry built under the other knob setting (the regression
//     for the cache-key bug this PR fixes).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/engine_options.h"
#include "exec/thread_pool.h"
#include "io/text_format.h"
#include "kernels/backend.h"
#include "optimize/level.h"
#include "optimize/transducer_opt.h"
#include "query/engine_factory.h"
#include "query/top_confidence.h"
#include "query/unranked_enum.h"
#include "ranking/prefix_constraint.h"
#include "test_util.h"
#include "transducer/compose.h"
#include "transducer/composition_cache.h"
#include "workload/random_models.h"

namespace tms {
namespace {

using kernels::BackendChoice;
using optimize::Level;

struct Instance {
  markov::MarkovSequence mu;
  transducer::Transducer t;
};

// Large-alphabet instance in the sparse regime (kAuto resolves to the CSR
// backend) — the regime the pass must keep friendly to sparse kernels.
Instance SparseInstance(Rng& rng, int n = 6) {
  markov::MarkovSequence mu =
      workload::RandomHomogeneousMarkovSequence(24, n, /*support=*/3, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = 3;
  opts.deterministic = true;
  opts.max_emission = 1;
  opts.output_symbols = 2;
  opts.accept_prob = 0.7;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  return Instance{std::move(mu), std::move(t)};
}

// Small dense inhomogeneous instance. Low accept_prob and loose density
// make unreachable and dead states likely, so the prune actually fires.
Instance DenseInstance(Rng& rng) {
  const int sigma = static_cast<int>(rng.UniformInt(2, 3));
  const int n = static_cast<int>(rng.UniformInt(2, 4));
  markov::MarkovSequence mu =
      workload::RandomMarkovSequence(sigma, n, /*support=*/sigma, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = static_cast<int>(rng.UniformInt(2, 5));
  opts.density = 1.0;
  opts.max_emission = 2;
  opts.accept_prob = 0.5;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  return Instance{std::move(mu), std::move(t)};
}

std::vector<ranking::ScoredAnswer> Drain(query::EnumeratorKind kind,
                                         const Instance& inst, Level level,
                                         BackendChoice backend,
                                         exec::ThreadPool* pool = nullptr,
                                         int guard = 40) {
  exec::EngineOptions options;
  options.pool = pool;
  options.backend = backend;
  options.optimize = level;
  auto it = query::MakeEnumerator(kind, inst.mu, inst.t, options);
  if (!it.ok()) {
    ADD_FAILURE() << "MakeEnumerator: " << it.status();
    return {};
  }
  std::vector<ranking::ScoredAnswer> out;
  for (int i = 0; i < guard; ++i) {
    auto answer = (*it)->Next();
    if (!answer.has_value()) break;
    out.push_back(std::move(*answer));
  }
  return out;
}

// Byte-identical streams: same length, same outputs, bitwise-equal scores,
// same order. No tolerance — the prune path promises exactness.
void ExpectSameStream(const std::vector<ranking::ScoredAnswer>& got,
                      const std::vector<ranking::ScoredAnswer>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].output, want[i].output) << what << " answer " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " answer " << i;
  }
}

// The full differential sweep for one engine kind: the kOff/dense/1-thread
// stream is the reference; every (level, backend, threads) combination
// must reproduce it byte for byte.
void SweepEngine(query::EnumeratorKind kind, const Instance& inst,
                 const std::string& regime) {
  const std::vector<ranking::ScoredAnswer> reference =
      Drain(kind, inst, Level::kOff, BackendChoice::kDense);
  for (Level level : {Level::kAuto, Level::kOn}) {
    for (BackendChoice backend :
         {BackendChoice::kDense, BackendChoice::kSparse, BackendChoice::kAuto}) {
      for (int threads : {1, 2, 8}) {
        std::optional<exec::ThreadPool> pool;
        if (threads > 1) pool.emplace(threads - 1);
        std::vector<ranking::ScoredAnswer> stream =
            Drain(kind, inst, level, backend, pool ? &*pool : nullptr);
        ExpectSameStream(
            stream, reference,
            regime + " engine=" + query::EnumeratorKindName(kind) +
                " optimize=" + optimize::LevelName(level) +
                " backend=" + kernels::BackendChoiceName(backend) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(OptimizeEquivalenceTest, EmaxStreamByteIdenticalAcrossKnobAndThreads) {
  const uint64_t seed = testing::TestSeed(27101);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    for (bool sparse_regime : {true, false}) {
      Instance inst = sparse_regime ? SparseInstance(rng) : DenseInstance(rng);
      SweepEngine(query::EnumeratorKind::kEmax, inst,
                  sparse_regime ? "sparse-regime" : "dense-regime");
    }
  }
}

TEST(OptimizeEquivalenceTest, UnrankedStreamByteIdenticalAcrossKnobAndThreads) {
  const uint64_t seed = testing::TestSeed(27102);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    for (bool sparse_regime : {true, false}) {
      Instance inst =
          sparse_regime ? SparseInstance(rng, /*n=*/4) : DenseInstance(rng);
      SweepEngine(query::EnumeratorKind::kUnranked, inst,
                  sparse_regime ? "sparse-regime" : "dense-regime");
    }
  }
}

// The s-projector I_max engine composes no product automaton, so the knob
// is documented-inert there (projector/imax_enum.h); its stream must not
// move under any level, at any thread count.
TEST(OptimizeEquivalenceTest, SProjectorStreamInertUnderKnob) {
  const uint64_t seed = testing::TestSeed(27103);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  Alphabet ab = workload::MakeSymbols(2, "n");
  auto p = projector::SProjector::FromRegex(ab, ". *", "n0 +", ". *");
  ASSERT_TRUE(p.ok()) << p.status();
  markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 5, 2, rng);

  auto drain = [&](Level level, exec::ThreadPool* pool) {
    exec::EngineOptions options;
    options.pool = pool;
    options.optimize = level;
    auto it = query::MakeEnumerator(mu, *p, options);
    std::vector<ranking::ScoredAnswer> out;
    if (!it.ok()) {
      ADD_FAILURE() << it.status();
      return out;
    }
    while (auto a = (*it)->Next()) out.push_back(std::move(*a));
    return out;
  };
  const std::vector<ranking::ScoredAnswer> reference =
      drain(Level::kOff, nullptr);
  EXPECT_FALSE(reference.empty());
  for (Level level : {Level::kAuto, Level::kOn}) {
    for (int threads : {1, 2, 8}) {
      std::optional<exec::ThreadPool> pool;
      if (threads > 1) pool.emplace(threads - 1);
      ExpectSameStream(drain(level, pool ? &*pool : nullptr), reference,
                       std::string("sprojector optimize=") +
                           optimize::LevelName(level) +
                           " threads=" + std::to_string(threads));
    }
  }
}

// Branch-and-bound top-confidence rides the E_max stream; feeding it the
// minimized machine must not move the certified optimum.
TEST(OptimizeEquivalenceTest, TopConfidencePreservedByMinimization) {
  const uint64_t seed = testing::TestSeed(27104);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 6; ++trial) {
    Instance inst = DenseInstance(rng);
    auto original = query::TopAnswerByConfidence(inst.mu, inst.t);
    transducer::Transducer minimized = optimize::MinimizeTransducer(inst.t);
    auto optimized = query::TopAnswerByConfidence(inst.mu, minimized);
    ASSERT_EQ(original.ok(), optimized.ok());
    if (!original.ok()) continue;  // empty answer space: both must agree
    EXPECT_EQ(original->output, optimized->output);
    EXPECT_NEAR(original->confidence, optimized->confidence, 1e-12);
    EXPECT_EQ(original->certified_optimal, optimized->certified_optimal);
  }
}

// ---------------------------------------------------------------------------
// Metamorphic properties of the passes themselves.

TEST(OptimizeEquivalenceTest, PruneAndMinimizeAreIdempotent) {
  const uint64_t seed = testing::TestSeed(27105);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    Instance inst = trial % 2 == 0 ? DenseInstance(rng)
                                   : SparseInstance(rng, /*n=*/4);
    transducer::Transducer pruned = optimize::PruneTransducer(inst.t);
    EXPECT_EQ(io::FormatTransducer(optimize::PruneTransducer(pruned)),
              io::FormatTransducer(pruned))
        << "prune not idempotent, trial " << trial;
    optimize::OptimizeStats stats;
    transducer::Transducer minimized =
        optimize::MinimizeTransducer(inst.t, &stats);
    EXPECT_LE(minimized.num_states(), inst.t.num_states());
    optimize::OptimizeStats again;
    EXPECT_EQ(io::FormatTransducer(optimize::MinimizeTransducer(minimized,
                                                                &again)),
              io::FormatTransducer(minimized))
        << "minimize not idempotent, trial " << trial;
    EXPECT_EQ(again.states_unreachable + again.states_dead +
                  again.states_merged,
              0)
        << "second minimize still found work, trial " << trial;
  }
}

TEST(OptimizeEquivalenceTest, PruneNeverChangesAnswerSetOrScores) {
  const uint64_t seed = testing::TestSeed(27106);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst = DenseInstance(rng);
    transducer::Transducer pruned = optimize::PruneTransducer(inst.t);
    // Same lexicographic answer list...
    EXPECT_EQ(query::AllAnswers(inst.mu, pruned),
              query::AllAnswers(inst.mu, inst.t));
    // ...and ground truth agrees answer by answer, bitwise: the per-world
    // probability products are identical factor sequences.
    auto want = testing::BruteForceAnswers(inst.mu, inst.t);
    auto got = testing::BruteForceAnswers(inst.mu, pruned);
    EXPECT_EQ(got.size(), want.size());
    for (const auto& [o, conf] : want) {
      auto it = got.find(o);
      ASSERT_NE(it, got.end());
      EXPECT_EQ(it->second, conf);
    }
  }
}

TEST(OptimizeEquivalenceTest, MinimizePreservesAnswerSetAndScores) {
  const uint64_t seed = testing::TestSeed(27107);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst = DenseInstance(rng);
    transducer::Transducer minimized = optimize::MinimizeTransducer(inst.t);
    EXPECT_EQ(query::AllAnswers(inst.mu, minimized),
              query::AllAnswers(inst.mu, inst.t));
    // Merging equivalent states can reorder max/sum accumulation, so the
    // documented tolerance applies (docs/OPTIMIZE.md): 1e-12 absolute on
    // probabilities (all ≤ 1).
    auto want = testing::BruteForceAnswers(inst.mu, inst.t);
    auto got = testing::BruteForceAnswers(inst.mu, minimized);
    EXPECT_EQ(got.size(), want.size());
    for (const auto& [o, conf] : want) {
      auto it = got.find(o);
      ASSERT_NE(it, got.end());
      EXPECT_NEAR(it->second, conf, 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// The cache-key regression (the bug this PR fixes): CompositionCache used
// to key entries by constraint only, so flipping the optimize knob could
// return a product built under the other setting.

TEST(OptimizeEquivalenceTest, CompositionCacheKeysOptimizationLevel) {
  // A query with an unreachable state and a dead state, so the pruned
  // product is strictly smaller than the raw one and any key collision is
  // visible as a wrong state count.
  Alphabet ab = workload::MakeSymbols(2, "n");
  transducer::Transducer t(ab, ab, 4);
  t.SetInitial(0);
  t.SetAccepting(1);
  ASSERT_TRUE(t.AddTransition(0, 0, 1, {0}).ok());
  ASSERT_TRUE(t.AddTransition(1, 0, 1, {0}).ok());
  ASSERT_TRUE(t.AddTransition(1, 1, 1, {1}).ok());
  ASSERT_TRUE(t.AddTransition(0, 1, 3, {1}).ok());  // 3: reachable, dead
  ASSERT_TRUE(t.AddTransition(2, 0, 1, {0}).ok());  // 2: unreachable

  for (bool optimized_first : {true, false}) {
    transducer::CompositionCache cache(&t);
    ranking::OutputConstraint all = ranking::OutputConstraint::All();
    auto first = cache.Compose(all, optimized_first);
    auto second = cache.Compose(all, !optimized_first);
    auto opt = optimized_first ? first : second;
    auto raw = optimized_first ? second : first;
    EXPECT_LT(opt->num_states(), raw->num_states())
        << "optimized_first=" << optimized_first
        << ": knob crossed the cache";
    // Replays hit their own entries and return the identical objects.
    EXPECT_EQ(cache.Compose(all, true).get(), opt.get());
    EXPECT_EQ(cache.Compose(all, false).get(), raw.get());
    EXPECT_GE(cache.stats().hits, 2);
    // A narrower constraint under both knob settings: both sides must
    // admit exactly the same answers.
    ranking::OutputConstraint narrowed;
    narrowed.prefix = {0};
    narrowed.allow_equal = false;
    auto opt_narrow = cache.Compose(narrowed, true);
    auto raw_narrow = cache.Compose(narrowed, false);
    Str w01 = {0, 0};
    Str w0 = {0};
    EXPECT_EQ(opt_narrow->TransduceAll(w01).empty(),
              raw_narrow->TransduceAll(w01).empty());
    EXPECT_EQ(opt_narrow->TransduceAll(w0).empty(),
              raw_narrow->TransduceAll(w0).empty());
  }
}

TEST(OptimizeEquivalenceTest, FusedProductPruneMatchesComposeThenPrune) {
  // The optimized cache path prunes DURING specialization (the full
  // product is never materialized); this pins it, transducer-for-
  // transducer, to the reference pipeline it fuses: prune the root, run
  // the direct composition, prune the product. Random machines and random
  // constraints, including constraints whose product has an empty
  // language (the canonical one-state prune result).
  const uint64_t seed = testing::TestSeed(27109);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Instance inst = DenseInstance(rng);
    const int out_sigma =
        static_cast<int>(inst.t.output_alphabet().size());
    transducer::Transducer pruned_root = optimize::PruneTransducer(inst.t);
    transducer::CompositionCache cache(&inst.t);
    for (int c = 0; c < 6; ++c) {
      ranking::OutputConstraint constraint;
      const int w = static_cast<int>(rng.UniformInt(0, 3));
      for (int i = 0; i < w; ++i) {
        constraint.prefix.push_back(
            static_cast<Symbol>(rng.UniformInt(0, out_sigma - 1)));
      }
      for (Symbol s = 0; s < static_cast<Symbol>(out_sigma); ++s) {
        if (rng.Bernoulli(0.3)) constraint.excluded_next.insert(s);
      }
      constraint.allow_equal = rng.Bernoulli(0.5);

      transducer::Transducer expected = optimize::PruneTransducer(
          transducer::ComposeWithOutputConstraint(pruned_root, constraint));
      std::shared_ptr<const transducer::Transducer> fused =
          cache.Compose(constraint, true);
      EXPECT_EQ(io::FormatTransducer(*fused), io::FormatTransducer(expected))
          << "constraint " << c << ": fused prune diverged from "
          << "compose-then-prune";
    }
  }
}

}  // namespace
}  // namespace tms
