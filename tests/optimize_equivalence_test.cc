// Differential equivalence harness for the query-automaton optimization
// passes (src/optimize/, docs/OPTIMIZE.md).
//
// The system's headline guarantee is byte-identical ranked streams at
// every thread count and backend, and every engine path prunes the query
// (and the E_max solve cuts each product to its live pairs). This suite byte-compares each engine's
// stream across {dense,sparse,auto} backends × {1,2,8} threads on
// randomized instances (TMS_TEST_SEED-replayable) against an UNPRUNED
// reference: Lawler over the direct composition for E_max, brute-force
// ground truth for the unranked engine. It adds the metamorphic
// properties the passes document:
//   * PruneTransducer and MinimizeTransducer are idempotent;
//   * pruning/minimization never change the answer set, and minimization
//     preserves per-answer scores within the documented 1e-12 tolerance
//     (pruning is exact — bitwise).
// tests/live_product_test.cc pins the live-pair cut of each subspace
// solve to the solve on the built, pruned product.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/engine_options.h"
#include "exec/thread_pool.h"
#include "io/text_format.h"
#include "kernels/backend.h"
#include "optimize/transducer_opt.h"
#include "query/emax.h"
#include "query/engine_factory.h"
#include "query/top_confidence.h"
#include "query/unranked_enum.h"
#include "ranking/lawler.h"
#include "ranking/prefix_constraint.h"
#include "test_util.h"
#include "transducer/compose.h"
#include "workload/random_models.h"

namespace tms {
namespace {

using kernels::BackendChoice;

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
// make unreachable and dead states likely, so the prune actually fires;
// 1-state queries are drawn too (their products are pruned like any
// other).
Instance DenseInstance(Rng& rng) {
  const int sigma = static_cast<int>(rng.UniformInt(2, 3));
  const int n = static_cast<int>(rng.UniformInt(2, 4));
  markov::MarkovSequence mu =
      workload::RandomMarkovSequence(sigma, n, /*support=*/sigma, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = static_cast<int>(rng.UniformInt(1, 5));
  opts.density = 1.0;
  opts.max_emission = 2;
  opts.accept_prob = 0.5;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  return Instance{std::move(mu), std::move(t)};
}

constexpr int kGuard = 40;  // answers drained per stream

std::vector<ranking::ScoredAnswer> DrainStream(ranking::AnswerStream& it) {
  std::vector<ranking::ScoredAnswer> out;
  while (static_cast<int>(out.size()) < kGuard) {
    auto answer = it.Next();
    if (!answer.has_value()) break;
    out.push_back(std::move(*answer));
  }
  return out;
}

std::vector<ranking::ScoredAnswer> Drain(query::EnumeratorKind kind,
                                         const Instance& inst,
                                         BackendChoice backend,
                                         exec::ThreadPool* pool) {
  auto it = query::MakeEnumerator(kind, inst.mu, inst.t,
                                  {.pool = pool, .backend = backend});
  if (!it.ok()) {
    ADD_FAILURE() << "MakeEnumerator: " << it.status();
    return {};
  }
  return DrainStream(**it);
}

// The unpruned E_max reference: Lawler whose solver composes the query as
// given with each constraint (no prune) and runs the dense
// Viterbi on the full product.
std::vector<ranking::ScoredAnswer> ReferenceEmax(const Instance& inst) {
  const query::EmaxContext ctx(inst.mu, BackendChoice::kDense);
  ranking::LawlerEnumerator lawler(
      [&](const ranking::OutputConstraint& c)
          -> std::optional<ranking::ScoredAnswer> {
        auto best =
            ctx.TopAnswer(transducer::ComposeWithOutputConstraint(inst.t, c));
        if (!best.has_value()) return std::nullopt;
        return ranking::ScoredAnswer{std::move(best->output), best->prob};
      });
  return DrainStream(lawler);
}

// The unranked reference: every answer of the brute-force ground truth,
// in lexicographic (map) order, scored 0.0 like the engine's.
std::vector<ranking::ScoredAnswer> ReferenceUnranked(const Instance& inst) {
  std::vector<ranking::ScoredAnswer> out;
  for (const auto& [answer, confidence] :
       testing::BruteForceAnswers(inst.mu, inst.t)) {
    if (static_cast<int>(out.size()) == kGuard) break;
    out.push_back(ranking::ScoredAnswer{answer, 0.0});
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

// The full differential sweep for one engine kind: every (backend,
// threads) combination must reproduce the unpruned reference byte for
// byte.
void SweepEngine(query::EnumeratorKind kind, const Instance& inst,
                 const std::vector<ranking::ScoredAnswer>& reference,
                 const std::string& regime) {
  for (BackendChoice backend :
       {BackendChoice::kDense, BackendChoice::kSparse, BackendChoice::kAuto}) {
    for (int threads : {1, 2, 8}) {
      std::optional<exec::ThreadPool> pool;
      if (threads > 1) pool.emplace(threads - 1);
      ExpectSameStream(Drain(kind, inst, backend, pool ? &*pool : nullptr),
                       reference,
                       regime + " engine=" + query::EnumeratorKindName(kind) +
                           " states=" + std::to_string(inst.t.num_states()) +
                           " backend=" + kernels::BackendChoiceName(backend) +
                           " threads=" + std::to_string(threads));
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
      SweepEngine(query::EnumeratorKind::kEmax, inst, ReferenceEmax(inst),
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
                  ReferenceUnranked(inst),
                  sparse_regime ? "sparse-regime" : "dense-regime");
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

}  // namespace
}  // namespace tms
