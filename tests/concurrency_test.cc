// Determinism and safety of the parallel enumeration paths: byte-identical
// output at every thread count, the composition cache's differential
// correctness and LRU accounting, the finite-score boundary of the Lawler
// engine, and the shared-state ownership rules of query/emax_enum.h.
//
// These tests carry the ctest label `concurrency`; run them under
// ThreadSanitizer with -DTMS_SANITIZE=thread and `ctest -L concurrency`.

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "exec/thread_pool.h"
#include "optimize/transducer_opt.h"
#include "projector/imax_enum.h"
#include "projector/sprojector.h"
#include "query/emax_enum.h"
#include "ranking/lawler.h"
#include "ranking/prefix_constraint.h"
#include "test_util.h"
#include "transducer/compose.h"
#include "transducer/composition_cache.h"
#include "transducer/transducer.h"
#include "workload/random_models.h"

namespace tms {
namespace {

using query::EmaxEnumerator;
using ranking::OutputConstraint;
using ranking::ScoredAnswer;
using transducer::CompositionCache;
using transducer::Transducer;

// ---------------------------------------------------------------------------
// Byte-identical parallel enumeration.

markov::MarkovSequence RandomMu(Rng& rng, int n = 6) {
  return workload::RandomMarkovSequence(3, n, 2, rng);
}

Transducer RandomT(const Alphabet& nodes, Rng& rng) {
  workload::RandomTransducerOptions opts;
  opts.num_states = 3;
  opts.max_emission = 2;
  opts.output_symbols = 2;
  opts.deterministic = rng.Bernoulli(0.5);
  return workload::RandomTransducer(nodes, opts, rng);
}

std::vector<ScoredAnswer> DrainEmax(const markov::MarkovSequence& mu,
                                    const Transducer& t,
                                    exec::ThreadPool* pool, int limit = 200) {
  EmaxEnumerator it(mu, t, {.pool = pool});
  std::vector<ScoredAnswer> out;
  while (static_cast<int>(out.size()) < limit) {
    auto answer = it.Next();
    if (!answer.has_value()) break;
    out.push_back(std::move(*answer));
  }
  return out;
}

// Exact comparison — same outputs, same score *bits* — so any
// nondeterministic merge or racy float path fails loudly.
void ExpectIdenticalStreams(const std::vector<ScoredAnswer>& a,
                            const std::vector<ScoredAnswer>& b,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].output, b[i].output) << label << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << label << " rank " << i;
  }
}

TEST(ParallelEmaxTest, ByteIdenticalAtEveryThreadCount) {
  Rng rng(2026);
  exec::ThreadPool pool2(1);  // --threads=2
  exec::ThreadPool pool8(7);  // --threads=8
  for (int trial = 0; trial < 10; ++trial) {
    markov::MarkovSequence mu = RandomMu(rng);
    Transducer t = RandomT(mu.nodes(), rng);
    std::vector<ScoredAnswer> seq = DrainEmax(mu, t, nullptr);
    ExpectIdenticalStreams(seq, DrainEmax(mu, t, &pool2),
                           "threads=2 trial " + std::to_string(trial));
    ExpectIdenticalStreams(seq, DrainEmax(mu, t, &pool8),
                           "threads=8 trial " + std::to_string(trial));
  }
}

TEST(ParallelEmaxTest, SharedCacheAcrossEnumerationsStaysIdentical) {
  Rng rng(7);
  markov::MarkovSequence mu = RandomMu(rng);
  Transducer t = RandomT(mu.nodes(), rng);
  std::vector<ScoredAnswer> fresh = DrainEmax(mu, t, nullptr);

  CompositionCache cache(t);
  exec::ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    EmaxEnumerator it(mu, t, {.pool = &pool, .cache = &cache});
    std::vector<ScoredAnswer> got;
    while (auto answer = it.Next()) got.push_back(std::move(*answer));
    ExpectIdenticalStreams(fresh, got, "round " + std::to_string(round));
  }
  // Later rounds replay compositions the first round built.
  EXPECT_GT(cache.stats().hits, 0);
}

TEST(ParallelImaxTest, ByteIdenticalAtEveryThreadCount) {
  Rng rng(31);
  exec::ThreadPool pool2(1);
  exec::ThreadPool pool8(7);
  for (int trial = 0; trial < 6; ++trial) {
    markov::MarkovSequence mu = RandomMu(rng, 5);
    auto p = projector::SProjector::Create(
        workload::RandomDfa(mu.nodes(), 2, rng, 0.6),
        workload::RandomDfa(mu.nodes(), 2, rng, 0.6),
        workload::RandomDfa(mu.nodes(), 2, rng, 0.6));
    ASSERT_TRUE(p.ok());
    auto drain = [&mu, &p](exec::ThreadPool* pool) {
      auto it = projector::ImaxEnumerator::Create(&mu, &*p, {.pool = pool});
      EXPECT_TRUE(it.ok());
      std::vector<ScoredAnswer> out;
      while (auto answer = it->Next()) out.push_back(std::move(*answer));
      return out;
    };
    std::vector<ScoredAnswer> seq = drain(nullptr);
    ExpectIdenticalStreams(seq, drain(&pool2),
                           "imax threads=2 trial " + std::to_string(trial));
    ExpectIdenticalStreams(seq, drain(&pool8),
                           "imax threads=8 trial " + std::to_string(trial));
  }
}

// ---------------------------------------------------------------------------
// CompositionCache: differential correctness, hit accounting, eviction.

void ExpectSameTransducer(const Transducer& want, const Transducer& got) {
  ASSERT_EQ(want.num_states(), got.num_states());
  EXPECT_EQ(want.initial(), got.initial());
  ASSERT_TRUE(want.input_alphabet() == got.input_alphabet());
  ASSERT_TRUE(want.output_alphabet() == got.output_alphabet());
  const int sigma = static_cast<int>(want.input_alphabet().size());
  for (int q = 0; q < want.num_states(); ++q) {
    EXPECT_EQ(want.IsAccepting(q), got.IsAccepting(q)) << "state " << q;
    for (Symbol s = 0; s < sigma; ++s) {
      const auto& we = want.Next(q, s);
      const auto& ge = got.Next(q, s);
      ASSERT_EQ(we.size(), ge.size()) << "q=" << q << " s=" << s;
      for (size_t e = 0; e < we.size(); ++e) {
        EXPECT_EQ(we[e].target, ge[e].target) << "q=" << q << " s=" << s;
        EXPECT_EQ(we[e].output, ge[e].output) << "q=" << q << " s=" << s;
      }
    }
  }
}

// What the cache returns for (t, c): the product of the pruned query,
// pruned (the expression that
// OptimizeEquivalenceTest.FusedProductPruneMatchesComposeThenPrune pins).
Transducer PrunedProduct(const Transducer& t, const OutputConstraint& c) {
  return optimize::PruneTransducer(
      ComposeWithOutputConstraint(optimize::PruneTransducer(t), c));
}

TEST(CompositionCacheTest, MatchesDirectCompositionOnLawlerConstraints) {
  Rng rng(404);
  for (int trial = 0; trial < 8; ++trial) {
    markov::MarkovSequence mu = RandomMu(rng, 5);
    Transducer t = RandomT(mu.nodes(), rng);
    CompositionCache cache(t);

    // The constraints that actually occur: the root and every PartitionAfter
    // child of the answers the enumeration produces.
    std::vector<OutputConstraint> constraints = {OutputConstraint::All()};
    EmaxEnumerator it(mu, t);
    int answers = 0;
    while (auto answer = it.Next()) {
      if (++answers > 12) break;
      for (OutputConstraint& c :
           OutputConstraint::All().PartitionAfter(answer->output)) {
        constraints.push_back(std::move(c));
      }
    }
    for (const OutputConstraint& c : constraints) {
      auto cached = cache.Compose(c);
      ASSERT_NE(cached, nullptr);
      ExpectSameTransducer(PrunedProduct(t, c), *cached);
      // Second lookup returns the same object, not a rebuild.
      EXPECT_EQ(cache.Compose(c).get(), cached.get());
    }
  }
}

TEST(CompositionCacheTest, CountsHitsAndMisses) {
  Rng rng(9);
  markov::MarkovSequence mu = RandomMu(rng, 4);
  Transducer t = RandomT(mu.nodes(), rng);
  CompositionCache cache(t);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);

  OutputConstraint c;
  c.prefix = {0};
  c.excluded_next = {1};
  cache.Compose(c);
  // Miss on the specialization and on the level-1 prefix base.
  const int64_t first_misses = cache.stats().misses;
  EXPECT_GE(first_misses, 2);
  EXPECT_GT(cache.stats().bytes, 0u);

  cache.Compose(c);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, first_misses);

  // Same prefix, different excluded set: the level-1 base is reused.
  OutputConstraint sibling = c;
  sibling.excluded_next = {0};
  cache.Compose(sibling);
  EXPECT_EQ(cache.stats().hits, 2);  // base hit
  EXPECT_EQ(cache.stats().misses, first_misses + 1);
}

TEST(CompositionCacheTest, EvictsUnderTinyBudgetAndStaysCorrect) {
  Rng rng(11);
  markov::MarkovSequence mu = RandomMu(rng, 6);
  Transducer t = RandomT(mu.nodes(), rng);
  CompositionCache cache(t, /*max_bytes=*/1024);

  std::vector<OutputConstraint> constraints;
  for (Symbol a = 0; a < 2; ++a) {
    for (Symbol b = 0; b < 2; ++b) {
      OutputConstraint c;
      c.prefix = {a, b};
      c.excluded_next = {a};
      c.allow_equal = (a != b);
      constraints.push_back(c);
    }
  }
  // Cycle through enough distinct compositions to blow the 1 KiB budget
  // repeatedly; every result must still match the pruned composition.
  for (int round = 0; round < 3; ++round) {
    for (const OutputConstraint& c : constraints) {
      auto cached = cache.Compose(c);
      ExpectSameTransducer(PrunedProduct(t, c), *cached);
    }
  }
  EXPECT_GT(cache.stats().evictions, 0);
  // The budget may be overshot only while a single oversized entry is
  // pinned; with several small entries it must be enforced.
  EXPECT_LE(cache.stats().bytes, size_t{64} << 10);
}

// ---------------------------------------------------------------------------
// Lawler boundary: non-finite scores must not enter the heap.

TEST(LawlerBoundaryTest, NanScoredSubspacesAreSkipped) {
  // Candidate answers: "0" with score 0.5, "1" with score NaN. The NaN
  // subspace is rejected at the boundary instead of corrupting EntryLess.
  auto solver =
      [](const OutputConstraint& c) -> std::optional<ScoredAnswer> {
    if (c.Admits({0})) return ScoredAnswer{{0}, 0.5};
    if (c.Admits({1})) {
      return ScoredAnswer{{1}, std::numeric_limits<double>::quiet_NaN()};
    }
    return std::nullopt;
  };
  ranking::LawlerEnumerator it(solver);
  auto first = it.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->output, Str({0}));
  EXPECT_EQ(first->score, 0.5);
  // Every remaining subspace resolves to the NaN answer → exhausted, and
  // the enumeration terminates instead of looping or crashing.
  EXPECT_FALSE(it.Next().has_value());
  EXPECT_FALSE(it.Next().has_value());
}

TEST(LawlerBoundaryTest, InfiniteScoresAreSkippedToo) {
  auto solver =
      [](const OutputConstraint& c) -> std::optional<ScoredAnswer> {
    if (c.Admits({0})) return ScoredAnswer{{0}, 0.25};
    if (c.Admits({1})) {
      return ScoredAnswer{{1}, std::numeric_limits<double>::infinity()};
    }
    return std::nullopt;
  };
  ranking::LawlerEnumerator it(solver);
  auto first = it.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->output, Str({0}));
  EXPECT_FALSE(it.Next().has_value());
}

// ---------------------------------------------------------------------------
// Ownership: the solver state must not dangle.

TEST(OwnershipTest, OwnedInputsOutliveTheCallersOriginals) {
  Rng rng(55);
  markov::MarkovSequence mu = RandomMu(rng);
  Transducer t = RandomT(mu.nodes(), rng);
  std::vector<ScoredAnswer> want = DrainEmax(mu, t, nullptr);

  std::optional<EmaxEnumerator> it;
  {
    // Copies die at the end of this scope; the enumerator must keep its
    // own. (The old borrow-only enumerator's solver lambda captured the
    // caller's references and would read freed memory here.)
    markov::MarkovSequence mu_copy = mu;
    Transducer t_copy = t;
    it.emplace(EmaxEnumerator::WithOwnedInputs(std::move(mu_copy),
                                               std::move(t_copy)));
  }
  std::vector<ScoredAnswer> got;
  while (auto answer = it->Next()) got.push_back(std::move(*answer));
  ExpectIdenticalStreams(want, got, "owned inputs");
}

TEST(OwnershipTest, EnumeratorIsMovable) {
  Rng rng(56);
  markov::MarkovSequence mu = RandomMu(rng);
  Transducer t = RandomT(mu.nodes(), rng);
  std::vector<ScoredAnswer> want = DrainEmax(mu, t, nullptr);

  EmaxEnumerator a(mu, t);
  if (!want.empty()) {
    auto first = a.Next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->output, want[0].output);
  }
  EmaxEnumerator b = std::move(a);  // mid-stream move keeps solver state
  std::vector<ScoredAnswer> rest;
  while (auto answer = b.Next()) rest.push_back(std::move(*answer));
  ASSERT_EQ(rest.size() + (want.empty() ? 0 : 1), want.size());
  for (size_t i = 0; i < rest.size(); ++i) {
    EXPECT_EQ(rest[i].output, want[i + 1].output);
    EXPECT_EQ(rest[i].score, want[i + 1].score);
  }
}

// ---------------------------------------------------------------------------
// BatchEvaluator: identical to the sequential collection scan.

TEST(BatchEvaluatorTest, MatchesSequentialTopKPerSequence) {
  Rng rng(77);
  markov::MarkovSequence seed = RandomMu(rng, 5);
  db::SequenceCollection collection(seed.nodes());
  ASSERT_TRUE(collection.Insert("cart-a", seed).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(collection
                    .Insert("cart-" + std::to_string(i),
                            workload::RandomMarkovSequence(3, 4 + i, 2, rng))
                    .ok());
  }
  Transducer t = RandomT(collection.nodes(), rng);

  auto want = collection.TopKPerSequence(t, 3);
  ASSERT_TRUE(want.ok());

  for (int threads : {1, 2, 8}) {
    db::BatchEvaluator::Options options;
    options.threads = threads;
    auto batch = db::BatchEvaluator::Create(&collection, &t, options);
    ASSERT_TRUE(batch.ok());
    auto got = testing::BatchRows(batch->EvaluateAll(3));
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_EQ(got->size(), want->size()) << "threads=" << threads;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].key, (*want)[i].key) << "threads=" << threads;
      EXPECT_EQ((*got)[i].answer.output, (*want)[i].answer.output);
      EXPECT_EQ((*got)[i].answer.emax, (*want)[i].answer.emax);
      EXPECT_EQ((*got)[i].answer.confidence, (*want)[i].answer.confidence);
    }
    if (threads > 1) {
      // The shared cache pays off across sequences: after the first
      // sequence warms it, later ones hit.
      EXPECT_GT(batch->cache_stats().hits, 0);
    }
  }
}

TEST(BatchEvaluatorTest, RejectsAlphabetMismatch) {
  Rng rng(78);
  markov::MarkovSequence mu = RandomMu(rng, 4);
  db::SequenceCollection collection(mu.nodes());
  ASSERT_TRUE(collection.Insert("only", mu).ok());
  markov::MarkovSequence foreign = workload::RandomMarkovSequence(4, 3, 2, rng);
  Transducer t = RandomT(foreign.nodes(), rng);
  if (!(t.input_alphabet() == collection.nodes())) {
    EXPECT_FALSE(db::BatchEvaluator::Create(&collection, &t).ok());
  }
  EXPECT_FALSE(db::BatchEvaluator::Create(nullptr, &t).ok());
  EXPECT_FALSE(db::BatchEvaluator::Create(&collection, nullptr).ok());
}

}  // namespace
}  // namespace tms
