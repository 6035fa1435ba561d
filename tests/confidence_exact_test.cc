// The general exact-confidence DP (query/confidence_exact.h) on the
// instances its bitset pair-sets must get right. The Theorem 4.9 hardness
// family pins the DP's ExactConfidenceStats, so any rewrite has to walk
// the same generalized subset construction. Random instances with more
// than 64 reachable (state, output-position) pairs, whose pair-sets span
// several words, are checked against the two polynomial algorithms that
// apply to them: Theorem 4.6 on deterministic transducers and Theorem 4.8
// on uniform NFAs. Run with `ctest -L robustness`; seeds obey
// TMS_TEST_SEED (see testing::TestSeed).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "query/confidence.h"
#include "query/confidence_exact.h"
#include "reductions/dnf2.h"
#include "test_util.h"
#include "workload/random_models.h"

namespace tms {
namespace {

// The (q, j) pairs reachable from (initial, 0) by runs whose emissions
// spell a prefix of o, counted independently of the DP under test.
int ReachablePairs(const transducer::Transducer& t, const Str& o) {
  const size_t jdim = o.size() + 1;
  std::vector<bool> seen(static_cast<size_t>(t.num_states()) * jdim, false);
  std::vector<std::pair<automata::StateId, size_t>> frontier = {
      {t.initial(), 0}};
  seen[static_cast<size_t>(t.initial()) * jdim] = true;
  for (size_t next = 0; next < frontier.size(); ++next) {
    const auto [q, j] = frontier[next];
    for (size_t s = 0; s < t.input_alphabet().size(); ++s) {
      for (const transducer::Edge& e : t.Next(q, static_cast<Symbol>(s))) {
        if (j + e.output.size() > o.size() ||
            !std::equal(e.output.begin(), e.output.end(),
                        o.begin() + static_cast<std::ptrdiff_t>(j))) {
          continue;
        }
        const size_t j2 = j + e.output.size();
        const size_t at = static_cast<size_t>(e.target) * jdim + j2;
        if (!seen[at]) {
          seen[at] = true;
          frontier.emplace_back(e.target, j2);
        }
      }
    }
  }
  return static_cast<int>(frontier.size());
}

// The 1e-12 relative tolerance docs/OPTIMIZE.md sets for confidences.
void ExpectRelNear(double actual, double expected) {
  EXPECT_LE(std::abs(actual - expected), 1e-12 * std::abs(expected))
      << "actual " << actual << ", expected " << expected;
}

TEST(ConfidenceExactTest, HardnessFamilyWalksThePinnedDp) {
  // bench_confidence_hardness's E4 table: Rng(23), sizes 2..6 in order.
  struct Pinned {
    int64_t max_layer_width;
    int64_t total_entries;
  };
  const Pinned pinned[] = {
      {9, 20}, {36, 83}, {105, 274}, {235, 742}, {478, 2058}};
  Rng rng(23);
  for (int size = 2; size <= 6; ++size) {
    SCOPED_TRACE("size " + std::to_string(size));
    reductions::Dnf2Formula f = reductions::Dnf2Formula::Random(
        size, size, std::min(size * size, 2 * size), rng);
    auto instance = reductions::Dnf2CountingInstance(f);
    ASSERT_TRUE(instance.ok()) << instance.status();
    query::ExactConfidenceStats stats;
    auto conf = query::ConfidenceExact(instance->mu, instance->t,
                                       instance->answer, &stats);
    ASSERT_TRUE(conf.ok()) << conf.status();
    EXPECT_EQ(stats.max_layer_width, pinned[size - 2].max_layer_width);
    EXPECT_EQ(stats.total_entries, pinned[size - 2].total_entries);
    // The confidence is #SAT(φ) / 2^{p+q}.
    ExpectRelNear(*conf, f.BruteForceCount().ToDouble() /
                             std::ldexp(1.0, f.num_x + f.num_y));
    if (size <= 4) {
      // The exact-rational twin walks the same DP.
      ASSERT_TRUE(instance->mu.has_exact());
      query::ExactConfidenceStats exact_stats;
      auto exact = query::ConfidenceExactRational(
          instance->mu, instance->t, instance->answer, &exact_stats);
      ASSERT_TRUE(exact.ok()) << exact.status();
      EXPECT_EQ(exact_stats.max_layer_width, stats.max_layer_width);
      EXPECT_EQ(exact_stats.total_entries, stats.total_entries);
      ExpectRelNear(exact->ToDouble(), *conf);
    }
  }
}

TEST(ConfidenceExactTest, WidePairSetsMatchTheDeterministicDp) {
  const uint64_t seed = testing::TestSeed(14);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  // One output symbol keeps every run on a prefix of o until it
  // overshoots, so most of the 8 × 15 pairs are reachable.
  const Str o(14, 0);
  int wide = 0;
  int nonzero = 0;
  for (int attempt = 0; attempt < 60 && wide < 20; ++attempt) {
    markov::MarkovSequence mu = workload::RandomMarkovSequence(3, 12, 3, rng);
    workload::RandomTransducerOptions opts;
    opts.num_states = 8;
    opts.deterministic = true;
    opts.max_emission = 2;
    opts.output_symbols = 1;
    transducer::Transducer t =
        workload::RandomTransducer(mu.nodes(), opts, rng);
    if (ReachablePairs(t, o) <= 64) continue;
    ++wide;
    auto exact = query::ConfidenceExact(mu, t, o);
    auto oracle = query::ConfidenceDeterministic(mu, t, o);
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ExpectRelNear(*exact, *oracle);
    if (*oracle > 0.0) ++nonzero;
  }
  EXPECT_EQ(wide, 20);
  EXPECT_GE(nonzero, 10);
}

TEST(ConfidenceExactTest, WidePairSetsMatchTheUniformSubsetDp) {
  const uint64_t seed = testing::TestSeed(41);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  // 1-uniform emission: an accepted world of length 12 emits exactly o.
  const Str o(12, 0);
  int wide = 0;
  int nonzero = 0;
  for (int attempt = 0; attempt < 60 && wide < 20; ++attempt) {
    markov::MarkovSequence mu = workload::RandomMarkovSequence(3, 12, 3, rng);
    workload::RandomTransducerOptions opts;
    opts.num_states = 8;
    opts.density = 2.0;
    opts.uniform_k = 1;
    opts.output_symbols = 1;
    transducer::Transducer t =
        workload::RandomTransducer(mu.nodes(), opts, rng);
    if (t.IsDeterministic() || ReachablePairs(t, o) <= 64) continue;
    ++wide;
    auto exact = query::ConfidenceExact(mu, t, o);
    auto oracle = query::ConfidenceUniformSubset(mu, t, o);
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ExpectRelNear(*exact, *oracle);
    if (*oracle > 0.0) ++nonzero;
  }
  EXPECT_EQ(wide, 20);
  EXPECT_GE(nonzero, 10);
}

}  // namespace
}  // namespace tms
