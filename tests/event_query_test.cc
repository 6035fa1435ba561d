#include "db/event_query.h"

#include <gtest/gtest.h>

#include "automata/regex.h"
#include "common/rng.h"
#include "markov/world_iter.h"
#include "workload/random_models.h"

namespace tms::db {
namespace {

// Brute-force Pr(S_[1,t] ∈ L) via prefix-marginalized world enumeration.
std::vector<double> BrutePrefixSeries(const markov::MarkovSequence& mu,
                                      const automata::Dfa& dfa,
                                      bool fired_semantics) {
  const int n = mu.length();
  std::vector<double> series(static_cast<size_t>(n), 0.0);
  markov::ForEachWorld(mu, [&](const Str& w, double p) {
    bool fired = false;
    for (int t = 1; t <= n; ++t) {
      Str prefix(w.begin(), w.begin() + t);
      bool accepted = dfa.Accepts(prefix);
      fired = fired || accepted;
      if (fired_semantics ? fired : accepted) {
        series[static_cast<size_t>(t - 1)] += p;
      }
    }
  });
  return series;
}

TEST(EventQueryTest, PrefixSeriesMatchesBruteForce) {
  Rng rng(801);
  for (int trial = 0; trial < 15; ++trial) {
    markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 5, 2, rng);
    automata::Dfa dfa = workload::RandomDfa(mu.nodes(), 3, rng, 0.4);
    auto got = PrefixAcceptanceSeries(mu, dfa);
    auto expected = BrutePrefixSeries(mu, dfa, /*fired_semantics=*/false);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_NEAR(got[t], expected[t], 1e-9) << "t=" << t;
    }
  }
}

TEST(EventQueryTest, FiredSeriesMatchesBruteForceAndIsMonotone) {
  Rng rng(803);
  for (int trial = 0; trial < 15; ++trial) {
    markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 5, 2, rng);
    automata::Dfa dfa = workload::RandomDfa(mu.nodes(), 3, rng, 0.4);
    auto got = EventFiredSeries(mu, dfa);
    auto expected = BrutePrefixSeries(mu, dfa, /*fired_semantics=*/true);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_NEAR(got[t], expected[t], 1e-9) << "t=" << t;
      if (t > 0) {
        EXPECT_GE(got[t] + 1e-12, got[t - 1]) << "fired series not monotone";
      }
    }
  }
}

TEST(EventQueryTest, KnownSeries) {
  // Event "saw node n1": under an iid fair chain, fired-by-t = 1 - 2^{-t}.
  Rng rng(805);
  Alphabet nodes = workload::MakeSymbols(2, "n");
  std::vector<double> initial = {0.5, 0.5};
  std::vector<std::vector<double>> transitions(3, {0.5, 0.5, 0.5, 0.5});
  auto mu = markov::MarkovSequence::Create(nodes, initial, transitions);
  ASSERT_TRUE(mu.ok());
  auto saw_n1 = automata::CompileRegexToDfa(nodes, ". * n1 . *");
  ASSERT_TRUE(saw_n1.ok());
  auto series = EventFiredSeries(*mu, *saw_n1);
  ASSERT_EQ(series.size(), 4u);
  for (int t = 1; t <= 4; ++t) {
    EXPECT_NEAR(series[static_cast<size_t>(t - 1)],
                1.0 - std::pow(0.5, t), 1e-12);
  }
  // For this suffix-closed event, prefix-acceptance == fired semantics.
  auto prefix = PrefixAcceptanceSeries(*mu, *saw_n1);
  for (size_t t = 0; t < series.size(); ++t) {
    EXPECT_NEAR(prefix[t], series[t], 1e-12);
  }
}

TEST(EventQueryTest, CollectionSeries) {
  Rng rng(807);
  Alphabet nodes = workload::MakeSymbols(2, "n");
  SequenceCollection c(nodes);
  for (int i = 0; i < 3; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    ASSERT_TRUE(
        c.Insert(key, workload::RandomMarkovSequence(2, 4, 2, rng)).ok());
  }
  auto dfa = automata::CompileRegexToDfa(nodes, ". * n0");
  ASSERT_TRUE(dfa.ok());
  auto series = CollectionEventSeries(c, *dfa);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->size(), 3u);
  for (const auto& [key, s] : *series) {
    EXPECT_EQ(s.size(), 4u);
    EXPECT_EQ(s, EventFiredSeries(**c.Get(key), *dfa));
  }
  // Alphabet mismatch rejected.
  Alphabet other = workload::MakeSymbols(3, "x");
  EXPECT_FALSE(
      CollectionEventSeries(c, automata::Dfa::AcceptAll(other)).ok());
}

}  // namespace
}  // namespace tms::db
