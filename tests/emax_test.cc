#include "query/emax.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "test_util.h"
#include "workload/random_models.h"
#include "workload/running_example.h"

namespace tms::query {
namespace {

TEST(EmaxTest, RunningExampleValues) {
  markov::MarkovSequence mu = workload::Figure1Sequence();
  transducer::Transducer fig2 = workload::Figure2Transducer();
  const Alphabet& out = fig2.output_alphabet();
  // Example 4.2: E_max(12) = 0.3969, witnessed by world s.
  auto emax12 = EmaxOfAnswer(mu, fig2, *ParseStr(out, "1 2"));
  ASSERT_TRUE(emax12.has_value());
  EXPECT_NEAR(emax12->prob, 0.3969, 1e-12);
  EXPECT_EQ(FormatStr(mu.nodes(), emax12->world), "r1a la la r1a r2a");
  // Non-answer.
  EXPECT_FALSE(EmaxOfAnswer(mu, fig2, *ParseStr(out, "λ")).has_value());
}

TEST(EmaxTest, TopAnswerOnRunningExample) {
  markov::MarkovSequence mu = workload::Figure1Sequence();
  transducer::Transducer fig2 = workload::Figure2Transducer();
  auto top = TopAnswerByEmax(mu, fig2);
  ASSERT_TRUE(top.has_value());
  // The most probable accepted world is s (0.3969), transduced to 12.
  EXPECT_NEAR(top->prob, 0.3969, 1e-12);
  EXPECT_EQ(FormatStrCompact(fig2.output_alphabet(), top->output), "12");
  EXPECT_NEAR(mu.WorldProbability(top->world), top->prob, 1e-12);
  EXPECT_TRUE(fig2.Transduces(top->world, top->output));
}

TEST(EmaxTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(83);
  for (int trial = 0; trial < 25; ++trial) {
    markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 4, 2, rng);
    workload::RandomTransducerOptions opts;
    opts.num_states = 3;
    opts.max_emission = 2;
    opts.deterministic = rng.Bernoulli(0.5);
    transducer::Transducer t =
        workload::RandomTransducer(mu.nodes(), opts, rng);
    auto answers = testing::BruteForceAnswers(mu, t);

    // Per-answer E_max.
    for (const auto& [o, conf] : answers) {
      double expected = testing::BruteForceEmax(mu, t, o);
      auto got = EmaxOfAnswer(mu, t, o);
      ASSERT_TRUE(got.has_value());
      EXPECT_NEAR(got->prob, expected, 1e-9);
      // The witness world really is evidence.
      EXPECT_TRUE(t.Transduces(got->world, o));
      EXPECT_NEAR(mu.WorldProbability(got->world), got->prob, 1e-9);
      // E_max lower-bounds confidence.
      EXPECT_LE(got->prob, conf + 1e-12);
    }

    // Global top answer.
    auto top = TopAnswerByEmax(mu, t);
    if (answers.empty()) {
      EXPECT_FALSE(top.has_value());
    } else {
      ASSERT_TRUE(top.has_value());
      double best = 0;
      for (const auto& [o, conf] : answers) {
        best = std::max(best, testing::BruteForceEmax(mu, t, o));
      }
      EXPECT_NEAR(top->prob, best, 1e-9);
      EXPECT_TRUE(t.Transduces(top->world, top->output));
    }
  }
}

// E_max(o) rendered as "world | prob", prob as %.17g; "none" for nullopt.
std::string RenderEvidence(const markov::MarkovSequence& mu,
                           const std::optional<Evidence>& ev) {
  if (!ev.has_value()) return "none";
  char prob[32];
  std::snprintf(prob, sizeof(prob), "%.17g", ev->prob);
  return FormatStr(mu.nodes(), ev->world) + " | " + prob;
}

// The witness world and the bits of E_max(o) are pinned over tied chains
// (probabilities exactly 1/2 and 1/4, so the tie-break picks the world),
// random chains, deterministic and nondeterministic queries with 0–2-symbol
// emissions, and Figure 1/Figure 2. The pinned lines were captured from the
// scalar (node, state, matched-length) DP's first-strict-max rule.
TEST(EmaxTest, EmaxOfAnswerWitnessesArePinned) {
  std::vector<std::string> got;
  {
    markov::MarkovSequence mu = workload::Figure1Sequence();
    transducer::Transducer fig2 = workload::Figure2Transducer();
    for (const auto& [o, conf] : testing::BruteForceAnswers(mu, fig2)) {
      got.push_back(RenderEvidence(mu, EmaxOfAnswer(mu, fig2, o)));
    }
  }
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    markov::MarkovSequence mu =
        trial < 6 ? testing::TiedChain(4, 5, rng)
                  : workload::RandomMarkovSequence(3, 4, 2, rng);
    workload::RandomTransducerOptions opts;
    opts.num_states = 3;
    opts.deterministic = trial % 2 == 0;
    opts.max_emission = 2;
    opts.output_symbols = 2;
    transducer::Transducer t =
        workload::RandomTransducer(mu.nodes(), opts, rng);
    int taken = 0;
    for (const auto& [o, conf] : testing::BruteForceAnswers(mu, t)) {
      if (taken++ == 4) break;
      got.push_back(RenderEvidence(mu, EmaxOfAnswer(mu, t, o)));
    }
    // One string no run emits: no witness.
    got.push_back(RenderEvidence(mu, EmaxOfAnswer(mu, t, Str(9, Symbol{0}))));
  }
  const std::vector<std::string> pinned = {
      "r1a la la la la | 0.11340000000000001",
      "r1a la la r1a r2a | 0.39689999999999998",
      "la r1b la la la | 0.0035999999999999999",
      "la r1b la r1a r2a | 0.0126",
      "r1a la r2a r1b r1b | 0.0315",
      "r1a la r2a r1b lb | 0.0315",
      "n3 n2 n3 n2 n1 | 0.03125",
      "n3 n2 n1 n3 n1 | 0.015625000000000007",
      "n1 n2 n1 n3 n1 | 0.0078125000000000017",
      "n1 n2 n1 n0 n1 | 0.0078125000000000017",
      "none",
      "n2 n1 n2 n2 n1 | 0.0039062500000000009",
      "n2 n1 n1 n2 n1 | 0.0039062500000000009",
      "n2 n1 n3 n1 n1 | 0.0078125000000000017",
      "n1 n1 n3 n1 n1 | 0.0078125000000000017",
      "none",
      "n2 n0 n2 n2 n2 | 0.001953125",
      "n2 n1 n2 n2 n2 | 0.001953125",
      "n2 n2 n1 n1 n0 | 0.015625000000000007",
      "n2 n2 n1 n3 n2 | 0.015625000000000007",
      "none",
      "n2 n3 n2 n2 n1 | 0.015625000000000007",
      "n2 n2 n1 n2 n1 | 0.0078125000000000017",
      "n2 n3 n0 n2 n1 | 0.015625000000000007",
      "n2 n2 n2 n2 n1 | 0.015625000000000007",
      "none",
      "n0 n0 n3 n1 n2 | 0.015625000000000007",
      "n0 n0 n3 n2 n0 | 0.0078125000000000017",
      "n0 n0 n2 n1 n2 | 0.015625000000000007",
      "n0 n0 n3 n0 n3 | 0.015625000000000007",
      "none",
      "n3 n2 n1 n1 n1 | 0.015625000000000007",
      "n3 n2 n1 n1 n1 | 0.015625000000000007",
      "n3 n2 n1 n2 n0 | 0.015625000000000007",
      "n1 n1 n2 n2 n0 | 0.0078125000000000017",
      "none",
      "n2 n1 n1 n0 | 0.1554754171217877",
      "n1 n0 n0 n2 | 0.094981985504673835",
      "n1 n0 n0 n1 | 0.0032786163275935693",
      "n1 n2 n2 n0 | 0.00018542332640622197",
      "none",
      "n2 n2 n0 n0 | 0.32617396927480274",
      "n2 n2 n0 n1 | 0.0040700620578878917",
      "n2 n1 n0 n0 | 0.12520268768653497",
      "n2 n1 n0 n1 | 0.0015623034230215611",
      "none",
      "n1 n0 n0 n1 | 0.019743895692811098",
      "n1 n1 n2 n1 | 0.0073778044920748635",
      "n2 n1 n2 n1 | 0.011976519095422621",
      "n2 n2 n2 n1 | 0.0046369094185375491",
      "none",
      "n2 n2 n2 n0 | 0.044735598740385303",
      "n2 n0 n2 n0 | 0.093043371272860956",
      "n2 n0 n2 n1 | 0.089140418528556489",
      "n2 n0 n1 n1 | 0.074823355800205313",
      "none",
  };
  ASSERT_EQ(got.size(), pinned.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], pinned[i]) << "triple " << i;
  }
}

TEST(EmaxTest, LongSequenceNoUnderflow) {
  // n = 2000 with per-step probability 0.5 underflows linear doubles; the
  // log-domain Viterbi must still return a finite positive log score.
  const int n = 2000;
  Alphabet nodes = *Alphabet::FromNames({"x", "y"});
  std::vector<double> initial = {0.5, 0.5};
  std::vector<std::vector<double>> transitions(
      static_cast<size_t>(n - 1), {0.5, 0.5, 0.5, 0.5});
  auto mu = markov::MarkovSequence::Create(nodes, initial, transitions);
  ASSERT_TRUE(mu.ok());
  transducer::Transducer t(nodes, nodes, 1);
  t.SetAccepting(0, true);
  ASSERT_TRUE(t.AddTransition(0, 0, 0, {0}).ok());
  ASSERT_TRUE(t.AddTransition(0, 1, 0, {}).ok());
  auto top = TopAnswerByEmax(*mu, t);
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->world.size(), static_cast<size_t>(n));
  // All worlds are equally likely: p = 0.5^2000, which is 0 in linear
  // doubles — the witness world must still be valid.
  EXPECT_TRUE(t.Transduces(top->world, top->output));
}

}  // namespace
}  // namespace tms::query
