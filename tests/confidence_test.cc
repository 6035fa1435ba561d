#include "query/confidence.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/confidence_exact.h"
#include "test_util.h"
#include "workload/random_models.h"
#include "workload/running_example.h"

namespace tms::query {
namespace {

struct SweepParam {
  int sigma;
  int n;
  int states;
  // An int, not a bool: each ctest name is a byte dump of the param, and
  // a bool here would put three uninitialized padding bytes in that dump,
  // so the name would change from one test discovery to the next.
  int deterministic;
  int uniform_k;  // -1 = non-uniform
};

class ConfidenceSweep : public ::testing::TestWithParam<SweepParam> {};

// Theorem 4.6 / 4.8 algorithms and the exact DP all agree with the
// possible-world brute force on randomized instances of their classes.
TEST_P(ConfidenceSweep, MatchesBruteForce) {
  const SweepParam param = GetParam();
  Rng rng(static_cast<uint64_t>(param.sigma * 1000 + param.n * 100 +
                                param.states * 10 + param.uniform_k + 5));
  for (int trial = 0; trial < 10; ++trial) {
    markov::MarkovSequence mu =
        workload::RandomMarkovSequence(param.sigma, param.n, param.sigma, rng);
    workload::RandomTransducerOptions opts;
    opts.num_states = param.states;
    opts.deterministic = param.deterministic != 0;
    opts.uniform_k = param.uniform_k;
    opts.max_emission = 2;
    transducer::Transducer t =
        workload::RandomTransducer(mu.nodes(), opts, rng);
    auto truth = testing::BruteForceAnswers(mu, t);
    for (const auto& [o, expected] : truth) {
      // Dispatching facade.
      auto conf = Confidence(mu, t, o);
      ASSERT_TRUE(conf.ok()) << conf.status();
      EXPECT_NEAR(*conf, expected, 1e-9);
      // Exact exponential algorithm applies everywhere.
      auto exact = ConfidenceExact(mu, t, o);
      ASSERT_TRUE(exact.ok());
      EXPECT_NEAR(*exact, expected, 1e-9);
      // Class-specific algorithms.
      if (param.deterministic) {
        auto det = ConfidenceDeterministic(mu, t, o);
        ASSERT_TRUE(det.ok());
        EXPECT_NEAR(*det, expected, 1e-9);
      }
      if (param.uniform_k >= 0) {
        auto sub = ConfidenceUniformSubset(mu, t, o);
        ASSERT_TRUE(sub.ok());
        EXPECT_NEAR(*sub, expected, 1e-9);
      }
      if (param.deterministic && param.uniform_k >= 0) {
        auto fast = ConfidenceDeterministicUniform(mu, t, o);
        ASSERT_TRUE(fast.ok());
        EXPECT_NEAR(*fast, expected, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classes, ConfidenceSweep,
    ::testing::Values(
        SweepParam{2, 4, 2, true, -1},   // deterministic, non-uniform
        SweepParam{2, 4, 3, true, 1},    // deterministic Mealy-like
        SweepParam{2, 5, 2, true, 0},    // deterministic, 0-uniform
        SweepParam{3, 3, 2, true, 2},    // deterministic, 2-uniform
        SweepParam{2, 4, 3, false, 1},   // nondeterministic, 1-uniform
        SweepParam{2, 4, 2, false, 2},   // nondeterministic, 2-uniform
        SweepParam{2, 4, 3, false, -1},  // general (exact algorithm only)
        SweepParam{3, 4, 2, false, -1}));

TEST(ConfidenceTest, NonAnswersHaveZeroConfidence) {
  markov::MarkovSequence mu = workload::Figure1Sequence();
  transducer::Transducer fig2 = workload::Figure2Transducer();
  const Alphabet& out = fig2.output_alphabet();
  auto conf = Confidence(mu, fig2, *ParseStr(out, "λ λ"));
  ASSERT_TRUE(conf.ok());
  EXPECT_DOUBLE_EQ(*conf, 0.0);
}

TEST(ConfidenceTest, PreconditionsEnforced) {
  Rng rng(3);
  markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 3, 2, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = 2;
  opts.deterministic = false;
  opts.density = 2.0;
  transducer::Transducer nd =
      workload::RandomTransducer(mu.nodes(), opts, rng);
  if (!nd.IsDeterministic()) {
    EXPECT_FALSE(ConfidenceDeterministic(mu, nd, {}).ok());
  }
  // Alphabet mismatch.
  markov::MarkovSequence other = workload::RandomMarkovSequence(3, 3, 3, rng);
  EXPECT_FALSE(Confidence(other, nd, {}).ok());
}

TEST(ConfidenceTest, UniformSubsetRejectsNonUniform) {
  markov::MarkovSequence mu = workload::Figure1Sequence();
  transducer::Transducer fig2 = workload::Figure2Transducer();
  EXPECT_FALSE(ConfidenceUniformSubset(mu, fig2, {}).ok());
}

TEST(ConfidenceTest, UniformSubsetLengthMismatchIsZero) {
  Rng rng(9);
  markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 3, 2, rng);
  workload::RandomTransducerOptions opts;
  opts.uniform_k = 1;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  auto conf = ConfidenceUniformSubset(mu, t, {0});  // |o| = 1 ≠ n = 3
  ASSERT_TRUE(conf.ok());
  EXPECT_DOUBLE_EQ(*conf, 0.0);
}

TEST(ConfidenceTest, ExactRationalMatchesDoubleOnRunningExample) {
  markov::MarkovSequence mu = workload::Figure1Sequence();
  transducer::Transducer fig2 = workload::Figure2Transducer();
  const Alphabet& out = fig2.output_alphabet();
  Str twelve = *ParseStr(out, "1 2");
  auto exact = ConfidenceDeterministicExact(mu, fig2, twelve);
  ASSERT_TRUE(exact.ok());
  auto approx = ConfidenceDeterministic(mu, fig2, twelve);
  ASSERT_TRUE(approx.ok());
  EXPECT_NEAR(exact->ToDouble(), *approx, 1e-12);
  // The reconstruction's exact value: 0.4038 (s+t+u) plus the forced
  // fourth world r1b r1b la r1a r2a (0.1764) — see running_example.h.
  EXPECT_EQ(*exact, numeric::Rational(5802, 10000));
}

TEST(ConfidenceTest, ExactStatsReportLayerWidth) {
  Rng rng(13);
  markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 4, 2, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = 3;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  auto answers = testing::BruteForceAnswers(mu, t);
  if (answers.empty()) GTEST_SKIP();
  ExactConfidenceStats stats;
  auto conf = ConfidenceExact(mu, t, answers.begin()->first, &stats);
  ASSERT_TRUE(conf.ok());
  EXPECT_GT(stats.max_layer_width, 0);
  EXPECT_GE(stats.total_entries, stats.max_layer_width);
  // The width guard triggers when set below the observed width.
  auto guarded = ConfidenceExact(mu, t, answers.begin()->first, nullptr,
                                 /*max_layer_width=*/0);
  EXPECT_TRUE(guarded.ok());
  if (stats.max_layer_width > 1) {
    auto blocked = ConfidenceExact(mu, t, answers.begin()->first, nullptr,
                                   stats.max_layer_width - 1);
    EXPECT_FALSE(blocked.ok());
  }
}

TEST(ConfidenceTest, ZeroUniformNondeterministicAcceptance) {
  // 0-uniform nondeterministic transducer: conf(ε) = Pr(S ∈ L(A)) via the
  // subset algorithm; cross-checked against the acceptance brute force.
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 4, 2, rng);
    workload::RandomTransducerOptions opts;
    opts.num_states = 3;
    opts.deterministic = false;
    opts.density = 1.5;
    opts.uniform_k = 0;
    transducer::Transducer t =
        workload::RandomTransducer(mu.nodes(), opts, rng);
    auto conf = ConfidenceUniformSubset(mu, t, {});
    ASSERT_TRUE(conf.ok());
    double expected = testing::BruteForceConfidence(mu, t, {});
    EXPECT_NEAR(*conf, expected, 1e-9);
    // Nonempty outputs are impossible under 0-uniform emission.
    auto nonempty = ConfidenceUniformSubset(mu, t, {0});
    ASSERT_TRUE(nonempty.ok());
    EXPECT_DOUBLE_EQ(*nonempty, 0.0);
  }
}

TEST(ConfidenceTest, ExactRationalRequiresExactSequence) {
  Rng rng(3);
  markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 3, 2, rng);
  workload::RandomTransducerOptions opts;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  EXPECT_FALSE(mu.has_exact());
  EXPECT_FALSE(ConfidenceExactRational(mu, t, {}).ok());
}

}  // namespace
}  // namespace tms::query
