#include "query/confidence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kernels/backend.h"
#include "numeric/rational.h"
#include "query/confidence_exact.h"
#include "query/emax_enum.h"
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

// --- Theorem 4.6 over live (q, j) columns ------------------------------
//
// The double-precision DP carries only the (q, j) pairs reachable from
// its first layer; the dropped columns are exactly zero, so its values
// must keep the bits of the DP over the full |Q|·(|o|+1) grid.

// A homogeneous chain with exact dyadic probabilities: the initial
// distribution and each transition row put `support` masses, each a
// multiple of 1/8, on distinct random nodes. The same chain is built as
// a double-precision sequence of any length, or with exact probabilities.
struct DyadicChain {
  int sigma = 0;
  std::vector<numeric::Rational> initial;
  std::vector<numeric::Rational> transition;  // sigma x sigma, row-major
};

std::vector<numeric::Rational> DyadicRow(int sigma, int support, Rng& rng) {
  std::vector<numeric::Rational> row(static_cast<size_t>(sigma));
  int left = 8;
  for (int k = 0; k < support; ++k) {
    size_t node = 0;
    do {
      node = static_cast<size_t>(rng.UniformInt(0, sigma - 1));
    } while (!row[node].IsZero());
    const int w = k + 1 == support
                      ? left
                      : static_cast<int>(
                            rng.UniformInt(1, left - (support - k - 1)));
    left -= w;
    row[node] = numeric::Rational(w, 8);
  }
  return row;
}

DyadicChain MakeDyadicChain(int sigma, int support, Rng& rng) {
  DyadicChain chain;
  chain.sigma = sigma;
  chain.initial = DyadicRow(sigma, support, rng);
  for (int s = 0; s < sigma; ++s) {
    std::vector<numeric::Rational> row = DyadicRow(sigma, support, rng);
    chain.transition.insert(chain.transition.end(), row.begin(), row.end());
  }
  return chain;
}

std::vector<double> ToDoubles(const std::vector<numeric::Rational>& values) {
  std::vector<double> out;
  for (const numeric::Rational& v : values) out.push_back(v.ToDouble());
  return out;
}

markov::MarkovSequence DoubleSequence(const DyadicChain& chain, int n) {
  auto mu = markov::MarkovSequence::CreateHomogeneous(
      workload::MakeSymbols(chain.sigma, "n"), ToDoubles(chain.initial),
      ToDoubles(chain.transition), n);
  TMS_CHECK(mu.ok());
  return std::move(mu).value();
}

markov::MarkovSequence ExactSequence(const DyadicChain& chain, int n) {
  auto mu = markov::MarkovSequence::CreateExact(
      workload::MakeSymbols(chain.sigma, "n"), chain.initial,
      std::vector<std::vector<numeric::Rational>>(
          static_cast<size_t>(n - 1), chain.transition));
  TMS_CHECK(mu.ok());
  return std::move(mu).value();
}

// The long_sparse benchmark query: a seeded 1/16 of the nodes is marked
// and split into four classes; the first two visits to a marked node
// emit its class, everything else is silent. The live pairs are (q, q)
// for q <= |o|: 1, 2 or 3 of the grid's 3, 6 or 9 columns.
transducer::Transducer RareEventQuery(const Alphabet& nodes, Rng& rng) {
  const int sigma = static_cast<int>(nodes.size());
  std::vector<int> cls(static_cast<size_t>(sigma), -1);
  for (int marked = 0; marked < sigma / 16;) {
    const size_t s = static_cast<size_t>(rng.UniformInt(0, sigma - 1));
    if (cls[s] < 0) cls[s] = marked++ % 4;
  }
  transducer::Transducer t(nodes, workload::MakeSymbols(4, "c"), 3);
  t.SetInitial(0);
  for (int q = 0; q < 3; ++q) {
    t.SetAccepting(q);
    for (int s = 0; s < sigma; ++s) {
      const int c = cls[static_cast<size_t>(s)];
      const bool visit = c >= 0 && q < 2;
      TMS_CHECK(t.AddTransition(q, static_cast<Symbol>(s), visit ? q + 1 : q,
                                visit ? Str{static_cast<Symbol>(c)} : Str{})
                    .ok());
    }
  }
  return t;
}

// A random deterministic transducer that no edge re-enters its initial
// state 0, so every (0, j) column of the grid is dead, besides whatever
// pairs the random edges leave unreachable.
transducer::Transducer NoReturnQuery(const Alphabet& nodes, Rng& rng) {
  workload::RandomTransducerOptions opts;
  opts.num_states = 4;
  opts.deterministic = true;
  opts.max_emission = 1;
  opts.output_symbols = 2;
  const transducer::Transducer r = workload::RandomTransducer(nodes, opts, rng);
  transducer::Transducer t(nodes, r.output_alphabet(), r.num_states());
  t.SetInitial(0);
  t.SetAccepting(1);
  for (int q = 0; q < r.num_states(); ++q) {
    if (r.IsAccepting(q)) t.SetAccepting(q);
    for (size_t s = 0; s < nodes.size(); ++s) {
      const transducer::Edge& e = r.Next(q, static_cast<Symbol>(s))[0];
      TMS_CHECK(t.AddTransition(q, static_cast<Symbol>(s),
                                e.target == 0 ? 1 : e.target, e.output)
                    .ok());
    }
  }
  return t;
}

std::string Bits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct PinnedInstance {
  const char* name;
  uint64_t seed;
  int sigma;
  int n;
  bool rare_event;  // the long_sparse query, else NoReturnQuery
  bool exact;       // also compare with ConfidenceDeterministicExact
  // The confidences of the top-10 answers (all of them when fewer), in
  // rank order, printed with %.17g.
  // Captured from the DP over the full (q, j) grid, before live columns.
  std::vector<const char*> pinned;
};

// Sparse models (3 of σ nodes per row) on both backends. The σ=64,
// n=256 instances have the long_sparse shape. The Rational DP would take
// minutes an answer there (~20 s at n=128), so the exactness check runs
// on the long_sparse query over σ=32, n=24, and on the random family.
TEST(ConfidenceTest, LiveColumnDpKeepsFullGridBits) {
  const std::vector<PinnedInstance> instances = {
      {"long_sparse shape", 11, 64, 256, true, false,
       {"0.22723552076385747", "0.090405576494737253",
        "0.089842091317147016", "0.084424690755734486",
        "0.076662856224653547", "0.15277582045214566",
        "0.040622012097935457", "0.037463148987447639",
        "0.047695341051118688", "0.060436469172794959"}},
      {"long_sparse shape", 12, 64, 256, true, false,
       {"1.702173691513865e-05", "0.00010374196051626902",
        "4.0832280286830629e-05", "5.3737865242529443e-05",
        "0.1519657960976743", "0.069869963014577083",
        "0.17648357486910329", "0.22737557731298286",
        "0.096258025090301361", "0.095041230110760488"}},
      {"long_sparse query, exact", 11, 32, 24, true, true,
       {"0.59757227123791068", "0.046043400457552959",
        "0.1307511262130682", "0.19153864190373174",
        "0.014555916985987096", "0.010358047702000299",
        "0.0091805954997490769"}},
      {"no-return random", 21, 16, 12, false, true,
       {"0.0026339388568885624", "0.00095276045612990856",
        "0.0010488144471310079", "0.0032146067533176392",
        "0.0024062584270723164", "0.0032145192380994558",
        "0.0025108210975304246", "0.0066877123026642948",
        "0.0048879521782509983", "0.0042296990868635476"}},
      {"no-return random", 22, 16, 12, false, true,
       {"0.02624489321897272", "0.050382851200993173",
        "0.046986289031337947", "0.040017922598053701",
        "0.012691571144387126", "0.018166663779993542",
        "0.03130202743341215", "0.0060962928982917219",
        "0.0060226749919820577", "0.005423263181000948"}},
  };
  for (const PinnedInstance& inst : instances) {
    SCOPED_TRACE(std::string(inst.name) + ", seed " +
                 std::to_string(inst.seed));
    Rng rng(inst.seed);
    const DyadicChain chain = MakeDyadicChain(inst.sigma, 3, rng);
    const markov::MarkovSequence mu = DoubleSequence(chain, inst.n);
    Rng query_rng(2026);
    const transducer::Transducer t =
        inst.rare_event ? RareEventQuery(mu.nodes(), query_rng)
                        : NoReturnQuery(mu.nodes(), rng);
    std::optional<markov::MarkovSequence> mu_exact;
    if (inst.exact) mu_exact = ExactSequence(chain, inst.n);
    const std::vector<ranking::ScoredAnswer> top = TopKByEmax(mu, t, 10);
    ASSERT_EQ(top.size(), inst.pinned.size());
    for (size_t r = 0; r < top.size(); ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      for (kernels::BackendChoice backend :
           {kernels::BackendChoice::kDense, kernels::BackendChoice::kSparse}) {
        auto conf = ConfidenceDeterministic(mu, t, top[r].output, backend);
        ASSERT_TRUE(conf.ok()) << conf.status();
        EXPECT_EQ(Bits(*conf), inst.pinned[r])
            << kernels::BackendChoiceName(backend);
        if (mu_exact.has_value()) {
          auto truth =
              ConfidenceDeterministicExact(*mu_exact, t, top[r].output);
          ASSERT_TRUE(truth.ok()) << truth.status();
          EXPECT_NEAR(*conf, truth->ToDouble(), 1e-12 * truth->ToDouble());
        }
      }
    }
  }
}

}  // namespace
}  // namespace tms::query
