// Differential test of the E_max subspace solve on the implicit live
// product, query::EmaxContext::TopAnswer(pruned_query, c), against the
// solve it replaces: TopAnswer on the built product
//   PruneTransducer(ComposeWithOutputConstraint(PruneTransducer(t), c)).
// The two must agree on the witness world, the output, the bits of the
// probability and nullopt, and the live-pair count must be that product's
// state count (no live pair standing for the one-state empty product).
//
// Instances: random μ solved on the dense and the sparse backend, including
// chains with exactly tied scores (probabilities 1/2 and 1/4), under
// deterministic, nondeterministic, one-state and empty-language queries
// with emissions of 0–2 symbols. Constraints: every constraint a Lawler
// run over the reference solve reaches, plus hand-built ones (excluded
// sets, allow_equal = false, prefixes no run can emit).
// TMS_TEST_SEED-replayable.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "kernels/backend.h"
#include "optimize/transducer_opt.h"
#include "query/emax.h"
#include "ranking/lawler.h"
#include "ranking/prefix_constraint.h"
#include "test_util.h"
#include "transducer/compose.h"
#include "transducer/transducer.h"
#include "workload/random_models.h"

namespace tms {
namespace {

using kernels::BackendChoice;
using ranking::OutputConstraint;
using transducer::Transducer;

// A chain whose every distribution puts 1/support on `support` distinct
// random nodes (support 2 or 4): equal-length worlds then share exact
// log-probabilities, so the DP's tie-breaks decide the witnesses.
markov::MarkovSequence TiedChain(int sigma, int n, Rng& rng) {
  auto row = [&] {
    const int support = rng.Bernoulli(0.5) ? 2 : 4;
    std::vector<double> out(static_cast<size_t>(sigma), 0.0);
    for (int placed = 0; placed < support;) {
      const size_t node = static_cast<size_t>(rng.UniformInt(0, sigma - 1));
      if (out[node] == 0.0) {
        out[node] = 1.0 / support;
        ++placed;
      }
    }
    return out;
  };
  std::vector<double> initial = row();
  std::vector<std::vector<double>> steps;
  for (int i = 1; i < n; ++i) {
    std::vector<double> m;
    for (int s = 0; s < sigma; ++s) {
      std::vector<double> r = row();
      m.insert(m.end(), r.begin(), r.end());
    }
    steps.push_back(std::move(m));
  }
  auto mu = markov::MarkovSequence::Create(workload::MakeSymbols(sigma, "n"),
                                           std::move(initial),
                                           std::move(steps));
  TMS_CHECK(mu.ok());
  return std::move(mu).value();
}

markov::MarkovSequence RandomMu(int family, Rng& rng) {
  switch (family) {
    case 0:
      return workload::RandomMarkovSequence(3, 5, 2, rng);
    case 1:  // the sparse regime: 3 of 24 successors per row
      return workload::RandomHomogeneousMarkovSequence(24, 6, 3, rng);
    default:
      return TiedChain(8, 6, rng);
  }
}

// kind 0: deterministic, 1: nondeterministic, 2: one state, 3: an empty
// language. Emissions have 0–2 symbols over a 2-symbol output alphabet.
Transducer RandomQuery(const Alphabet& nodes, int kind, Rng& rng) {
  workload::RandomTransducerOptions opts;
  opts.num_states = kind == 2 ? 1 : 3;
  opts.deterministic = kind == 0 || kind == 2;
  opts.max_emission = 2;
  opts.output_symbols = 2;
  Transducer t = workload::RandomTransducer(nodes, opts, rng);
  if (kind == 3) {
    for (automata::StateId q = 0; q < t.num_states(); ++q) {
      t.SetAccepting(q, false);
    }
  }
  return t;
}

int CountEdges(const Transducer& t) {
  int edges = 0;
  for (automata::StateId q = 0; q < t.num_states(); ++q) {
    for (size_t s = 0; s < t.input_alphabet().size(); ++s) {
      edges += static_cast<int>(t.Next(q, static_cast<Symbol>(s)).size());
    }
  }
  return edges;
}

// One differential check of the live-product solve against the solve on
// the built, pruned product.
void ExpectSameSolve(const query::EmaxContext& ctx, const Transducer& pruned,
                     const OutputConstraint& c) {
  SCOPED_TRACE("constraint " + c.ToString(pruned.output_alphabet()));
  const Transducer product = optimize::PruneTransducer(
      transducer::ComposeWithOutputConstraint(pruned, c));
  const std::optional<query::Evidence> want = ctx.TopAnswer(product);
  query::ProductStats stats;
  const std::optional<query::Evidence> got = ctx.TopAnswer(pruned, c, &stats);

  ASSERT_EQ(got.has_value(), want.has_value());
  if (got.has_value()) {
    EXPECT_EQ(got->world, want->world);
    EXPECT_EQ(got->output, want->output);
    EXPECT_EQ(std::bit_cast<uint64_t>(got->prob),
              std::bit_cast<uint64_t>(want->prob));
  }
  EXPECT_EQ(stats.product_pairs,
            pruned.num_states() * (static_cast<int>(c.prefix.size()) + 3));
  if (stats.live_pairs == 0) {
    // No live pair: the product prunes to the canonical empty transducer.
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(product.num_states(), 1);
    EXPECT_FALSE(product.IsAccepting(0));
    EXPECT_EQ(CountEdges(product), 0);
  } else {
    EXPECT_EQ(stats.live_pairs, product.num_states());
  }
}

// The constraints a Lawler run over the reference solve reaches: the root
// and every child of the first `max_answers` pops.
std::vector<OutputConstraint> LawlerConstraints(const query::EmaxContext& ctx,
                                                const Transducer& pruned,
                                                int max_answers) {
  std::vector<OutputConstraint> seen;
  ranking::LawlerEnumerator lawler(
      [&](const OutputConstraint& c) -> std::optional<ranking::ScoredAnswer> {
        seen.push_back(c);
        auto best = ctx.TopAnswer(optimize::PruneTransducer(
            transducer::ComposeWithOutputConstraint(pruned, c)));
        if (!best.has_value()) return std::nullopt;
        return ranking::ScoredAnswer{std::move(best->output), best->prob};
      });
  for (int i = 0; i < max_answers && lawler.Next().has_value(); ++i) {
  }
  return seen;
}

// Hand-built constraints: a random prefix (possibly empty) under a
// non-empty excluded set and either allow_equal; allow_equal = false on
// the empty prefix; and a prefix longer than any output a run of n steps
// can emit (at most 2 symbols a step), which no pair can complete.
std::vector<OutputConstraint> HandBuiltConstraints(int n, Rng& rng) {
  std::vector<OutputConstraint> out;
  for (int i = 0; i < 6; ++i) {
    OutputConstraint c;
    const int w = static_cast<int>(rng.UniformInt(0, 3));
    for (int j = 0; j < w; ++j) {
      c.prefix.push_back(static_cast<Symbol>(rng.UniformInt(0, 1)));
    }
    c.excluded_next.insert(static_cast<Symbol>(rng.UniformInt(0, 1)));
    if (rng.Bernoulli(0.3)) c.excluded_next = {0, 1};
    c.allow_equal = rng.Bernoulli(0.5);
    out.push_back(std::move(c));
  }
  out.push_back(OutputConstraint{{}, {}, false});
  OutputConstraint too_long;
  too_long.prefix.assign(static_cast<size_t>(2 * n + 1), Symbol{0});
  out.push_back(std::move(too_long));
  return out;
}

TEST(LiveProductTest, MatchesPrunedProductOnLawlerAndHandBuiltConstraints) {
  const uint64_t seed = testing::TestSeed(31337);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 36; ++trial) {
    const int family = trial % 3;
    const int kind = (trial / 3) % 4;
    SCOPED_TRACE("trial " + std::to_string(trial) + " family " +
                 std::to_string(family) + " query kind " +
                 std::to_string(kind));
    const markov::MarkovSequence mu = RandomMu(family, rng);
    const Transducer pruned =
        optimize::PruneTransducer(RandomQuery(mu.nodes(), kind, rng));
    std::vector<OutputConstraint> constraints = LawlerConstraints(
        query::EmaxContext(mu, BackendChoice::kDense), pruned, 12);
    for (OutputConstraint& c : HandBuiltConstraints(mu.length(), rng)) {
      constraints.push_back(std::move(c));
    }
    for (BackendChoice backend : {BackendChoice::kDense, BackendChoice::kSparse}) {
      const query::EmaxContext ctx(mu, backend);
      SCOPED_TRACE(kernels::BackendName(ctx.backend()));
      for (const OutputConstraint& c : constraints) {
        ExpectSameSolve(ctx, pruned, c);
      }
    }
  }
}

}  // namespace
}  // namespace tms
