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
// run over the reference solve reaches, hand-built ones (excluded sets,
// allow_equal = false, prefixes no run can emit), and the shapes of the
// other column-graph DPs (query/column_graph.h): each answer o of that
// run exactly, {o, Δ, allow_equal}, and non-empty prefixes {w, ∅,
// allow_equal}.
// TMS_TEST_SEED-replayable.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <set>
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

markov::MarkovSequence RandomMu(int family, Rng& rng) {
  switch (family) {
    case 0:
      return workload::RandomMarkovSequence(3, 5, 2, rng);
    case 1:  // the sparse regime: 3 of 24 successors per row
      return workload::RandomHomogeneousMarkovSequence(24, 6, 3, rng);
    default:
      return testing::TiedChain(8, 6, rng);
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
// and every child of the first `max_answers` pops. `answers` receives the
// answers those pops emit.
std::vector<OutputConstraint> LawlerConstraints(const query::EmaxContext& ctx,
                                                const Transducer& pruned,
                                                int max_answers,
                                                std::vector<Str>* answers) {
  std::vector<OutputConstraint> seen;
  ranking::LawlerEnumerator lawler(
      [&](const OutputConstraint& c) -> std::optional<ranking::ScoredAnswer> {
        seen.push_back(c);
        auto best = ctx.TopAnswer(optimize::PruneTransducer(
            transducer::ComposeWithOutputConstraint(pruned, c)));
        if (!best.has_value()) return std::nullopt;
        return ranking::ScoredAnswer{std::move(best->output), best->prob};
      });
  for (int i = 0; i < max_answers; ++i) {
    std::optional<ranking::ScoredAnswer> next = lawler.Next();
    if (!next.has_value()) break;
    answers->push_back(std::move(next->output));
  }
  return seen;
}

// The two shapes the other column-graph DPs solve: every answer o of the
// reference run exactly (E_max(o), Theorem 4.6 and IsPossibleAnswer), and
// non-empty prefixes under no exclusion (HasAnswerWithPrefix) — each
// answer's first symbol, and the first symbol no answer starts with.
std::vector<OutputConstraint> AnswerConstraints(
    const std::vector<Str>& answers, const Alphabet& output_alphabet) {
  std::vector<OutputConstraint> out;
  std::set<Symbol> firsts;
  for (const Str& o : answers) {
    out.push_back(OutputConstraint::Exactly(o, output_alphabet));
    if (!o.empty() && firsts.insert(o[0]).second) {
      out.push_back(OutputConstraint{Str{o[0]}, {}, true});
    }
  }
  for (size_t x = 0; x < output_alphabet.size(); ++x) {
    if (firsts.count(static_cast<Symbol>(x)) == 0) {
      out.push_back(OutputConstraint{Str{static_cast<Symbol>(x)}, {}, true});
      break;
    }
  }
  return out;
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
    std::vector<Str> answers;
    std::vector<OutputConstraint> constraints = LawlerConstraints(
        query::EmaxContext(mu, BackendChoice::kDense), pruned, 12, &answers);
    for (OutputConstraint& c : HandBuiltConstraints(mu.length(), rng)) {
      constraints.push_back(std::move(c));
    }
    for (OutputConstraint& c :
         AnswerConstraints(answers, pruned.output_alphabet())) {
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
