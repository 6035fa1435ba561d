// Property-based fuzzer for DFA minimization (automata::Minimize): random
// NFAs are determinized, minimized, and the result is checked for
// LANGUAGE EQUIVALENCE against the unminimized DFA by product-automaton
// emptiness — L(m) \ L(d) = ∅ and L(d) \ L(m) = ∅ — plus the independent
// Equivalent() oracle, random-string sampling, and idempotence.
// TMS_TEST_SEED-replayable; labeled `robustness` so tools/ci_verify.sh
// runs it under the sanitizer sweeps.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "automata/ops.h"
#include "common/rng.h"
#include "test_util.h"
#include "workload/random_models.h"

namespace tms {
namespace {

// A random NFA over `sigma` symbols: every (state, symbol) pair gets a
// Poisson-ish number of targets, acceptance is a coin per state. Such
// machines are frequently partial (stuck = reject) and nondeterministic,
// so determinization introduces the sink/subset states minimization must
// collapse again.
automata::Nfa RandomNfa(Rng& rng, int sigma, int states) {
  Alphabet ab = workload::MakeSymbols(sigma, "a");
  automata::Nfa nfa(ab, states);
  nfa.SetInitial(0);
  bool any_accepting = false;
  for (int q = 0; q < states; ++q) {
    if (rng.Bernoulli(0.4)) {
      nfa.SetAccepting(q);
      any_accepting = true;
    }
    for (int s = 0; s < sigma; ++s) {
      while (rng.Bernoulli(0.55)) {
        nfa.AddTransition(q, s,
                          static_cast<automata::StateId>(
                              rng.UniformInt(0, states - 1)));
      }
    }
  }
  if (!any_accepting) nfa.SetAccepting(static_cast<automata::StateId>(
      rng.UniformInt(0, states - 1)));
  return nfa;
}

Str RandomString(Rng& rng, int sigma, int max_len) {
  Str s;
  const int len = static_cast<int>(rng.UniformInt(0, max_len));
  for (int i = 0; i < len; ++i) {
    s.push_back(static_cast<Symbol>(rng.UniformInt(0, sigma - 1)));
  }
  return s;
}

TEST(OptimizePropertyTest, MinimizedDfaAcceptsExactlyTheSameLanguage) {
  const uint64_t seed = testing::TestSeed(27201);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 60; ++trial) {
    const int sigma = static_cast<int>(rng.UniformInt(1, 3));
    const int states = static_cast<int>(rng.UniformInt(1, 6));
    automata::Nfa nfa = RandomNfa(rng, sigma, states);
    automata::Dfa d = automata::Determinize(nfa);
    automata::Dfa m = automata::Minimize(d);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": |nfa|=" +
                 std::to_string(states) + " |dfa|=" +
                 std::to_string(d.num_states()) + " |min|=" +
                 std::to_string(m.num_states()));

    // Language equivalence by product emptiness, both directions: any
    // string in the symmetric difference would be a reachable accepting
    // state of a diff product.
    EXPECT_TRUE(
        automata::IsEmpty(automata::Product(m, d, automata::BoolOp::kDiff)
                              .ToNfa()));
    EXPECT_TRUE(
        automata::IsEmpty(automata::Product(d, m, automata::BoolOp::kDiff)
                              .ToNfa()));
    // The independent oracle agrees...
    EXPECT_TRUE(automata::Equivalent(d, m));
    // ...and so does direct sampling, against the ORIGINAL NFA.
    for (int i = 0; i < 20; ++i) {
      Str s = RandomString(rng, sigma, 2 * states + 2);
      EXPECT_EQ(m.Accepts(s), nfa.Accepts(s))
          << "string of length " << s.size();
    }

    // Minimality: no more states than the input, and a second pass has
    // nothing left to merge.
    EXPECT_LE(m.num_states(), d.num_states());
    EXPECT_EQ(automata::Minimize(m).num_states(), m.num_states());
  }
}

TEST(OptimizePropertyTest, MinimizeCollapsesRedundantStates) {
  // k copies of the same chain glued at a shared accepting state minimize
  // to the single chain — a case where the reduction is large and the
  // expected size is known exactly.
  Alphabet ab = workload::MakeSymbols(1, "a");
  automata::Nfa nfa(ab, 7);
  nfa.SetInitial(0);
  // Two parallel length-3 a-chains 0→{1,4}→{2,5}→{3,6}, both ends accept.
  nfa.AddTransition(0, 0, 1);
  nfa.AddTransition(1, 0, 2);
  nfa.AddTransition(2, 0, 3);
  nfa.AddTransition(0, 0, 4);
  nfa.AddTransition(4, 0, 5);
  nfa.AddTransition(5, 0, 6);
  nfa.SetAccepting(3);
  nfa.SetAccepting(6);
  automata::Dfa d = automata::Determinize(nfa);
  automata::Dfa m = automata::Minimize(d);
  // L = {aaa}: states for 0,1,2,3 symbols read, plus the sink.
  EXPECT_EQ(m.num_states(), 5);
  EXPECT_TRUE(automata::Equivalent(d, m));
  Str aaa = {0, 0, 0};
  EXPECT_TRUE(m.Accepts(aaa));
}

TEST(OptimizePropertyTest, MinimizeHandlesDegenerateLanguages) {
  Alphabet ab = workload::MakeSymbols(2, "a");
  // Empty language: no accepting state at all.
  automata::Nfa empty(ab, 3);
  empty.SetInitial(0);
  empty.AddTransition(0, 0, 1);
  empty.AddTransition(1, 1, 2);
  automata::Dfa d_empty = automata::Minimize(automata::Determinize(empty));
  EXPECT_EQ(d_empty.num_states(), 1);
  EXPECT_TRUE(automata::IsEmpty(d_empty.ToNfa()));

  // Universal language: every state accepts.
  automata::Nfa all(ab, 2);
  all.SetInitial(0);
  for (int q = 0; q < 2; ++q) {
    all.SetAccepting(q);
    for (int s = 0; s < 2; ++s) {
      all.AddTransition(q, s, 1 - q);
    }
  }
  automata::Dfa d_all = automata::Minimize(automata::Determinize(all));
  EXPECT_EQ(d_all.num_states(), 1);
  EXPECT_TRUE(d_all.AcceptsEmpty());
}

}  // namespace
}  // namespace tms
