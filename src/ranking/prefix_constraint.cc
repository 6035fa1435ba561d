#include "ranking/prefix_constraint.h"

#include "common/check.h"

namespace tms::ranking {

OutputConstraint OutputConstraint::Exactly(const Str& o,
                                           const Alphabet& output_alphabet) {
  OutputConstraint c{o, {}, true};
  for (size_t x = 0; x < output_alphabet.size(); ++x) {
    c.excluded_next.insert(c.excluded_next.end(), static_cast<Symbol>(x));
  }
  return c;
}

bool OutputConstraint::Admits(const Str& o) const {
  if (!IsPrefixOf(prefix, o)) return false;
  if (o.size() == prefix.size()) return allow_equal;
  return excluded_next.find(o[prefix.size()]) == excluded_next.end();
}

std::vector<OutputConstraint> OutputConstraint::PartitionAfter(
    const Str& winner) const {
  TMS_CHECK(Admits(winner));
  std::vector<OutputConstraint> out;
  if (winner.size() == prefix.size()) {
    // winner == w: the rest is everything but equality.
    TMS_CHECK(allow_equal);
    out.push_back(OutputConstraint{prefix, excluded_next, false});
    return out;
  }
  // Deviate immediately after w (or equal w, if that was allowed).
  {
    OutputConstraint child{prefix, excluded_next, allow_equal};
    child.excluded_next.insert(winner[prefix.size()]);
    out.push_back(std::move(child));
  }
  // Agree with winner through position l, deviate at l (0-based), for
  // l = |w|+1 .. |winner|-1; equality with the shorter prefix is allowed
  // (covers answers that are proper prefixes of winner).
  for (size_t l = prefix.size() + 1; l < winner.size(); ++l) {
    OutputConstraint child;
    child.prefix.assign(winner.begin(),
                        winner.begin() + static_cast<long>(l));
    child.excluded_next = {winner[l]};
    child.allow_equal = true;
    out.push_back(std::move(child));
  }
  // Strict extensions of winner.
  out.push_back(OutputConstraint{winner, {}, false});
  return out;
}

automata::Dfa OutputConstraint::ToDfa(const Alphabet& output_alphabet) const {
  const int w = static_cast<int>(prefix.size());
  // States: 0..w = progress through the prefix; w+1 = free; w+2 = dead.
  automata::Dfa out(output_alphabet, w + 3);
  const automata::StateId free_state = static_cast<automata::StateId>(w + 1);
  const automata::StateId dead = static_cast<automata::StateId>(w + 2);
  for (automata::StateId q = 0; q <= dead; ++q) {
    for (size_t d = 0; d < output_alphabet.size(); ++d) {
      out.SetTransition(q, static_cast<Symbol>(d), dead);
    }
  }
  for (int i = 0; i < w; ++i) {
    out.SetTransition(static_cast<automata::StateId>(i),
                      prefix[static_cast<size_t>(i)],
                      static_cast<automata::StateId>(i + 1));
  }
  for (size_t d = 0; d < output_alphabet.size(); ++d) {
    Symbol sym = static_cast<Symbol>(d);
    if (excluded_next.find(sym) == excluded_next.end()) {
      out.SetTransition(static_cast<automata::StateId>(w), sym, free_state);
    }
    out.SetTransition(free_state, sym, free_state);
  }
  out.SetInitial(0);
  out.SetAccepting(static_cast<automata::StateId>(w), allow_equal);
  out.SetAccepting(free_state, true);
  return out;
}

std::string OutputConstraint::ToString(const Alphabet& output_alphabet) const {
  std::string out = "[w=" + FormatStr(output_alphabet, prefix) + " | X={";
  bool first = true;
  for (Symbol s : excluded_next) {
    if (!first) out += ",";
    out += output_alphabet.Name(s);
    first = false;
  }
  out += allow_equal ? "} | eq]" : "} | neq]";
  return out;
}

}  // namespace tms::ranking
