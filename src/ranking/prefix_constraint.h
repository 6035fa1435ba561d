// Output-prefix constraints (the paper's "prefix constraints", §4.1–4.2).
//
// Both the unranked poly-delay enumeration (Theorem 4.1) and the Lawler–
// Murty ranked enumeration (Theorem 4.3, Lemma 5.10) partition the space of
// answers by constraints on the *output* string. A constraint
// (w, X, allow_equal) admits exactly the strings o ∈ Δ* such that
//   * w is a prefix of o,
//   * if o = w then allow_equal holds,
//   * if o ≠ w then o[|w|] ∉ X.
//
// This family is closed under the Lawler partition step: removing the top
// answer o* from a constraint's answer set splits the rest into |o*|−|w|+1
// constraints of the same form (PartitionAfter), pairwise disjoint and
// jointly exhaustive — so ranked enumeration needs no duplicate
// suppression. Each constraint is a regular condition on the output and is
// enforced by composing the transducer with ToDfa() (see
// transducer/compose.h), which is how the paper "transform[s] the input
// transducer into a new one".

#ifndef TMS_RANKING_PREFIX_CONSTRAINT_H_
#define TMS_RANKING_PREFIX_CONSTRAINT_H_

#include <set>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "strings/alphabet.h"
#include "strings/str.h"

namespace tms::ranking {

/// A constraint on output strings; see the file comment for semantics.
struct OutputConstraint {
  Str prefix;                       ///< forced prefix w
  std::set<Symbol> excluded_next;   ///< X: symbols forbidden right after w
  bool allow_equal = true;          ///< whether o == w itself is admitted

  /// The unconstrained space (admits every string).
  static OutputConstraint All() { return OutputConstraint{}; }

  /// Admits exactly `o`: every symbol of `output_alphabet` is excluded
  /// after it.
  static OutputConstraint Exactly(const Str& o,
                                  const Alphabet& output_alphabet);

  /// True iff `o` satisfies this constraint.
  bool Admits(const Str& o) const;

  /// Partitions Admits(*this) \ {winner} into child constraints (disjoint,
  /// exhaustive). `winner` must be admitted by *this.
  std::vector<OutputConstraint> PartitionAfter(const Str& winner) const;

  /// A complete DFA over `output_alphabet` accepting exactly the admitted
  /// strings; |w| + 3 states.
  automata::Dfa ToDfa(const Alphabet& output_alphabet) const;

  /// Debug rendering, e.g. "[w=1 2 | X={3} | eq]".
  std::string ToString(const Alphabet& output_alphabet) const;
};

}  // namespace tms::ranking

#endif  // TMS_RANKING_PREFIX_CONSTRAINT_H_
