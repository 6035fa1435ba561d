// Standard automata constructions: determinization, minimization, boolean
// combinations, concatenation, reversal, emptiness, equivalence, counting.
//
// These are the substrate for the paper's constructions: subset
// construction (Theorems 4.8 and 5.5), DFA concatenation with its
// exponential state complexity in the second operand (Theorem 5.5, citing
// Jirásková), and product automata used to enforce prefix constraints.

#ifndef TMS_AUTOMATA_OPS_H_
#define TMS_AUTOMATA_OPS_H_

#include <optional>
#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "numeric/bigint.h"

namespace tms::automata {

/// Boolean combinator for Product().
enum class BoolOp { kAnd, kOr, kDiff };

/// Subset construction. The result is a complete DFA with at most 2^|Q|
/// states (only reachable subsets are materialized).
Dfa Determinize(const Nfa& nfa);

/// Moore partition-refinement minimization of a complete DFA (unreachable
/// states are dropped first). The result accepts the same language with
/// the minimum number of states.
Dfa Minimize(const Dfa& dfa);

/// Product automaton computing L(a) op L(b). Alphabets must be equal.
Dfa Product(const Dfa& a, const Dfa& b, BoolOp op);

/// DFA for the complement language Σ* \ L(a).
Dfa Complement(const Dfa& a);

/// NFA accepting L(a) ∪ L(b). Alphabets must be equal.
Nfa NfaUnion(const Nfa& a, const Nfa& b);

/// NFA accepting L(a)·L(b) (concatenation). Alphabets must be equal.
/// Determinizing this exhibits the 2^|Q_b| state complexity used by
/// Theorem 5.5.
Nfa NfaConcat(const Nfa& a, const Nfa& b);

/// NFA accepting the reversal of L(a).
Nfa Reverse(const Nfa& a);

/// True iff L(a) = ∅.
bool IsEmpty(const Nfa& a);

/// True iff L(a) = L(b) (both complete DFAs over equal alphabets).
bool Equivalent(const Dfa& a, const Dfa& b);

/// |L(a) ∩ Σ^n| — the count the paper cites from Kannan et al. [28]
/// (easy for DFAs, #P-complete for NFAs; this is the DFA dynamic program).
numeric::BigInt CountAcceptedStrings(const Dfa& a, int n);

/// A shortest accepted string (BFS), or nullopt if L(a) = ∅. Ties broken
/// by smallest symbol ids.
std::optional<Str> ShortestAccepted(const Nfa& a);

/// True iff L(a) = Σ* (the complete DFA accepts everything).
bool IsUniversal(const Dfa& a);

/// All strings of length exactly n accepted by `a`, in lexicographic
/// order of symbol ids. Exponential; test/bench helper for small n.
std::vector<Str> EnumerateAcceptedStrings(const Nfa& a, int n);

}  // namespace tms::automata

#endif  // TMS_AUTOMATA_OPS_H_
