// Possible-answer tests (reachability dynamic programs).
//
// The paper (§3.2) notes that "whether a string o ∈ Δ* is an answer (i.e.,
// has a nonzero probability) can be decided efficiently"; these DPs are
// that decision procedure, plus the primitives the Theorem 4.1 flashlight
// enumerator needs: nonemptiness (Pr(S ∈ L(A)) > 0) and the prefix test
// "does some answer extend w".

#ifndef TMS_QUERY_MEMBERSHIP_H_
#define TMS_QUERY_MEMBERSHIP_H_

#include "kernels/backend.h"
#include "markov/markov_sequence.h"
#include "transducer/transducer.h"

namespace tms::query {

// All three tests run the same boolean reachability DP over the column
// graph of t and an output constraint (query/column_graph.h): the exact
// answer OutputConstraint::Exactly(o), or the prefix {w, ∅, allow_equal}.
// When no (state, constraint-state) pair is live the test is false before
// any layer. `backend` selects the kernel path (kernels/backend.h). The DP
// is over the *support* of μ, which the CSR pattern represents exactly, so
// the answer is identical on either backend; sparse replaces the per-step
// O(|Σ|²) mask tabulation with O(nnz) work.

/// True iff Pr(S →[A^ω]→ o) > 0, i.e. o ∈ A^ω(μ).
/// Time O(n · |Σ|² · |Q|² · (|o|+1)) dense.
bool IsPossibleAnswer(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    const Str& o,
    kernels::BackendChoice backend = kernels::BackendChoice::kAuto);

/// True iff A^ω(μ) ≠ ∅, i.e. Pr(S ∈ L(A)) > 0.
/// Time O(n · |Σ|² · |Q|²) dense.
bool HasAnyAnswer(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    kernels::BackendChoice backend = kernels::BackendChoice::kAuto);

/// True iff some answer o ∈ A^ω(μ) has `prefix` as a (not necessarily
/// proper) prefix. Time O(n · |Σ|² · |Q|² · (|prefix|+1)) dense.
bool HasAnswerWithPrefix(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    const Str& prefix,
    kernels::BackendChoice backend = kernels::BackendChoice::kAuto);

}  // namespace tms::query

#endif  // TMS_QUERY_MEMBERSHIP_H_
