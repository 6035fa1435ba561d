// Exact confidence for arbitrary transducers (the FP^{#P}-hard case).
//
// For nondeterministic transducers with non-uniform emission, computing
// Pr(S →[A^ω]→ o) is FP^{#P}-complete (Prop. 4.7, Thm 4.9), so no
// polynomial algorithm is expected. This module implements the principled
// exact algorithm: a *generalized subset construction* whose DP state is
// the set of (transducer state, matched-output-position) pairs reachable
// by runs that have emitted exactly a prefix of o. That set is a
// deterministic function of the world prefix, so aggregating probability
// mass per (last node, pair-set) never double counts, and a world
// contributes iff its final pair-set contains an accepting state paired
// with position |o|.
//
// Pair-sets are bitsets over the pairs reachable from (initial, 0), and a
// layer is a query/subset_dp.h SubsetLayer (docs/ALGORITHMS.md).
//
// The running time is polynomial in the number of *distinct reachable
// pair-sets* — at most 2^{|Q|·(|o|+1)} (the hardness manifests as blowup on
// adversarial instances such as the Theorem 4.9 reduction family) but
// frequently small on benign inputs. bench_confidence_hardness measures
// exactly this blowup.

#ifndef TMS_QUERY_CONFIDENCE_EXACT_H_
#define TMS_QUERY_CONFIDENCE_EXACT_H_

#include <cstdint>

#include "common/status.h"
#include "markov/markov_sequence.h"
#include "numeric/rational.h"
#include "transducer/transducer.h"

namespace tms::query {

/// Statistics of one ConfidenceExact run (exposed for the hardness bench).
struct ExactConfidenceStats {
  /// The largest number of distinct (node, pair-set) DP entries over all
  /// layers — the effective width of the generalized subset construction.
  int64_t max_layer_width = 0;
  /// Total DP entries processed.
  int64_t total_entries = 0;
};

/// Exact confidence for any transducer. `max_layer_width`, when positive,
/// aborts with an OutOfRange error once a layer exceeds that many DP
/// entries (a resource guard for adversarial instances).
StatusOr<double> ConfidenceExact(const markov::MarkovSequence& mu,
                                 const transducer::Transducer& t, const Str& o,
                                 ExactConfidenceStats* stats = nullptr,
                                 int64_t max_layer_width = 0);

/// Exact-rational version; requires mu.has_exact().
StatusOr<numeric::Rational> ConfidenceExactRational(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    const Str& o, ExactConfidenceStats* stats = nullptr,
    int64_t max_layer_width = 0);

}  // namespace tms::query

#endif  // TMS_QUERY_CONFIDENCE_EXACT_H_
