// The offline optimization passes over query transducers. Two tiers with
// different contracts:
//
//  * PruneTransducer — drops states that are unreachable from the initial
//    state or cannot reach an accepting state, plus every edge into a
//    dropped state, and renumbers the survivors MONOTONICALLY. Every
//    engine path runs this pass (on the query and, fused, on each composed
//    product; transducer/composition_cache.h), because it is provably
//    byte-exact for the ranked streams: removed accepting cells never hold
//    a finite forward value, kept cells keep their exact values, and the
//    monotone renumbering preserves the ascending (s, q) order of the
//    first-strict-max backtrack scan in query::EmaxContext::TopAnswer —
//    even among exactly tied scores.
//
//  * MinimizeTransducer — prune followed by a bisimulation quotient
//    (largest partition where merged states agree on acceptance and on
//    their (symbol, output, target-class) edge sets). This preserves the
//    transduction relation — the answer SET and every answer's score —
//    but merging may reorder the backtrack scan among EXACTLY tied
//    scores, so it is reserved for the offline artifact path
//    (`tms_cli optimize`, serve/registry precompile) and never run by the
//    engines. See docs/OPTIMIZE.md for the invariant table.
//
// Both passes are deterministic (stable smallest-member renumbering) and
// record the optimize.* metrics — including zero deltas, so the stats-key
// schema is the same whether or not anything was removed.

#ifndef TMS_OPTIMIZE_TRANSDUCER_OPT_H_
#define TMS_OPTIMIZE_TRANSDUCER_OPT_H_

#include "transducer/transducer.h"

namespace tms::optimize {

/// What a pass did, for EXPLAIN surfaces and `tms_cli optimize` output.
struct OptimizeStats {
  int states_before = 0;
  int states_after = 0;
  int edges_before = 0;
  int edges_after = 0;
  int states_unreachable = 0;  ///< dropped: not reachable from initial
  int states_dead = 0;         ///< dropped: reachable but non-co-accessible
  int states_merged = 0;       ///< MinimizeTransducer only
};

/// The reachable ∧ co-accessible sub-transducer, stably renumbered.
/// Stream-byte-exact (see file comment). A transducer with an empty
/// language prunes to a single non-accepting state.
transducer::Transducer PruneTransducer(const transducer::Transducer& t,
                                       OptimizeStats* stats = nullptr);

/// PruneTransducer followed by the bisimulation quotient. Preserves the
/// transduction relation (answer set + scores); may permute enumeration
/// order among exactly tied scores. Idempotent.
transducer::Transducer MinimizeTransducer(const transducer::Transducer& t,
                                          OptimizeStats* stats = nullptr);

/// Records the optimize.* metrics for one prune-equivalent pass executed
/// OUTSIDE this module — the fused prune-during-specialization of
/// transducer::CompositionCache computes the same reachable ∧
/// co-accessible cut without materializing the full product, and must
/// report it with the exact key set PruneTransducer would have (zero
/// deltas included; the stats schema cannot depend on the fusion).
void RecordPrunePass(const OptimizeStats& stats, int64_t elapsed_ns);

}  // namespace tms::optimize

#endif  // TMS_OPTIMIZE_TRANSDUCER_OPT_H_
