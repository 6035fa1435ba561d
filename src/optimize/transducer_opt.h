// The query-transducer pass every engine runs.
//
// PruneTransducer drops states that are unreachable from the initial
// state or cannot reach an accepting state, plus every edge into a
// dropped state, and renumbers the survivors MONOTONICALLY. Every engine
// path runs it on the query, and the E_max subspace solve makes the same
// cut of each query × constraint product without building it (the live
// pairs of query::EmaxContext::TopAnswer(pruned_query, c)), because it is
// provably byte-exact for the ranked streams: removed accepting cells
// never hold a finite forward value, kept cells keep their exact values,
// and the monotone renumbering preserves the ascending (s, q) order of
// the first-strict-max backtrack scan in query::EmaxContext::TopAnswer —
// even among exactly tied scores. See docs/OPTIMIZE.md.
//
// The pass is deterministic and records the optimize.* metrics —
// including zero deltas, so the stats-key schema is the same whether or
// not anything was removed.

#ifndef TMS_OPTIMIZE_TRANSDUCER_OPT_H_
#define TMS_OPTIMIZE_TRANSDUCER_OPT_H_

#include "transducer/transducer.h"

namespace tms::optimize {

/// What a pass did, for EXPLAIN surfaces and bench_optimize.
struct OptimizeStats {
  int states_before = 0;
  int states_after = 0;
  int edges_before = 0;
  int edges_after = 0;
  int states_unreachable = 0;  ///< dropped: not reachable from initial
  int states_dead = 0;         ///< dropped: reachable but non-co-accessible
};

/// The reachable ∧ co-accessible sub-transducer, stably renumbered.
/// Stream-byte-exact (see file comment). A transducer with an empty
/// language prunes to a single non-accepting state.
transducer::Transducer PruneTransducer(const transducer::Transducer& t,
                                       OptimizeStats* stats = nullptr);

}  // namespace tms::optimize

#endif  // TMS_OPTIMIZE_TRANSDUCER_OPT_H_
