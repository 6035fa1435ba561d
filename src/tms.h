// Umbrella header: everything a downstream user of tms needs.
//
//   #include "tms.h"
//
// pulls in the data model (Markov sequences, k-order variants,
// conditioning), the query model (transducers, s-projectors), every
// evaluation algorithm of the paper, the Lahar-style collection layer,
// serialization, and the workload generators. Individual headers remain
// the preferred includes inside the library itself.

#ifndef TMS_TMS_H_
#define TMS_TMS_H_

// Substrates.
#include "automata/dfa.h"          // IWYU pragma: export
#include "automata/nfa.h"          // IWYU pragma: export
#include "automata/ops.h"          // IWYU pragma: export
#include "automata/regex.h"        // IWYU pragma: export
#include "common/rng.h"            // IWYU pragma: export
#include "common/status.h"         // IWYU pragma: export
#include "graph/dag.h"             // IWYU pragma: export
#include "graph/k_best_paths.h"    // IWYU pragma: export
#include "numeric/bigint.h"        // IWYU pragma: export
#include "numeric/log_prob.h"      // IWYU pragma: export
#include "numeric/rational.h"      // IWYU pragma: export
#include "strings/alphabet.h"      // IWYU pragma: export
#include "strings/str.h"           // IWYU pragma: export

// Data model.
#include "hmm/hmm.h"               // IWYU pragma: export
#include "hmm/translate.h"         // IWYU pragma: export
#include "markov/builder.h"        // IWYU pragma: export
#include "markov/condition.h"      // IWYU pragma: export
#include "markov/korder.h"         // IWYU pragma: export
#include "markov/markov_sequence.h"  // IWYU pragma: export
#include "markov/world_iter.h"     // IWYU pragma: export

// Query model.
#include "projector/sprojector.h"  // IWYU pragma: export
#include "transducer/classes.h"    // IWYU pragma: export
#include "transducer/compose.h"    // IWYU pragma: export
#include "transducer/transducer.h" // IWYU pragma: export

// Evaluation.
#include "projector/imax_enum.h"   // IWYU pragma: export
#include "projector/indexed_confidence.h"  // IWYU pragma: export
#include "projector/indexed_enum.h"        // IWYU pragma: export
#include "projector/sprojector_confidence.h"  // IWYU pragma: export
#include "query/answers.h"         // IWYU pragma: export
#include "query/approx.h"          // IWYU pragma: export
#include "query/confidence.h"      // IWYU pragma: export
#include "query/confidence_exact.h"  // IWYU pragma: export
#include "query/emax.h"            // IWYU pragma: export
#include "query/emax_enum.h"       // IWYU pragma: export
#include "query/evaluator.h"       // IWYU pragma: export
#include "query/membership.h"      // IWYU pragma: export
#include "query/top_confidence.h"  // IWYU pragma: export
#include "query/unranked_enum.h"   // IWYU pragma: export

// Database layer, serialization, workloads.
#include "db/collection.h"         // IWYU pragma: export
#include "db/event_query.h"        // IWYU pragma: export
#include "io/text_format.h"        // IWYU pragma: export
#include "workload/bio.h"          // IWYU pragma: export
#include "workload/hospital.h"     // IWYU pragma: export
#include "workload/random_models.h"  // IWYU pragma: export
#include "workload/running_example.h"  // IWYU pragma: export
#include "workload/text.h"         // IWYU pragma: export

#endif  // TMS_TMS_H_
