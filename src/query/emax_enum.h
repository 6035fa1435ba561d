// Ranked enumeration by decreasing E_max — Theorem 4.3.
//
// Lawler–Murty over output-prefix constraints: each subspace is solved by
// composing the pruned transducer with the constraint DFA, pruning the
// product (both memoized by transducer/composition_cache.h), and running
// the Viterbi of query/emax.h on the result. Emits answers in exactly
// nonincreasing E_max with polynomial delay; as an ordering by
// *confidence* this is a |Σ|^n-approximation (the paper shows no
// sub-exponential ratio is tractable, Theorem 4.4 — so this heuristic is
// worst-case optimal).

#ifndef TMS_QUERY_EMAX_ENUM_H_
#define TMS_QUERY_EMAX_ENUM_H_

#include <memory>
#include <optional>
#include <utility>

#include "exec/engine_options.h"
#include "exec/run_context.h"
#include "exec/thread_pool.h"
#include "markov/markov_sequence.h"
#include "obs/delay.h"
#include "obs/query_scope.h"
#include "ranking/answer_stream.h"
#include "ranking/lawler.h"
#include "transducer/composition_cache.h"
#include "transducer/transducer.h"

namespace tms::query {

/// Streams A^ω(μ) in nonincreasing E_max.
///
/// The subspace-solver state (inputs, precomputed E_max tensors, the
/// composition cache) lives in a shared block captured by value, so the
/// enumerator can be moved freely and — via WithOwnedInputs — can outlive
/// the arguments it was built from. The solver only reads immutable state
/// and the thread-safe cache, so child subspaces may be solved in parallel
/// (EngineOptions::pool) with output byte-identical to the sequential engine.
class EmaxEnumerator : public ranking::AnswerStream {
 public:
  /// Borrows `mu` and `t`: both must outlive the enumerator. (Use
  /// WithOwnedInputs when that is hard to guarantee.)
  EmaxEnumerator(const markov::MarkovSequence& mu,
                 const transducer::Transducer& t,
                 const exec::EngineOptions& options = {});

  /// Takes ownership of copies of the inputs — safe even when the caller's
  /// originals are temporaries or die before the enumerator does.
  static EmaxEnumerator WithOwnedInputs(
      markov::MarkovSequence mu, transducer::Transducer t,
      const exec::EngineOptions& options = {});

  /// The next answer (score = its E_max), or nullopt when exhausted.
  std::optional<ranking::ScoredAnswer> Next() override;

 private:
  struct State;
  EmaxEnumerator(std::shared_ptr<State> state,
                 const exec::EngineOptions& options);

  std::shared_ptr<State> state_;
  std::unique_ptr<ranking::LawlerEnumerator> lawler_;
  obs::TraceContext obs_ctx_{obs::CurrentTraceContext()};
  obs::DelayRecorder delay_{"query.emax_enum"};
};

/// Convenience: the k answers with the highest E_max.
std::vector<ranking::ScoredAnswer> TopKByEmax(
    const markov::MarkovSequence& mu, const transducer::Transducer& t, int k);

}  // namespace tms::query

#endif  // TMS_QUERY_EMAX_ENUM_H_
