// Ranked enumeration by decreasing E_max — Theorem 4.3.
//
// Lawler–Murty over output-prefix constraints: the query is pruned once,
// and each subspace is solved by the Viterbi of query/emax.h over the
// live pairs of the pruned query's product with the constraint DFA
// (EmaxContext::TopAnswer(pruned_query, c)), a product that is never
// built. Emits answers in exactly nonincreasing E_max with polynomial
// delay; as an ordering by *confidence* this is a |Σ|^n-approximation
// (the paper shows no sub-exponential ratio is tractable, Theorem 4.4 —
// so this heuristic is worst-case optimal).

#ifndef TMS_QUERY_EMAX_ENUM_H_
#define TMS_QUERY_EMAX_ENUM_H_

#include <memory>
#include <optional>

#include "exec/engine_options.h"
#include "exec/run_context.h"
#include "exec/thread_pool.h"
#include "markov/markov_sequence.h"
#include "ranking/answer_stream.h"
#include "ranking/lawler.h"
#include "transducer/transducer.h"

namespace tms::query {

/// Streams A^ω(μ) in nonincreasing E_max.
///
/// The subspace-solver state (the precomputed E_max tensors of the Markov
/// sequence, the pruned query) lives in a shared block captured by value,
/// so the enumerator can be moved freely, mid-stream included. The solver
/// only reads that immutable state, so child subspaces may be solved in
/// parallel (EngineOptions::pool) with output byte-identical to the
/// sequential engine.
class EmaxEnumerator : public ranking::AnswerStream {
 public:
  /// Borrows `mu` and `t`: both must outlive the enumerator.
  EmaxEnumerator(const markov::MarkovSequence& mu,
                 const transducer::Transducer& t,
                 const exec::EngineOptions& options = {});

  /// The next answer (score = its E_max), or nullopt when exhausted.
  std::optional<ranking::ScoredAnswer> Next() override {
    return NextWith(ranking::AnswerTask());
  }

  /// Next(), with `task` run on the answer beside the pop's child solves
  /// when the engine has a pool (ranking::LawlerEnumerator::NextWith).
  std::optional<ranking::ScoredAnswer> NextWith(
      const ranking::AnswerTask& task) override {
    return lawler_->NextWith(task);
  }

 private:
  struct State;

  std::shared_ptr<State> state_;
  std::unique_ptr<ranking::LawlerEnumerator> lawler_;
};

/// Convenience: the k answers with the highest E_max.
std::vector<ranking::ScoredAnswer> TopKByEmax(
    const markov::MarkovSequence& mu, const transducer::Transducer& t, int k);

}  // namespace tms::query

#endif  // TMS_QUERY_EMAX_ENUM_H_
