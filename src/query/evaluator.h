// Query-evaluation facade.
//
// Binds a Markov sequence and a transducer and exposes the paper's
// evaluation modes behind one interface, both collected from the answer
// pipeline (query/answers.h):
//   * ranked evaluation by E_max (Theorem 4.3) with confidences attached,
//   * the naive two-step strategy the paper argues against (§1, §3.2):
//     enumerate every answer (Theorem 4.1), then compute each
//     confidence — the baseline bench_twostep_vs_ranked measures against
//     ranked top-k.

#ifndef TMS_QUERY_EVALUATOR_H_
#define TMS_QUERY_EVALUATOR_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "exec/engine_options.h"
#include "markov/markov_sequence.h"
#include "query/answers.h"
#include "transducer/transducer.h"

namespace tms::query {

/// Facade over the §4 algorithms for one (μ, A^ω) pair.
class Evaluator {
 public:
  /// Fails if the node set of `mu` differs from the input alphabet of `t`.
  static StatusOr<Evaluator> Create(const markov::MarkovSequence* mu,
                                    const transducer::Transducer* t);

  /// Optional execution resources, all non-owning (they must outlive the
  /// evaluator). `pool` parallelizes the subspace solves inside TopK;
  /// `cache` shares composed transducers across evaluators of the same
  /// transducer (db::BatchEvaluator passes one cache for a whole
  /// collection) and must be bound to the evaluator's `t`. `run` bounds
  /// TopK / EvaluateTwoStep (deadline, answer cap, work budget,
  /// cancellation): on truncation they return the partial result with an
  /// OK StatusOr — a valid prefix of the unbounded result — and
  /// `run->status()` / `run->truncated()` carry the structured reason
  /// (docs/ROBUSTNESS.md). `backend` selects the kernel path of every DP
  /// underneath (kernels/backend.h).
  void set_execution(const exec::EngineOptions& execution) {
    execution_ = execution;
  }

  /// Top-k answers by decreasing E_max, each with its confidence (the
  /// best applicable algorithm per Confidence()).
  StatusOr<std::vector<AnswerInfo>> TopK(int k) const;

  /// All answers, unranked (lexicographic), each with its confidence.
  /// This is the naive two-step evaluation; it may produce exponentially
  /// many answers.
  StatusOr<std::vector<AnswerInfo>> EvaluateTwoStep() const;

  /// Confidence of one answer (dispatching facade).
  StatusOr<double> Confidence(const Str& o) const;

  /// E_max of one answer, or nullopt if o is not an answer.
  std::optional<double> Emax(const Str& o) const;

  const markov::MarkovSequence& mu() const { return *mu_; }
  const transducer::Transducer& transducer() const { return *t_; }

 private:
  Evaluator(const markov::MarkovSequence* mu, const transducer::Transducer* t)
      : mu_(mu), t_(t) {}

  const markov::MarkovSequence* mu_;
  const transducer::Transducer* t_;
  exec::EngineOptions execution_;
};

}  // namespace tms::query

#endif  // TMS_QUERY_EVALUATOR_H_
