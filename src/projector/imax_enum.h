// I_max scoring and n-approximate ranked enumeration for s-projectors —
// Proposition 5.9, Lemma 5.10, Theorem 5.2.
//
// For an s-projector answer o, I_max(o) = max_i Pr(S →[B]↓A[E]→ (o, i)) —
// the best *indexed occurrence* of o. Proposition 5.9 bounds
//   I_max(o) ≤ conf(o) ≤ n · I_max(o),
// so enumerating distinct outputs in decreasing I_max (Lemma 5.10) is an
// n-approximate enumeration by confidence (Theorem 5.2) — exponentially
// better than the |Σ|^n ratio available for general transducers.
//
// The poly-delay enumeration combines the Lawler–Murty engine over
// output-prefix constraints with the Theorem 5.7 machinery: the top answer
// of a subspace is the best path of the constraint-augmented indexed DAG.

#ifndef TMS_PROJECTOR_IMAX_ENUM_H_
#define TMS_PROJECTOR_IMAX_ENUM_H_

#include <memory>
#include <optional>
#include <set>

#include "exec/engine_options.h"
#include "markov/markov_sequence.h"
#include "projector/indexed_confidence.h"
#include "projector/indexed_enum.h"
#include "projector/sprojector.h"
#include "ranking/answer_stream.h"
#include "ranking/lawler.h"

namespace tms::projector {

/// I_max(o): the maximum, over admissible indices i, of the indexed
/// confidence of (o, i). Zero iff o is not an answer.
double ImaxOfAnswer(const IndexedConfidence& conf, const Str& o);

/// Streams the distinct outputs of P(μ) in nonincreasing I_max — an
/// n-approximate decreasing-confidence order with polynomial delay.
class ImaxEnumerator : public ranking::AnswerStream {
 public:
  /// Fails on alphabet mismatch. `mu` and `p` are non-owning and must
  /// outlive the enumerator; the shared solver state (context tables) is
  /// owned and pinned by the solver itself.
  ///
  /// Of EngineOptions this engine uses `pool` and `run`. `pool` solves the
  /// child subspaces of each pop concurrently — the solver only reads the
  /// immutable inputs and tables, and results merge in child order, so
  /// output is byte-identical at every thread count. `run` bounds the run
  /// (deadline / answer cap / work budget / cancellation; see
  /// exec/run_context.h) — a truncated stream is an exact prefix of the
  /// unbounded one. The s-projector DP walks the indexed DAG rather than
  /// transition matrices, so `backend` has no effect here.
  static StatusOr<ImaxEnumerator> Create(
      const markov::MarkovSequence* mu, const SProjector* p,
      const exec::EngineOptions& options = {});

  /// The next answer (score = its I_max), or nullopt when exhausted.
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
  ImaxEnumerator(std::shared_ptr<State> state,
                 const exec::EngineOptions& options);

  std::shared_ptr<State> state_;
  std::unique_ptr<ranking::LawlerEnumerator> lawler_;
};

/// Convenience: the k outputs with the highest I_max.
std::vector<ranking::ScoredAnswer> TopKByImax(const markov::MarkovSequence& mu,
                                              const SProjector& p, int k);

/// The first strategy the paper describes in the proof of Lemma 5.10:
/// run the Theorem 5.7 indexed enumeration and suppress duplicate output
/// strings. Emits the same (output, I_max) stream as ImaxEnumerator, but
/// only in INCREMENTAL POLYNOMIAL TIME — "a large chunk of duplicates may
/// be encountered", so polynomial delay is not guaranteed. Kept as the
/// ablation baseline for the Lawler-based ImaxEnumerator
/// (bench_sprojector compares them).
class SimpleImaxEnumerator {
 public:
  /// Fails on alphabet mismatch.
  static StatusOr<SimpleImaxEnumerator> Create(
      const markov::MarkovSequence* mu, const SProjector* p);

  /// The next distinct output (score = its I_max), or nullopt.
  std::optional<ranking::ScoredAnswer> Next();

  /// Indexed answers consumed so far (duplicates included) — the
  /// incremental-time cost measure.
  int64_t consumed() const { return consumed_; }

 private:
  explicit SimpleImaxEnumerator(IndexedEnumerator inner)
      : inner_(std::move(inner)) {}

  IndexedEnumerator inner_;
  std::set<Str> seen_;
  int64_t consumed_ = 0;
};

}  // namespace tms::projector

#endif  // TMS_PROJECTOR_IMAX_ENUM_H_
