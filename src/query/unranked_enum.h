// Unranked enumeration of A^ω(μ) — Theorem 4.1.
//
// Enumerates every answer (string with nonzero probability of being
// transduced) with polynomial delay and polynomial space, ignoring
// confidence. The algorithm is the paper's constraint-partitioning
// technique [34] instantiated with prefix constraints: a depth-first
// "flashlight" search over the output prefix tree that descends into a
// prefix w·d only after the oracle HasAnswerWithPrefix(w·d) certifies that
// some answer lies below — so every visited node leads to an unemitted
// answer, bounding the delay by O(L · |Δ|) oracle calls (L = maximum
// answer length ≤ n · max-emission). Answers appear in lexicographic
// order of output-symbol ids.

#ifndef TMS_QUERY_UNRANKED_ENUM_H_
#define TMS_QUERY_UNRANKED_ENUM_H_

#include <optional>
#include <vector>

#include "exec/engine_options.h"
#include "exec/run_context.h"
#include "markov/markov_sequence.h"
#include "obs/query_scope.h"
#include "ranking/answer_stream.h"
#include "transducer/transducer.h"

namespace tms::query {

/// Streams A^ω(μ) with polynomial delay and polynomial space. Scores are
/// 0.0 (this engine makes no ranking claim; see ranking/answer_stream.h).
/// The constructor borrows μ, which must outlive the enumerator, and reads
/// the transducer only to prune its own copy.
///
/// Of EngineOptions this engine uses `run` and `backend`: with a
/// RunContext (non-owning; null = unbounded) every emptiness-oracle
/// call charges one work unit and the DFS checks for cancellation and the
/// deadline between oracle calls, so a stop request is honored within one
/// oracle call — well inside the one-answer-delay truncation contract
/// (docs/ROBUSTNESS.md). A stopped run returns nullopt forever after; the
/// answers already emitted are an exact prefix of the unbounded stream.
/// `backend` selects the kernel path of the membership oracle (identical
/// verdicts either way, see query/membership.h). Every oracle call runs
/// on the pruned transducer (optimize/transducer_opt.h): the prune
/// preserves the transduction relation exactly, so the lexicographic
/// answer stream is that of the transducer as given.
class UnrankedEnumerator : public ranking::AnswerStream {
 public:
  UnrankedEnumerator(const markov::MarkovSequence& mu,
                     const transducer::Transducer& t,
                     const exec::EngineOptions& options = {});

  /// The next answer in lexicographic order (score = 0.0), or nullopt
  /// when exhausted.
  std::optional<ranking::ScoredAnswer> Next() override;

  /// Number of emptiness-oracle calls made so far (delay instrumentation
  /// for the Theorem 4.1 bench).
  int64_t oracle_calls() const { return oracle_calls_; }

 private:
  // True (and latching the context's stop reason) when the run must stop;
  // also the home of the per-oracle-call budget charge.
  bool StopBeforeOracleCall();

  const markov::MarkovSequence* mu_;
  // The pruned copy of the query; the caller's transducer is only read
  // during construction.
  transducer::Transducer t_;
  exec::RunContext* run_;
  kernels::BackendChoice backend_;
  Str prefix_;
  // One frame per prefix level: the next output symbol to try there.
  std::vector<Symbol> next_symbol_;
  size_t max_output_len_;
  bool started_ = false;
  bool done_ = false;
  int64_t oracle_calls_ = 0;
  // Trace context of the constructing thread: Next() re-adopts it, so the
  // oracle metrics attribute to the query that built the stream.
  obs::TraceContext obs_ctx_{obs::CurrentTraceContext()};
};

/// Convenience: materializes all answers (exponential in the worst case).
std::vector<Str> AllAnswers(const markov::MarkovSequence& mu,
                            const transducer::Transducer& t);

}  // namespace tms::query

#endif  // TMS_QUERY_UNRANKED_ENUM_H_
