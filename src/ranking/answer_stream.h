// The common answer-stream interface of the enumeration engines.
//
// Every enumerator in the repository — ranked (EmaxEnumerator,
// ImaxEnumerator, the LawlerEnumerator they wrap) and unranked
// (UnrankedEnumerator) — is a pull stream: repeated Next() calls yield
// answers until nullopt, which is sticky. AnswerStream is that shape as
// an interface, so query::AnswerPipeline (query/answers.h) holds any
// engine behind one pointer obtained from query::MakeEnumerator; the
// server, tms_cli, query::Evaluator and db::BatchEvaluator all take their
// answers from that pipeline.
//
// Stream contract:
//   * Ranked engines emit in nonincreasing score; ties are broken
//     deterministically, so the stream is identical run over run and at
//     any thread count. Unranked engines emit in their documented
//     deterministic order with score 0.0 (no ranking claim).
//   * Under a bounded exec::RunContext the emitted answers are an exact
//     prefix of the unbounded stream (see docs/ROBUSTNESS.md).
//   * Next() is not thread-safe; one consumer at a time.
//
// Borrow-vs-own construction contract (uniform across engines):
//   * Plain constructors / Create() overloads BORROW their model inputs
//     (μ, the transducer or s-projector) by reference: the caller must
//     keep them alive for the engine's lifetime. Everything inside
//     exec::EngineOptions is likewise borrowed.
//   * Every engine also provides WithOwnedInputs(...), which moves copies
//     of the model inputs into the engine's shared state — safe even when
//     the caller's originals are temporaries or die before the stream
//     does. EngineOptions pointers stay borrowed even then.

#ifndef TMS_RANKING_ANSWER_STREAM_H_
#define TMS_RANKING_ANSWER_STREAM_H_

#include <optional>

#include "strings/str.h"

namespace tms::ranking {

/// An enumerated answer with its score (higher = better; 0.0 from
/// unranked engines).
struct ScoredAnswer {
  Str output;
  double score = 0.0;
};

/// Pull-stream interface implemented by all enumeration engines.
class AnswerStream {
 public:
  virtual ~AnswerStream() = default;

  /// The next answer, or nullopt when exhausted (or truncated by the
  /// engine's RunContext); nullopt is sticky.
  virtual std::optional<ScoredAnswer> Next() = 0;
};

}  // namespace tms::ranking

#endif  // TMS_RANKING_ANSWER_STREAM_H_
