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
//   * NextWith(task) is Next() plus `task` run once on the answer it
//     returns, before it returns. Lawler-based ranked engines with a pool
//     run the task beside the popped answer's child solves; every other
//     stream runs it after finding the answer. The answer is the same
//     either way (query::AnswerPipeline passes each answer's confidence).
//
// Engines borrow their inputs (μ, the query, everything exec::
// EngineOptions points to): the caller keeps them alive for the stream's
// lifetime.

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

/// Work to run on an answer (AnswerStream::NextWith). A borrowed callable:
/// a function pointer plus the callable's address, so handing one to a
/// stream allocates nothing. The callable must outlive the NextWith call;
/// a lambda written inline in that call does.
class AnswerTask {
 public:
  /// No task.
  AnswerTask() = default;

  template <typename Fn>
  explicit AnswerTask(const Fn& fn)
      : fn_(&fn), call_([](const void* f, const ScoredAnswer& answer) {
          (*static_cast<const Fn*>(f))(answer);
        }) {}

  explicit operator bool() const { return call_ != nullptr; }
  void operator()(const ScoredAnswer& answer) const { call_(fn_, answer); }

 private:
  const void* fn_ = nullptr;
  void (*call_)(const void*, const ScoredAnswer&) = nullptr;
};

/// Pull-stream interface implemented by all enumeration engines.
class AnswerStream {
 public:
  virtual ~AnswerStream() = default;

  /// The next answer, or nullopt when exhausted (or truncated by the
  /// engine's RunContext); nullopt is sticky.
  virtual std::optional<ScoredAnswer> Next() = 0;

  /// Next(), with `task` (if any) run exactly once on the answer it
  /// returns and never when it returns nullopt. The task may run on a
  /// pool thread concurrently with the engine's own work, so it must
  /// write nothing but its own result. This default runs it after Next().
  virtual std::optional<ScoredAnswer> NextWith(const AnswerTask& task) {
    std::optional<ScoredAnswer> answer = Next();
    if (answer.has_value() && task) task(*answer);
    return answer;
  }
};

}  // namespace tms::ranking

#endif  // TMS_RANKING_ANSWER_STREAM_H_
