// The answer pipeline: query text in, answers with exact confidences out.
//
// The paper defines one answer stream per query: answers in decreasing
// E_max for a transducer (Theorem 4.3) or in decreasing I_max for an
// s-projector (Theorem 5.2), each carrying its exact confidence
// (Theorems 4.6–4.9, 5.5). AnswerPipeline is that stream. It builds the
// engine through query::MakeEnumerator, attaches the confidence of every
// answer it emits, and records the `query.topk.*` metrics. tms_server's
// /query, tms_cli's topk / enum / explain, and query::Evaluator (hence
// db::BatchEvaluator, /batch and db::SequenceCollection) all pull their
// answers from it, so every ranked stream is computed and measured by
// this one loop. Callers serialize each answer with serve::AppendAnswerJson,
// using score_key() and output_alphabet().

#ifndef TMS_QUERY_ANSWERS_H_
#define TMS_QUERY_ANSWERS_H_

#include <memory>
#include <optional>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"
#include "exec/engine_options.h"
#include "markov/markov_sequence.h"
#include "obs/delay.h"
#include "projector/sprojector.h"
#include "ranking/answer_stream.h"
#include "transducer/transducer.h"

namespace tms::query {

/// One evaluated answer.
struct AnswerInfo {
  Str output;
  /// The ranking score: E_max, or I_max on an s-projector stream
  /// (AnswerPipeline::score_key() names it). 0 on an unranked stream.
  double emax = 0.0;
  /// Pr(S →[A^ω]→ o). 0 on an AnswerMode::kEnum stream.
  double confidence = 0.0;
};

/// A parsed query: a transducer (§4) or an s-projector (§5).
using Query = std::variant<transducer::Transducer, projector::SProjector>;

/// Parses query text in the io/ text format. Text of any other format
/// (e.g. a markov-sequence) is InvalidArgument.
StatusOr<Query> ParseQuery(std::string_view text);

/// The query as a transducer: an s-projector becomes its equivalent
/// transducer (SProjector::ToTransducer), for the E_max-only batch layer.
transducer::Transducer AsTransducer(Query query);

/// Which stream an AnswerPipeline produces.
enum class AnswerMode {
  /// Decreasing E_max (transducer) or I_max (s-projector), each answer
  /// with its exact confidence. Records `query.topk.*`.
  kRanked,
  /// The unranked stream of Theorem 4.1, without scores or confidences
  /// (`mode=enum`, `tms_cli enum`).
  kEnum,
  /// The unranked stream, each answer with its exact confidence: the
  /// naive two-step evaluation of §1. Records `query.twostep.*`.
  kTwoStep,
};

class AnswerPipeline {
 public:
  /// Borrows `mu`, the query and everything `options` points to: all must
  /// outlive the pipeline. Fails before any answer on an alphabet
  /// mismatch or an invalid transducer. `options.backend` also selects
  /// the kernel path of the confidence DP.
  static StatusOr<AnswerPipeline> Create(
      const markov::MarkovSequence& mu, const transducer::Transducer& t,
      AnswerMode mode, const exec::EngineOptions& options = {});
  static StatusOr<AnswerPipeline> Create(
      const markov::MarkovSequence& mu, const projector::SProjector& p,
      AnswerMode mode, const exec::EngineOptions& options = {});
  static StatusOr<AnswerPipeline> Create(
      const markov::MarkovSequence& mu, const Query& query, AnswerMode mode,
      const exec::EngineOptions& options = {});

  /// The next answer; nullopt once the stream is exhausted or truncated by
  /// `options.run` (a clean prefix either way). An error when a confidence
  /// computation fails.
  StatusOr<std::optional<AnswerInfo>> Next();

  /// Up to `limit` answers: Next() until the stream ends.
  StatusOr<std::vector<AnswerInfo>> Take(int64_t limit);

  /// The wire name of AnswerInfo::emax: "emax", or "imax" for an
  /// s-projector.
  const char* score_key() const { return p_ != nullptr ? "imax" : "emax"; }

  /// The alphabet of the answer strings.
  const Alphabet& output_alphabet() const;

 private:
  AnswerPipeline(const markov::MarkovSequence& mu,
                 const transducer::Transducer* t,
                 const projector::SProjector* p, AnswerMode mode,
                 kernels::BackendChoice backend)
      : mu_(&mu), t_(t), p_(p), mode_(mode), backend_(backend) {}

  // Takes the engine MakeEnumerator built, or its error.
  Status Start(StatusOr<std::unique_ptr<ranking::AnswerStream>> stream);
  StatusOr<double> Confidence(const Str& o) const;

  const markov::MarkovSequence* mu_;
  const transducer::Transducer* t_;  // null for an s-projector
  const projector::SProjector* p_;   // null for a transducer
  // An s-projector's equivalent transducer, for the unranked engine.
  std::unique_ptr<const transducer::Transducer> converted_;
  AnswerMode mode_;
  kernels::BackendChoice backend_;
  std::unique_ptr<ranking::AnswerStream> stream_;
  // End-to-end per-answer delay of a ranked stream, confidence included:
  // what a top-k client waits between answers.
  std::optional<obs::DelayRecorder> delay_;
};

}  // namespace tms::query

#endif  // TMS_QUERY_ANSWERS_H_
