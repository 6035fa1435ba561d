#include "query/answers.h"

#include <utility>

#include "io/text_format.h"
#include "obs/obs.h"
#include "projector/sprojector_confidence.h"
#include "query/confidence.h"
#include "query/engine_factory.h"

namespace tms::query {

StatusOr<Query> ParseQuery(std::string_view text) {
  auto format = io::DetectFormat(text);
  if (!format.ok()) return format.status();
  if (*format == "transducer") {
    auto t = io::ParseTransducer(text);
    if (!t.ok()) return t.status();
    return Query(std::move(t).value());
  }
  if (*format == "s-projector") {
    auto p = io::ParseSProjector(text);
    if (!p.ok()) return p.status();
    return Query(std::move(p).value());
  }
  return Status::InvalidArgument(
      "query must be a transducer or an s-projector, got: " + *format);
}

transducer::Transducer AsTransducer(Query query) {
  if (const auto* p = std::get_if<projector::SProjector>(&query)) {
    return p->ToTransducer();
  }
  return std::get<transducer::Transducer>(std::move(query));
}

const char* MetricPrefix(AnswerMode mode) {
  switch (mode) {
    case AnswerMode::kRanked:
      return "query.topk";
    case AnswerMode::kEnum:
      return "query.enum";
    case AnswerMode::kTwoStep:
      return "query.twostep";
  }
  return "query.unknown";
}

StatusOr<AnswerPipeline> AnswerPipeline::Create(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    AnswerMode mode, const exec::EngineOptions& options) {
  AnswerPipeline pipeline(mu, &t, nullptr, mode, options.backend);
  TMS_RETURN_IF_ERROR(pipeline.Start(MakeEnumerator(
      mode == AnswerMode::kRanked ? EnumeratorKind::kEmax
                                  : EnumeratorKind::kUnranked,
      mu, t, options)));
  return pipeline;
}

StatusOr<AnswerPipeline> AnswerPipeline::Create(
    const markov::MarkovSequence& mu, const projector::SProjector& p,
    AnswerMode mode, const exec::EngineOptions& options) {
  AnswerPipeline pipeline(mu, nullptr, &p, mode, options.backend);
  if (mode == AnswerMode::kRanked) {
    TMS_RETURN_IF_ERROR(pipeline.Start(MakeEnumerator(mu, p, options)));
  } else {
    pipeline.converted_ =
        std::make_unique<const transducer::Transducer>(p.ToTransducer());
    TMS_RETURN_IF_ERROR(pipeline.Start(MakeEnumerator(
        EnumeratorKind::kUnranked, mu, *pipeline.converted_, options)));
  }
  return pipeline;
}

StatusOr<AnswerPipeline> AnswerPipeline::Create(
    const markov::MarkovSequence& mu, const Query& query, AnswerMode mode,
    const exec::EngineOptions& options) {
  return std::visit(
      [&](const auto& q) { return Create(mu, q, mode, options); }, query);
}

Status AnswerPipeline::Start(
    StatusOr<std::unique_ptr<ranking::AnswerStream>> stream) {
  if (!stream.ok()) return stream.status();
  stream_ = std::move(stream).value();
  delay_.Restart();
  return Status::Ok();
}

const Alphabet& AnswerPipeline::output_alphabet() const {
  if (converted_ != nullptr) return converted_->output_alphabet();
  return t_ != nullptr ? t_->output_alphabet() : p_->alphabet();
}

StatusOr<double> AnswerPipeline::Confidence(const Str& o) const {
  if (p_ != nullptr) return projector::SProjectorConfidence(*mu_, *p_, o);
  return query::Confidence(*mu_, *t_, o, backend_);
}

StatusOr<std::optional<AnswerInfo>> AnswerPipeline::Next() {
  // The confidence is a pure function of (μ, query, answer), so the stream
  // may compute it beside the pop's child solves, on any pool thread.
  StatusOr<double> confidence = 0.0;
  int64_t confidence_ns = 0;
  auto confidence_task = [this, &confidence, &confidence_ns](
                             const ranking::ScoredAnswer& answer) {
    const int64_t start_ns = obs::MonotonicNanos();
    confidence = Confidence(answer.output);
    confidence_ns = obs::MonotonicNanos() - start_ns;
  };
  std::optional<ranking::ScoredAnswer> answer = stream_->NextWith(
      mode_ == AnswerMode::kEnum ? ranking::AnswerTask()
                                 : ranking::AnswerTask(confidence_task));
  if (!answer.has_value()) return std::optional<AnswerInfo>();
  if (!confidence.ok()) return confidence.status();
  if (mode_ == AnswerMode::kRanked) {
    TMS_OBS_HISTOGRAM("query.topk.confidence_ns", confidence_ns);
  } else if (mode_ == AnswerMode::kTwoStep) {
    TMS_OBS_HISTOGRAM("query.twostep.confidence_ns", confidence_ns);
  }
  (void)confidence_ns;  // unread in the compiled-out build
  delay_.RecordAnswer();
  return std::optional<AnswerInfo>(
      AnswerInfo{std::move(answer->output), answer->score, *confidence});
}

StatusOr<std::vector<AnswerInfo>> AnswerPipeline::Take(int64_t limit) {
  std::vector<AnswerInfo> out;
  while (static_cast<int64_t>(out.size()) < limit) {
    auto answer = Next();
    if (!answer.ok()) return answer.status();
    if (!answer->has_value()) break;
    out.push_back(std::move(**answer));
  }
  return out;
}

}  // namespace tms::query
