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
  if (mode_ == AnswerMode::kRanked) delay_.emplace("query.topk");
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
  std::optional<ranking::ScoredAnswer> answer = stream_->Next();
  if (!answer.has_value()) return std::optional<AnswerInfo>();
  AnswerInfo info{std::move(answer->output), answer->score, 0.0};
  if (mode_ == AnswerMode::kEnum) {
    return std::optional<AnswerInfo>(std::move(info));
  }
#if TMS_OBS_ACTIVE
  const int64_t confidence_start_ns = obs::MonotonicNanos();
#endif
  StatusOr<double> confidence = Confidence(info.output);
  if (!confidence.ok()) return confidence.status();
  info.confidence = *confidence;
  if (mode_ == AnswerMode::kRanked) {
    TMS_OBS_COUNT("query.topk.confidence_calls", 1);
    TMS_OBS_HISTOGRAM("query.topk.confidence_ns",
                      obs::MonotonicNanos() - confidence_start_ns);
    TMS_OBS_COUNT("query.topk.answers", 1);
    delay_->RecordAnswer();
  } else {
    TMS_OBS_COUNT("query.twostep.confidence_calls", 1);
    TMS_OBS_COUNT("query.twostep.answers", 1);
  }
  return std::optional<AnswerInfo>(std::move(info));
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
