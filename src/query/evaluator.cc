#include "query/evaluator.h"

#include <limits>

#include "obs/obs.h"
#include "query/confidence.h"
#include "query/emax.h"

namespace tms::query {

StatusOr<Evaluator> Evaluator::Create(const markov::MarkovSequence* mu,
                                      const transducer::Transducer* t) {
  if (mu == nullptr || t == nullptr) {
    return Status::InvalidArgument("Evaluator requires non-null mu and t");
  }
  if (!(mu->nodes() == t->input_alphabet())) {
    return Status::InvalidArgument(
        "Markov sequence node set and transducer input alphabet differ");
  }
  TMS_RETURN_IF_ERROR(t->Validate());
  return Evaluator(mu, t);
}

StatusOr<std::vector<AnswerInfo>> Evaluator::TopK(int k) const {
  TMS_OBS_SPAN("query.evaluator.topk");
  auto pipeline =
      AnswerPipeline::Create(*mu_, *t_, AnswerMode::kRanked, execution_);
  if (!pipeline.ok()) return pipeline.status();
  return pipeline->Take(k);
}

StatusOr<std::vector<AnswerInfo>> Evaluator::EvaluateTwoStep() const {
  TMS_OBS_SPAN("query.evaluator.two_step");
  auto pipeline =
      AnswerPipeline::Create(*mu_, *t_, AnswerMode::kTwoStep, execution_);
  if (!pipeline.ok()) return pipeline.status();
  return pipeline->Take(std::numeric_limits<int64_t>::max());
}

StatusOr<double> Evaluator::Confidence(const Str& o) const {
  return query::Confidence(*mu_, *t_, o, execution_.backend);
}

std::optional<double> Evaluator::Emax(const Str& o) const {
  auto ev = EmaxOfAnswer(*mu_, *t_, o);
  if (!ev.has_value()) return std::nullopt;
  return ev->prob;
}

}  // namespace tms::query
