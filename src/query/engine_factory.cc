#include "query/engine_factory.h"

#include <utility>

#include "projector/imax_enum.h"
#include "query/emax_enum.h"
#include "query/unranked_enum.h"

namespace tms::query {
namespace {

Status ValidatePair(const markov::MarkovSequence& mu,
                    const transducer::Transducer& t) {
  if (!(mu.nodes() == t.input_alphabet())) {
    return Status::InvalidArgument(
        "Markov sequence node set and transducer input alphabet differ");
  }
  return t.Validate();
}

}  // namespace

const char* EnumeratorKindName(EnumeratorKind kind) {
  switch (kind) {
    case EnumeratorKind::kEmax:
      return "emax";
    case EnumeratorKind::kUnranked:
      return "unranked";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<ranking::AnswerStream>> MakeEnumerator(
    EnumeratorKind kind, const markov::MarkovSequence& mu,
    const transducer::Transducer& t, const exec::EngineOptions& options) {
  TMS_RETURN_IF_ERROR(ValidatePair(mu, t));
  switch (kind) {
    case EnumeratorKind::kEmax:
      return std::unique_ptr<ranking::AnswerStream>(
          std::make_unique<EmaxEnumerator>(mu, t, options));
    case EnumeratorKind::kUnranked:
      return std::unique_ptr<ranking::AnswerStream>(
          std::make_unique<UnrankedEnumerator>(mu, t, options));
  }
  return Status::InvalidArgument("unknown enumerator kind");
}

StatusOr<std::unique_ptr<ranking::AnswerStream>> MakeEnumerator(
    const markov::MarkovSequence& mu, const projector::SProjector& p,
    const exec::EngineOptions& options) {
  auto it = projector::ImaxEnumerator::Create(&mu, &p, options);
  if (!it.ok()) return it.status();
  return std::unique_ptr<ranking::AnswerStream>(
      std::make_unique<projector::ImaxEnumerator>(std::move(it).value()));
}

}  // namespace tms::query
