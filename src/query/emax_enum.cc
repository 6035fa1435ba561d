#include "query/emax_enum.h"

#include <utility>

#include "common/stopwatch.h"
#include "obs/obs.h"
#include "query/emax.h"

namespace tms::query {

// Everything the subspace solver touches. The solver lambda holds this via
// shared_ptr, so it stays valid however the enumerator is moved; with
// owned inputs it also pins the Markov sequence itself (the pre-State
// solver captured the constructor arguments by reference and dangled as
// soon as a caller passed temporaries). The transducer needs no pin: the
// composition cache keeps its own pruned copy.
struct EmaxEnumerator::State {
  // Set only by WithOwnedInputs; `mu` points here in that case.
  std::optional<markov::MarkovSequence> owned_mu;

  const markov::MarkovSequence* mu = nullptr;

  // Built after mu is fixed (Init).
  std::optional<EmaxContext> ctx;
  std::optional<transducer::CompositionCache> owned_cache;
  transducer::CompositionCache* cache = nullptr;

  void Init(const transducer::Transducer& t,
            const exec::EngineOptions& options) {
    ctx.emplace(*mu, options.backend);
    if (options.cache != nullptr) {
      cache = options.cache;
    } else {
      owned_cache.emplace(t);
      cache = &*owned_cache;
    }
  }
};

EmaxEnumerator::EmaxEnumerator(std::shared_ptr<State> state,
                               const exec::EngineOptions& options)
    : state_(std::move(state)) {
  std::shared_ptr<State> s = state_;
  lawler_ = std::make_unique<ranking::LawlerEnumerator>(
      [s](const ranking::OutputConstraint& c)
          -> std::optional<ranking::ScoredAnswer> {
        TMS_OBS_SPAN("query.emax_enum.subspace_solve");
        Stopwatch sw;
        std::shared_ptr<const transducer::Transducer> composed =
            s->cache->Compose(c);
        TMS_OBS_HISTOGRAM("query.emax_enum.compose_ns", sw.Lap());
        TMS_OBS_HISTOGRAM("query.emax_enum.composed_states",
                          composed->num_states());
        auto best = s->ctx->TopAnswer(*composed);
        TMS_OBS_HISTOGRAM("query.emax_enum.solve_ns", sw.Lap());
        if (!best.has_value()) return std::nullopt;
        return ranking::ScoredAnswer{std::move(best->output), best->prob};
      },
      options.pool, options.run);
}

EmaxEnumerator::EmaxEnumerator(const markov::MarkovSequence& mu,
                               const transducer::Transducer& t,
                               const exec::EngineOptions& options)
    : EmaxEnumerator(
          [&mu, &t, &options] {
            auto state = std::make_shared<State>();
            state->mu = &mu;
            state->Init(t, options);
            return state;
          }(),
          options) {}

EmaxEnumerator EmaxEnumerator::WithOwnedInputs(
    markov::MarkovSequence mu, transducer::Transducer t,
    const exec::EngineOptions& options) {
  auto state = std::make_shared<State>();
  state->owned_mu.emplace(std::move(mu));
  state->mu = &*state->owned_mu;
  state->Init(t, options);
  return EmaxEnumerator(std::move(state), options);
}

std::optional<ranking::ScoredAnswer> EmaxEnumerator::NextWith(
    const ranking::AnswerTask& task) {
  obs::ScopeAdoption adopt(obs_ctx_);
  auto answer = lawler_->NextWith(task);
  if (answer.has_value()) {
    TMS_OBS_COUNT("query.emax_enum.answers", 1);
    delay_.RecordAnswer();
  }
  return answer;
}

std::vector<ranking::ScoredAnswer> TopKByEmax(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    int k) {
  EmaxEnumerator it(mu, t);
  std::vector<ranking::ScoredAnswer> out;
  for (int i = 0; i < k; ++i) {
    auto answer = it.Next();
    if (!answer.has_value()) break;
    out.push_back(std::move(*answer));
  }
  return out;
}

}  // namespace tms::query
