#include "query/emax_enum.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "obs/obs.h"
#include "optimize/transducer_opt.h"
#include "query/emax.h"

namespace tms::query {

// Everything the subspace solver touches. The solver lambda holds this via
// shared_ptr, so it stays valid however the enumerator is moved; with
// owned inputs it also pins the Markov sequence itself (the pre-State
// solver captured the constructor arguments by reference and dangled as
// soon as a caller passed temporaries). The transducer needs no pin: the
// state keeps its own pruned copy.
struct EmaxEnumerator::State {
  // Set only by WithOwnedInputs; `mu` points here in that case.
  std::optional<markov::MarkovSequence> owned_mu;

  const markov::MarkovSequence* mu = nullptr;

  // Built after mu is fixed (Init).
  std::optional<EmaxContext> ctx;
  std::optional<transducer::Transducer> query;  // optimize::PruneTransducer(t)

  void Init(const transducer::Transducer& t,
            const exec::EngineOptions& options) {
    ctx.emplace(*mu, options.backend);
    query.emplace(optimize::PruneTransducer(t));
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
        ProductStats product;
        auto best = s->ctx->TopAnswer(*s->query, c, &product);
        // compose_ns is the live-product build, solve_ns the DP after it.
        // An empty product counts as the one state PruneTransducer would
        // have left of it.
        TMS_OBS_HISTOGRAM("query.emax_enum.compose_ns", product.build_ns);
        TMS_OBS_HISTOGRAM("query.emax_enum.solve_ns",
                          sw.ElapsedNanos() - product.build_ns);
        TMS_OBS_HISTOGRAM("query.emax_enum.composed_states",
                          std::max(product.live_pairs, 1));
        TMS_OBS_COUNT("optimize.product_states_pruned",
                      product.product_pairs - product.live_pairs);
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
