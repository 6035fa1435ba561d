#include "query/emax_enum.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "obs/obs.h"
#include "optimize/transducer_opt.h"
#include "query/emax.h"

namespace tms::query {

// Everything the subspace solver touches. The solver lambda holds this via
// shared_ptr, so it stays valid however the enumerator is moved. The
// transducer needs no pin: the state keeps its own pruned copy.
struct EmaxEnumerator::State {
  EmaxContext ctx;               // borrows the Markov sequence
  transducer::Transducer query;  // optimize::PruneTransducer(t)

  State(const markov::MarkovSequence& mu, const transducer::Transducer& t,
        kernels::BackendChoice backend)
      : ctx(mu, backend), query(optimize::PruneTransducer(t)) {}
};

EmaxEnumerator::EmaxEnumerator(const markov::MarkovSequence& mu,
                               const transducer::Transducer& t,
                               const exec::EngineOptions& options)
    : state_(std::make_shared<State>(mu, t, options.backend)) {
  std::shared_ptr<State> s = state_;
  lawler_ = std::make_unique<ranking::LawlerEnumerator>(
      [s](const ranking::OutputConstraint& c)
          -> std::optional<ranking::ScoredAnswer> {
        TMS_OBS_SPAN("query.emax_enum.subspace_solve");
        Stopwatch sw;
        ProductStats product;
        auto best = s->ctx.TopAnswer(s->query, c, &product);
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
