#include "projector/imax_enum.h"

#include <cmath>

#include "common/check.h"
#include "graph/dag.h"
#include "obs/obs.h"
#include "projector/indexed_enum.h"

namespace tms::projector {

double ImaxOfAnswer(const IndexedConfidence& conf, const Str& o) {
  double best = 0.0;
  const int n = conf.tables().length();
  const int last = o.empty() ? n + 1 : n - static_cast<int>(o.size()) + 1;
  for (int i = 1; i <= last; ++i) {
    best = std::max(best, conf.Confidence(IndexedAnswer{o, i}));
  }
  return best;
}

struct ImaxEnumerator::State {
  const markov::MarkovSequence* mu;
  const SProjector* p;
  ContextTables tables;

  State(const markov::MarkovSequence* mu_in, const SProjector* p_in)
      : mu(mu_in), p(p_in), tables(*mu_in, p_in->prefix(), p_in->suffix()) {}
};

ImaxEnumerator::ImaxEnumerator(std::shared_ptr<State> state,
                               const exec::EngineOptions& options)
    : state_(std::move(state)) {
  std::shared_ptr<State> s = state_;
  lawler_ = std::make_unique<ranking::LawlerEnumerator>(
      [s](const ranking::OutputConstraint& c)
          -> std::optional<ranking::ScoredAnswer> {
        TMS_OBS_SPAN("projector.imax_enum.subspace_solve");
#if TMS_OBS_ACTIVE
        const int64_t solve_start_ns = obs::MonotonicNanos();
#endif
        IndexedDag dag = BuildIndexedDag(*s->mu, *s->p, s->tables, &c);
        TMS_OBS_HISTOGRAM("projector.imax_enum.dag_nodes",
                          dag.dag.num_nodes());
        auto path = graph::BestPath(dag.dag, dag.source, dag.sink);
        TMS_OBS_HISTOGRAM("projector.imax_enum.solve_ns",
                          obs::MonotonicNanos() - solve_start_ns);
        if (!path.ok()) return std::nullopt;
        IndexedAnswer answer = dag.Decode(*path);
        return ranking::ScoredAnswer{std::move(answer.output),
                                     std::exp(-path->cost)};
      },
      options.pool, options.run);
}

StatusOr<ImaxEnumerator> ImaxEnumerator::Create(
    const markov::MarkovSequence* mu, const SProjector* p,
    const exec::EngineOptions& options) {
  if (mu == nullptr || p == nullptr) {
    return Status::InvalidArgument("ImaxEnumerator requires non-null args");
  }
  if (!(mu->nodes() == p->alphabet())) {
    return Status::InvalidArgument(
        "Markov sequence node set and s-projector alphabet differ");
  }
  return ImaxEnumerator(std::make_shared<State>(mu, p), options);
}

StatusOr<SimpleImaxEnumerator> SimpleImaxEnumerator::Create(
    const markov::MarkovSequence* mu, const SProjector* p) {
  auto inner = IndexedEnumerator::Create(mu, p);
  if (!inner.ok()) return inner.status();
  return SimpleImaxEnumerator(std::move(inner).value());
}

std::optional<ranking::ScoredAnswer> SimpleImaxEnumerator::Next() {
  while (auto result = inner_.Next()) {
    ++consumed_;
    if (seen_.insert(result->answer.output).second) {
      // The first occurrence of an output in the confidence-sorted indexed
      // stream carries its best index, so the score IS I_max(o).
      return ranking::ScoredAnswer{std::move(result->answer.output),
                                   result->confidence};
    }
  }
  return std::nullopt;
}

std::vector<ranking::ScoredAnswer> TopKByImax(const markov::MarkovSequence& mu,
                                              const SProjector& p, int k) {
  auto it = ImaxEnumerator::Create(&mu, &p);
  TMS_CHECK(it.ok());
  std::vector<ranking::ScoredAnswer> out;
  for (int i = 0; i < k; ++i) {
    auto answer = it->Next();
    if (!answer.has_value()) break;
    out.push_back(std::move(*answer));
  }
  return out;
}

}  // namespace tms::projector
