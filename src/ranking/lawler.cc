#include "ranking/lawler.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "exec/fault.h"
#include "obs/obs.h"

namespace tms::ranking {

LawlerEnumerator::LawlerEnumerator(SubspaceSolver solver,
                                   exec::ThreadPool* pool,
                                   exec::RunContext* run)
    : solver_(std::move(solver)),
      pool_(pool),
      run_(run),
      obs_ctx_(obs::CurrentTraceContext()) {
  OutputConstraint all = OutputConstraint::All();
  auto best = Solve(all);
  if (best.has_value()) {
    heap_.push_back(Entry{std::move(*best), std::move(all)});
  }
}

std::optional<ScoredAnswer> LawlerEnumerator::Solve(
    const OutputConstraint& constraint) {
  // Bounded execution: one work unit per subspace solve. A failed charge
  // latches the stop reason in the context; treating the subspace as empty
  // is safe because the stream stops at the next answer boundary anyway.
  if (run_ != nullptr && !run_->ChargeWork()) return std::nullopt;
  if (TMS_FAULT_POINT("lawler.pre_solve")) {
    if (run_ != nullptr) run_->InjectFault("lawler.pre_solve");
    return std::nullopt;
  }
  TMS_OBS_COUNT("ranking.lawler.solver_calls", 1);
  auto best = solver_(constraint);
  if (!best.has_value()) {
    TMS_OBS_COUNT("ranking.lawler.empty_subspaces", 1);
    return std::nullopt;
  }
  if (!std::isfinite(best->score)) {
    TMS_OBS_COUNT("ranking.lawler.nonfinite_scores", 1);
    return std::nullopt;
  }
  return best;
}

std::optional<ScoredAnswer> LawlerEnumerator::NextWith(const AnswerTask& task) {
  obs::ScopeAdoption adopt(obs_ctx_);
  TMS_OBS_SPAN("ranking.lawler.next");
  // Answer boundary: a stopped run returns nullopt forever after, leaving
  // the already-emitted answers an exact prefix of the unbounded stream.
  if (run_ != nullptr && !run_->BeforeAnswer()) return std::nullopt;
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), EntryLess());
  Entry top = std::move(heap_.back());
  heap_.pop_back();
  std::vector<OutputConstraint> children =
      top.constraint.PartitionAfter(top.answer.output);
  const int64_t fanout = static_cast<int64_t>(children.size());
  // The children are independent solver calls, and the task reads only
  // the popped answer; fan them all out, then push the survivors in child
  // order so the heap is the same one the sequential engine builds.
  std::vector<std::optional<ScoredAnswer>> solved(children.size());
  const int64_t side = task ? 1 : 0;
  const int64_t items = side + fanout;
  auto run_item = [&](int64_t i) {
    if (i < side) {
      task(top.answer);
    } else {
      const size_t c = static_cast<size_t>(i - side);
      solved[c] = Solve(children[c]);
    }
  };
  if (pool_ != nullptr && items > 1) {
    // By reference, so the pool's std::function allocates nothing.
    pool_->ParallelFor(items, std::cref(run_item));
  } else {
    // Sequentially: the children first, then the task.
    for (int64_t i = side; i < items; ++i) run_item(i);
    if (side == 1) run_item(0);
  }
#if TMS_OBS_ACTIVE
  const int64_t merge_start_ns = obs::MonotonicNanos();
#endif
  int64_t pushed = 0;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!solved[i].has_value()) continue;
    if (TMS_FAULT_POINT("lawler.pre_heap_push")) {
      // Simulated allocation failure: the child is lost, so the stream
      // past this answer can no longer be trusted — stop the run.
      if (run_ != nullptr) run_->InjectFault("lawler.pre_heap_push");
      continue;
    }
    ++pushed;
    heap_.push_back(Entry{std::move(*solved[i]), std::move(children[i])});
    std::push_heap(heap_.begin(), heap_.end(), EntryLess());
  }
  TMS_OBS_HISTOGRAM("ranking.lawler.merge_ns",
                    obs::MonotonicNanos() - merge_start_ns);
  TMS_OBS_COUNT("ranking.lawler.children_pushed", pushed);
  TMS_OBS_HISTOGRAM("ranking.lawler.partition_fanout", fanout);
  TMS_OBS_GAUGE_SET("ranking.lawler.heap_size", heap_.size());
  if (run_ != nullptr) run_->CountAnswer();
  // Silence unused warnings in the compiled-out build.
  (void)fanout;
  (void)pushed;
  return std::move(top.answer);
}

}  // namespace tms::ranking
