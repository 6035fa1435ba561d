// Fixed-size thread pool with a fork-join ParallelFor / ParallelMap API.
//
// The pool is the execution substrate for the parallel enumeration and
// batch-evaluation paths (ranking::LawlerEnumerator child-subspace solving,
// db::BatchEvaluator): a caller partitions independent work into indexed
// items, the pool's workers and the *calling thread itself* race through
// the index space, and results are merged back in index order so the
// parallel path is deterministic whenever the per-item function is.
//
// Design notes (see docs/CONCURRENCY.md):
//   * Caller participation makes ParallelFor deadlock-free under nesting:
//     the thread that opened a batch drains its own index space, so forward
//     progress never depends on a worker picking the batch up. Workers only
//     ever *help*.
//   * A pool with zero workers is valid and degrades to a plain sequential
//     loop on the calling thread — `ThreadPool(0)` and a null pool behave
//     identically, which is what the 1-thread configurations of the
//     benches/CLI use.
//   * Item functions must not throw (the codebase reports errors through
//     Status); an escaping exception terminates the process.
//
// Observability (docs/OBSERVABILITY.md): `exec.pool.threads` gauge,
// `exec.pool.items` / `exec.pool.worker_items` / `exec.pool.caller_items`
// counters, and the `exec.pool.batch_items` histogram (items per
// ParallelFor; its count is the number of batches).

#ifndef TMS_EXEC_THREAD_POOL_H_
#define TMS_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/query_scope.h"

namespace tms::exec {

/// A fixed set of worker threads plus fork-join helpers. Thread-safe:
/// ParallelFor/ParallelMap may be called concurrently from any thread,
/// including from inside another ParallelFor item running on this pool.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (clamped at 0). The total
  /// concurrency of a ParallelFor is `num_workers + 1` because the calling
  /// thread participates.
  explicit ThreadPool(int num_workers);

  /// Joins all workers; outstanding helper tasks finish first. The pool
  /// must outlive every object holding a pointer to it.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(i) exactly once for every i in [0, n), possibly concurrently,
  /// and returns when all items finished. Items are claimed through a
  /// shared counter, so the assignment of items to threads is
  /// nondeterministic — any output the caller assembles must be indexed by
  /// i (as ParallelMap does), never by completion order. `fn` must be
  /// safe to invoke concurrently from multiple threads.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// ParallelFor that collects fn(i) into slot i of the result — output
  /// order is index order regardless of scheduling. R must be
  /// default-constructible.
  template <typename R>
  std::vector<R> ParallelMap(int64_t n,
                             const std::function<R(int64_t)>& fn) {
    std::vector<R> out(static_cast<size_t>(n));
    ParallelFor(n, [&out, &fn](int64_t i) {
      out[static_cast<size_t>(i)] = fn(i);
    });
    return out;
  }

 private:
  // One fork-join batch. Lives on the opening thread's stack; workers
  // reference it only between `next` publication and the final `done`
  // increment, both of which the opener awaits before returning.
  struct Batch {
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t n = 0;
    // The opener's trace context at submission: every thread draining the
    // batch adopts it, so items attribute their metrics/spans to the
    // opener's query no matter which thread runs them.
    obs::TraceContext obs_ctx;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    std::mutex mu;
    std::condition_variable all_done;
  };

  // Claims items from `batch` until the index space is exhausted; returns
  // the number of items this thread ran.
  static int64_t DrainBatch(Batch* batch);

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stopping_ = false;
};

}  // namespace tms::exec

#endif  // TMS_EXEC_THREAD_POOL_H_
