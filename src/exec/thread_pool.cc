#include "exec/thread_pool.h"

#include "obs/obs.h"

namespace tms::exec {

ThreadPool::ThreadPool(int num_workers) {
  if (num_workers < 0) num_workers = 0;
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  TMS_OBS_GAUGE_SET("exec.pool.threads", num_workers);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int64_t ThreadPool::DrainBatch(Batch* batch) {
  // Work items run under the opener's query scope (a no-op for the opener
  // itself, whose thread state already matches the captured context).
  obs::ScopeAdoption adopt(batch->obs_ctx);
  int64_t ran = 0;
  for (;;) {
    int64_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->n) break;
    (*batch->fn)(i);
    ++ran;
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch->n) {
      // Last item overall: wake the opener. The lock pairs with the
      // opener's wait so the notify cannot be lost between its predicate
      // check and its sleep.
      std::lock_guard<std::mutex> lock(batch->mu);
      batch->all_done.notify_all();
    }
  }
  return ran;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to help with
      batch = queue_.front();
      // Leave the batch at the front so other idle workers can still join
      // it; it is removed once its index space is exhausted.
      if (batch->next.load(std::memory_order_relaxed) >= batch->n) {
        queue_.pop_front();
        continue;
      }
    }
    int64_t ran = DrainBatch(batch.get());
    if (ran > 0) TMS_OBS_COUNT("exec.pool.worker_items", ran);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (!queue_.empty() && queue_.front() == batch &&
          batch->next.load(std::memory_order_relaxed) >= batch->n) {
        queue_.pop_front();
      }
    }
  }
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  TMS_OBS_COUNT("exec.pool.items", n);
  TMS_OBS_HISTOGRAM("exec.pool.batch_items", n);
  if (workers_.empty() || n == 1) {
    // Sequential fallback: same iteration order a 1-thread run observes.
    for (int64_t i = 0; i < n; ++i) fn(i);
    TMS_OBS_COUNT("exec.pool.caller_items", n);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;
  batch->obs_ctx = obs::CurrentTraceContext();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(batch);
    TMS_OBS_GAUGE_SET("exec.pool.queue_depth",
                      static_cast<int64_t>(queue_.size()));
  }
  queue_cv_.notify_all();
  // The caller drains the same index space as the workers, so the batch
  // completes even if every worker is busy inside a nested ParallelFor.
  int64_t ran = DrainBatch(batch.get());
  if (ran > 0) TMS_OBS_COUNT("exec.pool.caller_items", ran);
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->all_done.wait(lock, [&batch] {
      return batch->done.load(std::memory_order_acquire) >= batch->n;
    });
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!queue_.empty() && queue_.front() == batch) queue_.pop_front();
    TMS_OBS_GAUGE_SET("exec.pool.queue_depth",
                      static_cast<int64_t>(queue_.size()));
  }
}

}  // namespace tms::exec
