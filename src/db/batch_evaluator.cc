#include "db/batch_evaluator.h"

#include <string>
#include <utility>

#include "exec/fault.h"
#include "obs/obs.h"
#include "query/evaluator.h"

namespace tms::db {

BatchEvaluator::BatchEvaluator(const SequenceCollection* collection,
                               const transducer::Transducer* t,
                               Options options)
    : collection_(collection),
      t_(t),
      options_(options),
      cache_(std::make_unique<transducer::CompositionCache>(*t)),
      owned_pool_(options.pool != nullptr
                      ? nullptr
                      : std::make_unique<exec::ThreadPool>(
                            options.threads > 1 ? options.threads - 1 : 0)) {}

StatusOr<BatchEvaluator> BatchEvaluator::Create(
    const SequenceCollection* collection, const transducer::Transducer* t,
    Options options) {
  if (collection == nullptr || t == nullptr) {
    return Status::InvalidArgument("BatchEvaluator requires non-null args");
  }
  if (!(t->input_alphabet() == collection->nodes())) {
    return Status::InvalidArgument(
        "transducer input alphabet does not match the collection");
  }
  return BatchEvaluator(collection, t, options);
}

std::vector<BatchEvaluator::SequenceResult> BatchEvaluator::EvaluateAll(
    int k) {
  TMS_OBS_SPAN("db.batch.evaluate_all");
  const std::vector<std::string> keys = collection_->Keys();  // sorted
  exec::RunContext* batch_run = options_.run;
  std::vector<SequenceResult> results = pool()->ParallelMap<SequenceResult>(
      static_cast<int64_t>(keys.size()),
      [this, k, &keys, batch_run](int64_t i) {
        SequenceResult out;
        out.key = keys[static_cast<size_t>(i)];
        if (TMS_FAULT_POINT("batch.pre_sequence")) {
          out.status = Status::Internal(
              "injected resource failure at batch.pre_sequence");
          TMS_OBS_COUNT("db.batch.failures", 1);
          return out;
        }
        // A child stream shares the batch deadline / budget / cancel
        // token but owns its answer count and stop reason, so each
        // sequence reports its own truncation. The parent's answer cap is
        // inherited as a PER-SEQUENCE cap (top-k per sequence, not k
        // answers across the whole batch).
        exec::RunContext child;
        exec::RunContext* run = nullptr;
        if (batch_run != nullptr) {
          child = batch_run->Child(batch_run->max_answers());
          run = &child;
        }
        auto mu = collection_->Get(out.key);
        if (!mu.ok()) {
          out.status = mu.status();
          TMS_OBS_COUNT("db.batch.failures", 1);
          return out;
        }
        auto eval = query::Evaluator::Create(*mu, t_);
        if (!eval.ok()) {
          out.status = eval.status();
          TMS_OBS_COUNT("db.batch.failures", 1);
          return out;
        }
        eval->set_execution(
            {.cache = cache_.get(), .run = run, .backend = options_.backend});
        auto topk = eval->TopK(k);
        if (!topk.ok()) {
          out.status = topk.status();
          TMS_OBS_COUNT("db.batch.failures", 1);
          return out;
        }
        out.answers = std::move(*topk);
        if (run != nullptr) {
          out.status = run->status();
          out.truncated = run->truncated();
          out.reason = run->stop_reason();
          if (out.truncated) TMS_OBS_COUNT("db.batch.truncated", 1);
        }
        TMS_OBS_COUNT("db.batch.sequences", 1);
        return out;
      });
  return results;
}

}  // namespace tms::db
