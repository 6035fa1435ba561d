// Batched query evaluation over a SequenceCollection.
//
// Runs one transducer query against every Markov sequence of a collection,
// fanning the per-sequence evaluations across an exec::ThreadPool. The
// sequences are independent: each evaluation reads only its own μ and the
// shared (immutable) transducer, and builds every subspace's live product
// itself (query/emax.h), so the fan-out shares no mutable state.
//
// Results come back in collection key order (then per-sequence rank
// order), so the answers are byte-identical to SequenceCollection's
// sequential per-sequence scan at every thread count.

#ifndef TMS_DB_BATCH_EVALUATOR_H_
#define TMS_DB_BATCH_EVALUATOR_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "db/collection.h"
#include "exec/run_context.h"
#include "kernels/backend.h"
#include "exec/thread_pool.h"
#include "transducer/transducer.h"

namespace tms::db {

/// One query (transducer) bound to one collection, with an owned thread
/// pool. The collection and transducer are non-owning and must outlive
/// the evaluator; the collection must not be mutated while a batch runs.
class BatchEvaluator {
 public:
  struct Options {
    /// Total evaluation concurrency (worker threads + the calling
    /// thread); values ≤ 1 run sequentially on the caller. Ignored when
    /// `pool` is set.
    int threads = 1;
    /// Optional, non-owning: run the batch on this shared pool instead of
    /// an owned one. Several BatchEvaluators (several concurrent queries)
    /// can then share one set of workers; per-query observability stays
    /// separable because every ParallelFor batch carries its opener's
    /// obs::QueryScope context.
    exec::ThreadPool* pool = nullptr;
    /// Optional, non-owning. Bounds the whole batch: the deadline, work
    /// budget, and cancel token are shared across every sequence (one
    /// global pool), while each sequence evaluates under its own
    /// `run->Child()` stream so truncation is reported per sequence.
    exec::RunContext* run = nullptr;
    /// Kernel path of every per-sequence DP (kernels/backend.h). Results
    /// are byte-identical either way; auto picks per sequence density.
    kernels::BackendChoice backend = kernels::BackendChoice::kAuto;
  };

  /// Outcome of one sequence in an EvaluateAll batch.
  struct SequenceResult {
    std::string key;
    /// OK when the evaluation ran to completion or stopped at a
    /// client-requested answer cap; a structured error
    /// (kDeadlineExceeded / kBudgetExhausted / kCancelled / input errors)
    /// otherwise. A non-OK status never aborts the batch — the remaining
    /// sequences still evaluate (or report the same shared-limit status).
    Status status;
    /// True when `answers` is a proper prefix of the sequence's full
    /// ranked stream because a limit fired; `reason` says which one.
    bool truncated = false;
    exec::StopReason reason = exec::StopReason::kNone;
    /// The answers produced before the stop — always a byte-identical
    /// prefix of the unbounded stream, possibly empty.
    std::vector<query::AnswerInfo> answers;
  };

  /// Fails if the transducer's input alphabet differs from the
  /// collection's node alphabet.
  static StatusOr<BatchEvaluator> Create(const SequenceCollection* collection,
                                         const transducer::Transducer* t,
                                         Options options);
  static StatusOr<BatchEvaluator> Create(const SequenceCollection* collection,
                                         const transducer::Transducer* t) {
    return Create(collection, t, Options());
  }

  /// Per-sequence top-k answers by E_max, each with its confidence,
  /// evaluated concurrently. Failure-isolating: one sequence failing —
  /// bad input, an injected fault, or a shared limit firing mid-batch —
  /// produces a non-OK SequenceResult::status for that sequence while the
  /// batch itself always completes. Results come back in key order. An
  /// empty collection yields an empty vector, not an error.
  std::vector<SequenceResult> EvaluateAll(int k);

  int threads() const { return options_.threads; }

 private:
  BatchEvaluator(const SequenceCollection* collection,
                 const transducer::Transducer* t, Options options);

  // The pool batches run on: the shared Options::pool when set, else the
  // owned one.
  exec::ThreadPool* pool() {
    return options_.pool != nullptr ? options_.pool : owned_pool_.get();
  }

  const SequenceCollection* collection_;
  const transducer::Transducer* t_;
  Options options_;
  // unique_ptr so BatchEvaluator stays movable (StatusOr needs that);
  // null when Options::pool supplies an external pool.
  std::unique_ptr<exec::ThreadPool> owned_pool_;
};

}  // namespace tms::db

#endif  // TMS_DB_BATCH_EVALUATOR_H_
