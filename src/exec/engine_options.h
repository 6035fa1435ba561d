// The one options struct every enumeration engine takes.
//
// EmaxEnumerator, UnrankedEnumerator and ImaxEnumerator take their
// execution resources as one EngineOptions, which query::MakeEnumerator,
// query::AnswerPipeline, query::Evaluator, db::BatchEvaluator and the
// tools fill in. Set fields by name (`{.pool = p, .run = r}`); the ones
// left out keep their defaults.
//
// Every pointer is non-owning and optional: the pointee must outlive the
// engine, and null selects the default behavior documented per field.
// Engines ignore the fields that do not apply to them (the unranked
// enumerator has no subspaces to parallelize, the s-projector path
// composes nothing) — passing one fully-populated EngineOptions to every
// engine of a batch is the intended use.

#ifndef TMS_EXEC_ENGINE_OPTIONS_H_
#define TMS_EXEC_ENGINE_OPTIONS_H_

#include "kernels/backend.h"

namespace tms::transducer {
class CompositionCache;
}  // namespace tms::transducer

namespace tms::exec {

class ThreadPool;
class RunContext;

struct EngineOptions {
  /// Solves independent engine sub-tasks (e.g. the child subspaces of a
  /// Lawler pop) concurrently. Non-owning; must outlive the engine.
  /// Null = sequential. Output is byte-identical at any thread count.
  ThreadPool* pool = nullptr;

  /// Shared transducer-composition cache, e.g. one cache across the many
  /// enumerations of a db::BatchEvaluator run. Non-owning (must outlive
  /// the engine) and must be bound to the engine's transducer. Null = the
  /// engine keeps a private cache (engines that compose nothing ignore
  /// it).
  transducer::CompositionCache* cache = nullptr;

  /// Bounded execution (deadline / answer cap / work budget /
  /// cancellation; see exec/run_context.h). Non-owning; null = unbounded.
  /// On truncation the emitted answers are an exact prefix of the
  /// unbounded stream and `run->status()` says why.
  RunContext* run = nullptr;

  /// Kernel backend for the DP hot paths (see kernels/backend.h and
  /// docs/SPARSE.md). kAuto resolves per instance from the measured
  /// transition density; dense and sparse produce byte-identical answer
  /// streams either way, so this is a performance knob only.
  kernels::BackendChoice backend = kernels::BackendChoice::kAuto;
};

}  // namespace tms::exec

#endif  // TMS_EXEC_ENGINE_OPTIONS_H_
