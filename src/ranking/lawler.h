// The Lawler–Murty ranked-enumeration engine (paper §4.2, citing Lawler
// [38], Murty [43] and Yen [59]).
//
// Lawler's procedure reduces ranked enumeration to *constrained
// optimization*: maintain a priority queue of disjoint answer subspaces,
// each represented by an OutputConstraint together with its best answer;
// repeatedly pop the globally best answer, emit it, partition its subspace
// around it (OutputConstraint::PartitionAfter), solve each child subspace,
// and push the children back. Scores are nonincreasing because a child's
// answers are a subset of its parent's.
//
// The engine is parameterized by the subspace solver, so the same code
// drives Theorem 4.3 (top answer under E_max via Viterbi on the
// constraint-composed transducer) and Lemma 5.10 (top answer under I_max
// via a constrained best path in the indexed s-projector DAG).

#ifndef TMS_RANKING_LAWLER_H_
#define TMS_RANKING_LAWLER_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "exec/run_context.h"
#include "exec/thread_pool.h"
#include "obs/query_scope.h"
#include "ranking/answer_stream.h"
#include "ranking/prefix_constraint.h"
#include "strings/str.h"

namespace tms::ranking {

/// Solves one subspace: the best answer admitted by the constraint, or
/// nullopt if the subspace is empty. Ties may be broken arbitrarily but
/// deterministically. Scores must be finite; a non-finite score (NaN would
/// violate EntryLess's strict weak ordering and silently corrupt the heap)
/// is rejected at the boundary and the subspace treated as empty, counted
/// by `ranking.lawler.nonfinite_scores`.
using SubspaceSolver =
    std::function<std::optional<ScoredAnswer>(const OutputConstraint&)>;

/// Streams answers in nonincreasing score with one solver call per emitted
/// answer per child subspace (at most |answer|+1 children per emission).
///
/// With a thread pool, the child subspaces of each pop — independent solver
/// calls by construction — are solved concurrently. The solver must then be
/// thread-safe (no shared mutable state across calls); results are merged
/// back in child order, so the heap content after every pop, and therefore
/// the emitted sequence, is identical at every thread count. (That the pop
/// order itself is well-defined follows from EntryLess being a total order:
/// subspaces are disjoint, so outputs are unique and break every score
/// tie.)
///
/// NextWith(task) runs `task` on the popped answer as one more item of the
/// same fork-join: item 0, so the often longest item starts first. The
/// answer is fixed at the pop, so the task needs nothing from the
/// children. Without a pool the children are solved first, then the task
/// runs — the order a caller running it after Next() sees.
///
/// With a RunContext, the run is bounded: every subspace solve charges one
/// work unit, and Next() stops — returning nullopt forever after — once a
/// deadline, the answer cap, the budget, or a cancellation fires. The
/// answers emitted before the stop are a byte-identical prefix of the
/// unbounded stream at every thread count: the answer of a pop is fixed
/// before its children are solved, so a limit firing mid-fanout can only
/// suppress *future* answers, never change the current one (see
/// docs/ROBUSTNESS.md).
class LawlerEnumerator : public AnswerStream {
 public:
  /// `pool` and `run` are optional and non-owning (they must outlive the
  /// enumerator); a null pool means the sequential engine, a null run
  /// means unbounded execution. The constructor itself performs the first
  /// subspace solve, so it already charges (and respects) `run`.
  explicit LawlerEnumerator(SubspaceSolver solver,
                            exec::ThreadPool* pool = nullptr,
                            exec::RunContext* run = nullptr);

  /// The next best answer, or nullopt when the space is exhausted.
  std::optional<ScoredAnswer> Next() override {
    return NextWith(AnswerTask());
  }

  /// Next(), with `task` run on the popped answer beside the child solves.
  std::optional<ScoredAnswer> NextWith(const AnswerTask& task) override;

 private:
  struct Entry {
    ScoredAnswer answer;
    OutputConstraint constraint;
  };
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.answer.score != b.answer.score) {
        return a.answer.score < b.answer.score;  // max-heap on score
      }
      return b.answer.output < a.answer.output;  // deterministic tie-break
    }
  };

  // Runs the solver on one subspace, enforcing the finite-score contract.
  std::optional<ScoredAnswer> Solve(const OutputConstraint& constraint);

  SubspaceSolver solver_;
  exec::ThreadPool* pool_;
  exec::RunContext* run_;
  // Trace context of the constructing thread: Next() re-adopts it, so a
  // stream driven from any thread (or interleaved with other queries'
  // streams on one thread) keeps attributing to its own query.
  obs::TraceContext obs_ctx_;
  // A max-heap under EntryLess, maintained with std::push_heap/pop_heap
  // (rather than std::priority_queue, whose top() is const and would force
  // a deep copy of the answer + constraint on every pop).
  std::vector<Entry> heap_;
};

}  // namespace tms::ranking

#endif  // TMS_RANKING_LAWLER_H_
