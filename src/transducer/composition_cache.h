// Memoized output-constraint composition (see transducer/compose.h).
//
// Ranked enumeration (ranking/lawler.h driving query/emax_enum.h) composes
// the same transducer with one constraint DFA per subspace solve, and the
// constraints are highly related: every child of a Lawler partition either
// keeps its parent's prefix (with a grown excluded set) or uses a prefix of
// the winning answer that later pops will partition again. Batched
// evaluation (db/batch_evaluator.h) goes further — the composed transducer
// depends only on (transducer, constraint), not on the Markov sequence, so
// every sequence in a collection replays the same compositions.
//
// The query is pruned once, at construction (optimize::PruneTransducer),
// and every product is built from that pruned copy. The cache is
// two-level:
//   * level 1, keyed by the constraint *prefix* w: the product of the
//     pruned query with the prefix-tracking skeleton of the constraint DFA
//     (states 0..|w|, free, dead), with each edge annotated by its
//     "crossing symbol" — the output symbol consumed at position |w|, the
//     only place the excluded set X can act;
//   * level 2, keyed by the full constraint (w, X, allow_equal): the
//     pruned product, derived from the level-1 base by redirecting edges
//     whose crossing symbol is in X to the dead layer, resolving the
//     allow_equal accepting bit, and materializing only the states that
//     are reachable and co-accessible under that resolution (a FUSED
//     prune: the full product is never built).
//
// Each product is exactly PruneTransducer(ComposeWithOutputConstraint(
// PruneTransducer(t), c)) — same state numbering, same edges, same
// accepting set (tests/optimize_equivalence_test.cc and
// tests/concurrency_test.cc check this differentially). The prune is
// stream-exact (optimize/transducer_opt.h, docs/OPTIMIZE.md), so ranked
// enumeration over these products emits the same bytes as over the
// unpruned ComposeWithOutputConstraint, which stays the test reference.
//
// Both levels share one LRU byte budget. Thread-safe: lookups and
// insertions take an internal mutex, but builds run outside it, so
// concurrent subspace solves (ranking/lawler.h's parallel children) only
// serialize on the map, not on composition work. Results are returned as
// shared_ptr, so an entry evicted while a solver still uses it stays alive.
//
// Observability: counters `cache.hits` / `cache.misses` / `cache.evictions`
// and gauge `cache.bytes` (see docs/OBSERVABILITY.md).

#ifndef TMS_TRANSDUCER_COMPOSITION_CACHE_H_
#define TMS_TRANSDUCER_COMPOSITION_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "ranking/prefix_constraint.h"
#include "transducer/transducer.h"

namespace tms::transducer {

/// Memoizes the pruned output-constraint products of one transducer.
class CompositionCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    size_t bytes = 0;
  };

  static constexpr size_t kDefaultMaxBytes = size_t{64} << 20;  // 64 MiB

  /// Prunes `t` once and keeps that copy, so `t` need not outlive the
  /// cache.
  explicit CompositionCache(const Transducer& t,
                            size_t max_bytes = kDefaultMaxBytes);

  CompositionCache(const CompositionCache&) = delete;
  CompositionCache& operator=(const CompositionCache&) = delete;

  /// The pruned product of the query with `constraint` (see the file
  /// comment); repeated calls return the same object while it is cached.
  std::shared_ptr<const Transducer> Compose(
      const ranking::OutputConstraint& constraint);

  Stats stats() const;

 private:
  // Level-1 entry: the prefix-skeleton product (X = ∅ targets plus
  // crossing-symbol annotations); see the file comment.
  struct Base;

  struct Slot {
    std::shared_ptr<const Base> base;         // level 1 (exactly one of
    std::shared_ptr<const Transducer> spec;   // these two is set)
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  std::shared_ptr<const Base> GetBase(const Str& prefix);
  std::shared_ptr<const Base> BuildBase(const Str& prefix) const;

  /// Resolves every base edge under `constraint`, computes the reachable ∧
  /// co-accessible cut over the resolved graph, and materializes ONLY the
  /// live sub-product — Transducer-identical to running
  /// optimize::PruneTransducer over the full specialized product, without
  /// ever building that product.
  std::shared_ptr<const Transducer> Specialize(
      const Base& base, const ranking::OutputConstraint& constraint) const;

  // Map maintenance (all require lock_ held). Touch moves a hit to the
  // LRU front; Insert adds a slot (first writer wins on races) and evicts
  // from the tail until the budget holds.
  void TouchLocked(Slot& slot);
  void InsertLocked(std::string key, Slot slot);

  const Transducer t_;  // the pruned query
  const size_t max_bytes_;

  mutable std::mutex lock_;
  std::unordered_map<std::string, Slot> map_;
  std::list<std::string> lru_;  // front = most recently used
  Stats stats_;
};

}  // namespace tms::transducer

#endif  // TMS_TRANSDUCER_COMPOSITION_CACHE_H_
