// E_max — the best-evidence score (paper §4.2).
//
// For an answer o, E_max(o) is the maximal probability of a possible world
// s with s →[A^ω]→ o (the answer's best *evidence*). The paper's heuristic
// ranked enumeration (Theorem 4.3) orders answers by decreasing E_max; as
// an approximation of decreasing confidence its worst-case ratio is
// |Σ|^n — and Theorem 4.4 shows that is essentially optimal.
//
// Both computations are Viterbi-style max-product dynamic programs run in
// the log domain (underflow-safe for long sequences).

#ifndef TMS_QUERY_EMAX_H_
#define TMS_QUERY_EMAX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "kernels/backend.h"
#include "markov/markov_sequence.h"
#include "ranking/prefix_constraint.h"
#include "transducer/transducer.h"

namespace tms::kernels {
class Arena;
}  // namespace tms::kernels

namespace tms::query {

struct ColumnGraph;

/// A witness world together with the answer it transduces into.
struct Evidence {
  Str world;    ///< s ∈ Σ^n with p(s) = prob
  Str output;   ///< o with s →[A^ω]→ o
  double prob;  ///< p(s) — the E_max value it certifies
};

/// What one EmaxContext::TopAnswer(pruned_query, c) solve built before its
/// DP (see that overload).
struct ProductStats {
  int live_pairs = 0;     ///< DP columns; 0 iff the product's language is empty
  int product_pairs = 0;  ///< |Q|·(|w|+3): every (state, progress) pair
  int64_t build_ns = 0;   ///< numbering the pairs and building the CSR
};

/// Precomputed log-domain view of one Markov sequence, shared across the
/// many Viterbi solves a ranked enumeration performs on it. The per-call
/// DP needs log(μ.Transition(...)) for every (i, s, s') in its inner loop;
/// hoisting those std::log calls into construction roughly halves the
/// solve time, and the tensors are reused by every subspace solve of the
/// same enumeration (and by every thread of a parallel one).
///
/// One log tensor is kept per *distinct* transition matrix (keyed on
/// μ's shared step storage, markov::MarkovSequence::TransitionStepIdentity),
/// so a homogeneous length-n sequence costs one σ² tensor instead of n-1.
/// The kernel backend for the forward pass is resolved once at
/// construction via kernels::ChooseBackend (see docs/SPARSE.md); when it
/// resolves to sparse, each distinct step additionally carries a CSR of
/// the finite log entries (= the positive probabilities) and the layer
/// update runs through kernels::SpGemm — byte-identical layers either
/// way, because max-plus skips of -inf terms are exact.
///
/// Immutable after construction, so a single context may be shared by
/// concurrent TopAnswer calls. Holds `mu` by non-owning pointer: the
/// Markov sequence must outlive the context.
class EmaxContext {
 public:
  explicit EmaxContext(
      const markov::MarkovSequence& mu,
      kernels::BackendChoice backend = kernels::BackendChoice::kAuto);

  const markov::MarkovSequence& mu() const { return *mu_; }

  /// The backend the construction-time policy resolved to.
  kernels::Backend backend() const { return backend_; }

  /// TopAnswerByEmax(mu, t) computed against the precomputed tensors.
  /// Bit-identical to the naive DP (same witness, same output, same prob)
  /// on either backend. Thread-safe; scratch buffers are thread-local.
  std::optional<Evidence> TopAnswer(const transducer::Transducer& t) const;

  /// The Theorem 4.3 subspace solve: TopAnswer over the product of
  /// `pruned_query` (an optimize::PruneTransducer result) with the
  /// constraint DFA of `c`, without building that product. Its DP runs on
  /// ColumnGraph::Build(pruned_query, c) (query/column_graph.h): the live
  /// pairs numbered in ascending q·(|w|+3) + k, each step's edges the
  /// query's edges run through the constraint, each emission read from the
  /// query's own edge. Those are exactly the states, the numbering, the
  /// edge order and the outputs of
  /// PruneTransducer(ComposeWithOutputConstraint(pruned_query, c)), so the
  /// result is bit-identical to TopAnswer on that product. Returns nullopt
  /// before any DP when no pair is live. `stats`, if given, receives what
  /// the solve built. Thread-safe, like TopAnswer(t).
  std::optional<Evidence> TopAnswer(const transducer::Transducer& pruned_query,
                                    const ranking::OutputConstraint& c,
                                    ProductStats* stats = nullptr) const;

 private:
  /// The Viterbi DP shared by both TopAnswer overloads, over the column
  /// graph the caller built in `arena`; allocates its layers from the same
  /// arena.
  std::optional<Evidence> Solve(const ColumnGraph& g,
                                kernels::Arena& arena) const;

  /// Log-domain image of one distinct transition matrix.
  struct LogStep {
    std::vector<double> dense;  ///< [s·σ + s'] = log μ_i→(s, s')
    // CSR of the *transpose* over the finite entries (row = successor
    // s', columns = predecessors s, ascending) — the SpGemm operand of
    // the layer update. Built iff has_sparse.
    std::vector<int32_t> t_off, t_idx;
    std::vector<double> t_val;
    bool has_sparse = false;
  };

  const markov::MarkovSequence* mu_;
  int n_;
  size_t sigma_;
  kernels::Backend backend_;
  std::vector<double> init_;  ///< [s] = log μ.Initial(s)
  /// steps_[i-2] covers layer i ∈ 2..n (i.e. μ_{i-1}→); shared between
  /// indices whose matrices share storage in μ.
  std::vector<std::shared_ptr<const LogStep>> steps_;
};

/// An answer maximizing E_max over all of A^ω(μ): the most probable world
/// accepted by A, together with the output of its best accepting run.
/// Returns nullopt iff A^ω(μ) = ∅. Time O(n · |Σ|² · |Q|²) dense,
/// O(n · nnz · |Q|) sparse.
/// One-shot wrapper over EmaxContext::TopAnswer; callers solving many
/// transducers against the same μ should build the context once.
std::optional<Evidence> TopAnswerByEmax(const markov::MarkovSequence& mu,
                                        const transducer::Transducer& t);

/// E_max(o) with its witness world, or nullopt if o ∉ A^ω(μ)
/// (Example 4.2 computes E_max(12) = 0.3969 this way): the Theorem 4.3
/// solve under OutputConstraint::Exactly(o), whose live pairs carry only
/// the progress 0..|o|. Its witness is the scalar (node, state, progress)
/// DP's first strict maximum over ascending (s, q, j): the live numbering
/// is monotone in (q, j), and the backtrack scans ascending (s, column).
/// Time O(n · |Σ|² · |Q|² · (|o|+1)).
std::optional<Evidence> EmaxOfAnswer(const markov::MarkovSequence& mu,
                                     const transducer::Transducer& t,
                                     const Str& o);

}  // namespace tms::query

#endif  // TMS_QUERY_EMAX_H_
