// The column graph of every μ-layered DP over a query and an output
// constraint (docs/ALGORITHMS.md).
//
// Theorems 4.1, 4.3 and 4.6, and E_max(o) of Example 4.2, are one
// computation: a layered DP over μ's nodes × the pairs (q, k) of a query
// state q and a state k of an output constraint's DFA
// (ranking::OutputConstraint::ToDfa), read in BoolOr, MaxPlus or Real.
// That product of a Markov source and a pattern automaton is one sparse
// operator (Nuel & Dumas, PAPERS.md). The output automaton is always an
// OutputConstraint:
//
//   * the Lawler subspace (w, X, allow_equal) of Theorem 4.3;
//   * an exact answer o, OutputConstraint::Exactly(o): every symbol after
//     o is dead, so only the progress 0..|o| is ever live;
//   * "some answer starts with w", {w, ∅, allow_equal = true}.
//
// A ColumnGraph holds the live pairs — reachable from (initial, 0) and
// able to reach an accepting pair — numbered in ascending q·(|w|+3) + k,
// and per (input symbol, column) the CSR of the target columns with each
// edge's emission. Every DP then runs RunColumnDp: the caller's step
// (GemmTN / SpGemm, or SpMaskOr) followed by kernels::EdgeScatter<SR>.

#ifndef TMS_QUERY_COLUMN_GRAPH_H_
#define TMS_QUERY_COLUMN_GRAPH_H_

#include <cstddef>
#include <cstdint>

#include "kernels/arena.h"
#include "kernels/dense.h"
#include "kernels/kernels.h"
#include "ranking/prefix_constraint.h"
#include "strings/str.h"
#include "transducer/transducer.h"

namespace tms::query {

/// The columns of one DP and, per (input symbol s, column c), the CSR
/// segment [off[s·cols + c], off[s·cols + c + 1]) of the edges
/// c --s--> tgt[e], each emitting *out[e]. Within a segment the edges keep
/// Transducer::Next's order. Every array lives in the arena the graph was
/// built in and dies with its next Reset().
struct ColumnGraph {
  size_t cols = 0;  ///< 0 iff no pair is live
  size_t initial = 0;
  const uint8_t* accepting = nullptr;  ///< [c]
  const int32_t* off = nullptr;        ///< σ·cols + 1 entries
  const int32_t* tgt = nullptr;
  const Str* const* out = nullptr;

  /// The live pairs of `t` run against `c`: those reachable from
  /// (initial, 0) and able to reach an accepting pair, where k is the
  /// state of c.ToDfa() — prefix progress 0..|w|, then free, then dead.
  /// Each edge is a query edge run through the constraint; the pairs are
  /// numbered in ascending q·(|w|+3) + k, a monotone renumbering, so every
  /// per-column reduction keeps its ascending-source order. cols == 0
  /// when no pair is live.
  static ColumnGraph Build(const transducer::Transducer& t,
                           const ranking::OutputConstraint& c,
                           kernels::Arena& arena);
};

/// The scratch arena every column DP on this thread uses. Each DP resets
/// it on entry, and none calls another mid-solve.
kernels::Arena& ColumnDpArena();

/// The μ-layered forward DP over `g` in semiring SR:
///   layer 1: (s, c') ⊕= init[s] along the initial column's edges
///            initial --s--> c';
///   layer i: step(i, layer i-1, &tmp), tmp(s2, c) = ⊕_s μ_{i-1}(s, s2) ⊗
///            prev(s, c) in the caller's kernel, then
///            EdgeScatter<SR>(tmp, g.off, g.tgt, &layer i).
/// `layer(i)` is the σ × g.cols storage of layer i (every layer for a
/// backtrack, two rolling ones otherwise); tmp is carved from `arena`.
template <typename SR, typename Step, typename Layer>
void RunColumnDp(const ColumnGraph& g, size_t sigma, int n,
                 const typename SR::Value* init, kernels::Arena& arena,
                 Step&& step, Layer&& layer) {
  using V = typename SR::Value;
  kernels::Matrix<V> first(layer(1), sigma, g.cols);
  first.Fill(SR::Zero());
  for (size_t s = 0; s < sigma; ++s) {
    const size_t from = s * g.cols + g.initial;
    for (int32_t e = g.off[from]; e < g.off[from + 1]; ++e) {
      V& cell = first(s, static_cast<size_t>(g.tgt[e]));
      cell = SR::Plus(init[s], cell);
    }
  }
  kernels::Matrix<V> tmp(&arena, sigma, g.cols);
  for (int i = 2; i <= n; ++i) {
    const kernels::Matrix<V> prev(layer(i - 1), sigma, g.cols);
    step(i, prev, &tmp);
    kernels::Matrix<V> next(layer(i), sigma, g.cols);
    kernels::EdgeScatter<SR>(tmp, g.off, g.tgt, &next);
  }
}

}  // namespace tms::query

#endif  // TMS_QUERY_COLUMN_GRAPH_H_
