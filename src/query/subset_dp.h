// Shared machinery of the confidence DPs in query/confidence.cc and
// query/confidence_exact.cc: the probability traits that let one DP serve
// doubles and exact rationals, the exact-emission matcher, and the layer
// table and per-layer transition rows of the two subset-construction DPs
// (Thm 4.8's state masks and the general algorithm's (state,
// output-position) pair-sets).
//
// A SubsetLayer maps (node, set) keys to probability mass, where a set is
// a bitset of `words` 64-bit words. Cells live in flat arrays in
// first-touch order behind one open-addressed (node, set) index, so a DP
// that walks a layer in cell order sums in an order fixed by the instance
// alone (not by a hash map's iteration order). Clear() resets the index
// and the cells without releasing their storage: a DP that alternates two
// layers allocates only while a layer outgrows every earlier one, never
// per transition.

#ifndef TMS_QUERY_SUBSET_DP_H_
#define TMS_QUERY_SUBSET_DP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "kernels/sparse.h"
#include "markov/markov_sequence.h"
#include "numeric/rational.h"

namespace tms::query::internal {

struct DoubleProb {
  using Value = double;
  static Value Zero() { return 0.0; }
  static bool IsZero(const Value& v) { return v == 0.0; }
  static Value Initial(const markov::MarkovSequence& mu, Symbol s) {
    return mu.Initial(s);
  }
  static Value Transition(const markov::MarkovSequence& mu, int i, Symbol s,
                          Symbol t) {
    return mu.Transition(i, s, t);
  }
};

struct RationalProb {
  using Value = numeric::Rational;
  static Value Zero() { return numeric::Rational(); }
  static bool IsZero(const Value& v) { return v.IsZero(); }
  static Value Initial(const markov::MarkovSequence& mu, Symbol s) {
    return mu.InitialExact(s);
  }
  static Value Transition(const markov::MarkovSequence& mu, int i, Symbol s,
                          Symbol t) {
    return mu.TransitionExact(i, s, t);
  }
};

// Advances the matched length j by emission w against exact target o.
// Returns -1 on mismatch or overshoot.
inline int AdvanceExact(const Str& o, int j, const Str& w) {
  for (Symbol c : w) {
    if (j >= static_cast<int>(o.size()) || o[static_cast<size_t>(j)] != c) {
      return -1;
    }
    ++j;
  }
  return j;
}

template <typename Value>
class SubsetLayer {
 public:
  SubsetLayer(size_t num_nodes, size_t words)
      : words_(words), node_cells_(num_nodes, 0), slots_(16, 0) {}

  /// The number of (node, set) cells: the layer's DP width.
  int64_t width() const { return static_cast<int64_t>(node_.size()); }
  bool has_node(size_t node) const { return node_cells_[node] != 0; }

  void Clear() {
    std::fill(node_cells_.begin(), node_cells_.end(), 0);
    std::fill(slots_.begin(), slots_.end(), 0);
    sets_.clear();
    node_.clear();
    mass_.clear();
  }

  /// Adds `mass` to the cell (node, set), creating it on first touch.
  void Add(size_t node, const uint64_t* set, Value mass) {
    if (2 * (node_.size() + 1) > slots_.size()) Grow();
    const size_t slot = Probe(node, set);
    if (slots_[slot] != 0) {
      mass_[slots_[slot] - 1] += mass;
      return;
    }
    slots_[slot] = static_cast<uint32_t>(node_.size() + 1);
    sets_.insert(sets_.end(), set, set + words_);
    node_.push_back(static_cast<uint32_t>(node));
    mass_.push_back(std::move(mass));
    ++node_cells_[node];
  }

  /// Calls f(node, set, mass) for every cell, in first-touch order.
  template <typename F>
  void ForEachCell(F&& f) const {
    for (size_t c = 0; c < node_.size(); ++c) {
      f(static_cast<size_t>(node_[c]), &sets_[c * words_], mass_[c]);
    }
  }

 private:
  uint64_t Hash(size_t node, const uint64_t* set) const {
    uint64_t h = static_cast<uint64_t>(node) * 0x9e3779b97f4a7c15ULL;
    for (size_t w = 0; w < words_; ++w) {
      h ^= set[w];
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
    }
    return h;
  }

  // The slot holding (node, set), or the empty slot where it belongs.
  size_t Probe(size_t node, const uint64_t* set) const {
    const size_t mask = slots_.size() - 1;
    for (size_t slot = static_cast<size_t>(Hash(node, set)) & mask;;
         slot = (slot + 1) & mask) {
      if (slots_[slot] == 0) return slot;
      const size_t c = slots_[slot] - 1;
      if (node_[c] != node) continue;
      const uint64_t* other = &sets_[c * words_];
      size_t w = 0;
      while (w < words_ && other[w] == set[w]) ++w;
      if (w == words_) return slot;
    }
  }

  // Doubles the index and reinserts every cell; cells keep their order.
  void Grow() {
    slots_.assign(slots_.size() * 2, 0);
    for (size_t c = 0; c < node_.size(); ++c) {
      slots_[Probe(node_[c], &sets_[c * words_])] =
          static_cast<uint32_t>(c + 1);
    }
  }

  size_t words_;
  std::vector<uint32_t> node_cells_;  // cells per node
  // Open-addressed index: cell + 1, or 0 for an empty slot. Its size is a
  // power of two kept at least twice the cell count.
  std::vector<uint32_t> slots_;
  // Per cell, in first-touch order: its set (`words_` words), node, mass.
  std::vector<uint64_t> sets_;
  std::vector<uint32_t> node_;
  std::vector<Value> mass_;
};

// The nonzero transition rows from position i-1 to i of the nodes a layer
// holds, gathered once per layer: a row depends only on (i, node), never
// on a DP set. For doubles the CSR row of the step (when present) *is*
// the nonzero pattern; Rational keeps a scalar scan because its support
// must come from the exact values themselves (docs/SPARSE.md).
template <typename P>
class SuccessorRows {
 public:
  using Entry = std::pair<size_t, typename P::Value>;

  explicit SuccessorRows(size_t num_nodes) : begin_(num_nodes + 1, 0) {}

  template <typename Layer>
  void Gather(const markov::MarkovSequence& mu, int i, const Layer& layer) {
    const size_t sigma = begin_.size() - 1;
    entries_.clear();
    for (size_t s = 0; s < sigma; ++s) {
      begin_[s] = entries_.size();
      if (!layer.has_node(s)) continue;
      if constexpr (std::is_same_v<P, DoubleProb>) {
        kernels::MatrixRef view = mu.TransitionView(i - 1);
        if (view.has_sparse) {
          for (int32_t e = view.csr.row_off[s]; e < view.csr.row_off[s + 1];
               ++e) {
            entries_.emplace_back(static_cast<size_t>(view.csr.col_idx[e]),
                                  view.csr.val[e]);
          }
        } else {
          const double* row = view.dense.row(s);
          for (size_t s2 = 0; s2 < sigma; ++s2) {
            if (row[s2] > 0.0) entries_.emplace_back(s2, row[s2]);
          }
        }
      } else {
        for (size_t s2 = 0; s2 < sigma; ++s2) {
          typename P::Value p = P::Transition(mu, i - 1, static_cast<Symbol>(s),
                                              static_cast<Symbol>(s2));
          if (!P::IsZero(p)) entries_.emplace_back(s2, std::move(p));
        }
      }
    }
    begin_[sigma] = entries_.size();
  }

  /// Node s's (successor, probability) entries, successors ascending.
  std::span<const Entry> row(size_t s) const {
    return {entries_.data() + begin_[s], entries_.data() + begin_[s + 1]};
  }

 private:
  std::vector<Entry> entries_;
  std::vector<size_t> begin_;
};

}  // namespace tms::query::internal

#endif  // TMS_QUERY_SUBSET_DP_H_
