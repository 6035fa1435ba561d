#include "query/emax.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "kernels/arena.h"
#include "kernels/dense.h"
#include "kernels/kernels.h"
#include "kernels/sparse.h"
#include "numeric/log_prob.h"

namespace tms::query {
namespace {

using numeric::LogProb;

constexpr int32_t kNoBack = -1;

// Scratch for every solve on this thread, so concurrent subspace solves of
// a parallel enumeration never share buffers and each reuses one block.
kernels::Arena& ThreadArena() {
  static thread_local kernels::Arena arena;
  return arena;
}

}  // namespace

EmaxContext::EmaxContext(const markov::MarkovSequence& mu,
                         kernels::BackendChoice backend)
    : mu_(&mu),
      n_(mu.length()),
      sigma_(mu.nodes().size()),
      backend_(kernels::ChooseBackend(backend, mu.TransitionDensity(), sigma_,
                                      mu.HasSparseTransitions())),
      init_(sigma_) {
  for (size_t s = 0; s < sigma_; ++s) {
    init_[s] = LogProb::FromLinear(mu.Initial(static_cast<Symbol>(s))).log();
  }
  // One log tensor per distinct transition matrix: a homogeneous μ (or a
  // run of equal matrices) shares a single LogStep across its layers.
  std::unordered_map<const void*, std::shared_ptr<const LogStep>> built;
  steps_.reserve(static_cast<size_t>(n_ > 1 ? n_ - 1 : 0));
  for (int i = 2; i <= n_; ++i) {
    const void* id = mu.TransitionStepIdentity(i - 1);
    auto it = built.find(id);
    if (it != built.end()) {
      steps_.push_back(it->second);
      continue;
    }
    kernels::MatrixRef view = mu.TransitionView(i - 1);
    auto step = std::make_shared<LogStep>();
    step->dense.resize(sigma_ * sigma_);
    for (size_t c = 0; c < sigma_ * sigma_; ++c) {
      step->dense[c] = LogProb::FromLinear(view.dense.data()[c]).log();
    }
    if (backend_ == kernels::Backend::kSparse && view.has_sparse) {
      // The finite log entries are exactly μ's positive entries, so the
      // CSR-transpose pattern carries over with log-mapped values.
      const size_t nnz = view.csr_t.nnz;
      step->t_off.assign(view.csr_t.row_off, view.csr_t.row_off + sigma_ + 1);
      step->t_idx.assign(view.csr_t.col_idx, view.csr_t.col_idx + nnz);
      step->t_val.resize(nnz);
      for (size_t e = 0; e < nnz; ++e) {
        step->t_val[e] = LogProb::FromLinear(view.csr_t.val[e]).log();
      }
      step->has_sparse = true;
    }
    built.emplace(id, step);
    steps_.push_back(std::move(step));
  }
}

// The column graph one Viterbi solve runs on: `cols` columns (the states
// of a transducer, or the live pairs of a product) and, per (input symbol
// s2, column c), the CSR segment [off[s2·cols + c], off[s2·cols + c + 1])
// of the edges c --s2--> tgt[e], each emitting *out[e]. Within a segment
// the targets ascend, as Transducer::Next keeps them.
struct EmaxContext::Columns {
  size_t cols = 0;
  size_t initial = 0;
  const uint8_t* accepting = nullptr;  // [c]
  const int32_t* off = nullptr;        // σ·cols + 1 entries
  const int32_t* tgt = nullptr;
  const Str* const* out = nullptr;
};

std::optional<Evidence> EmaxContext::TopAnswer(
    const transducer::Transducer& t) const {
  TMS_CHECK(mu_->nodes() == t.input_alphabet());
  kernels::Arena& arena = ThreadArena();
  arena.Reset();
  const size_t sigma = sigma_;
  const size_t nq = static_cast<size_t>(t.num_states());
  const size_t cells = sigma * nq;

  // Flatten the transducer into CSR keyed by (s2, q): the edges
  // q --s2--> q2, built once per solve instead of t.Next() per step.
  int32_t* off = arena.Alloc<int32_t>(cells + 1);
  size_t num_edges = 0;
  for (size_t s2 = 0; s2 < sigma; ++s2) {
    for (size_t q = 0; q < nq; ++q) {
      off[s2 * nq + q] = static_cast<int32_t>(num_edges);
      num_edges += t.Next(static_cast<automata::StateId>(q),
                          static_cast<Symbol>(s2))
                       .size();
    }
  }
  off[cells] = static_cast<int32_t>(num_edges);
  int32_t* tgt = arena.Alloc<int32_t>(num_edges);
  const Str** out = arena.Alloc<const Str*>(num_edges);
  size_t pos = 0;
  for (size_t s2 = 0; s2 < sigma; ++s2) {
    for (size_t q = 0; q < nq; ++q) {
      for (const transducer::Edge& e :
           t.Next(static_cast<automata::StateId>(q),
                  static_cast<Symbol>(s2))) {
        tgt[pos] = static_cast<int32_t>(e.target);
        out[pos++] = &e.output;
      }
    }
  }
  uint8_t* accepting = arena.Alloc<uint8_t>(nq);
  for (size_t q = 0; q < nq; ++q) {
    accepting[q] = t.IsAccepting(static_cast<automata::StateId>(q)) ? 1 : 0;
  }
  return Solve({nq, static_cast<size_t>(t.initial()), accepting, off, tgt, out},
               arena);
}

std::optional<Evidence> EmaxContext::TopAnswer(
    const transducer::Transducer& t, const ranking::OutputConstraint& c,
    ProductStats* stats) const {
  TMS_CHECK(mu_->nodes() == t.input_alphabet());
  Stopwatch sw;
  kernels::Arena& arena = ThreadArena();
  arena.Reset();
  const size_t sigma = sigma_;
  const size_t nq = static_cast<size_t>(t.num_states());
  // Pair (q, k) has id q·nk + k, k the state of c.ToDfa(): prefix
  // progress 0..w, then free, then dead — ComposeWithOutputDfa's numbering.
  const int w = static_cast<int>(c.prefix.size());
  const int free_k = w + 1;
  const int dead_k = w + 2;
  const size_t nk = static_cast<size_t>(w) + 3;
  const size_t pairs = nq * nk;
  const size_t delta = t.output_alphabet().size();
  uint8_t* excluded = arena.Alloc<uint8_t>(delta);
  std::fill(excluded, excluded + delta, uint8_t{0});
  for (Symbol x : c.excluded_next) excluded[static_cast<size_t>(x)] = 1;
  // The constraint DFA run over one emission from progress k.
  auto advance = [&](int k, const Str& o) {
    for (Symbol d : o) {
      if (k == free_k || k == dead_k) break;  // both absorb
      if (k == w) {
        k = excluded[static_cast<size_t>(d)] ? dead_k : free_k;
      } else {
        k = d == c.prefix[static_cast<size_t>(k)] ? k + 1 : dead_k;
      }
    }
    return k;
  };
  auto accepts = [&](size_t p) {
    const int k = static_cast<int>(p % nk);
    return t.IsAccepting(static_cast<automata::StateId>(p / nk)) &&
           (k == free_k || (k == w && c.allow_equal));
  };

  // Forward: the pairs reachable from (initial, 0), recording every edge
  // crossed. Dead pairs absorb and never accept, so none is live and the
  // search does not enter them. mark[p]: -1 unreached, 0 reached, 1 also
  // co-accessible (below), then the live column.
  size_t query_edges = 0;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t s = 0; s < sigma; ++s) {
      query_edges += t.Next(static_cast<automata::StateId>(q),
                            static_cast<Symbol>(s))
                         .size();
    }
  }
  int32_t* mark = arena.Alloc<int32_t>(pairs);
  std::fill(mark, mark + pairs, -1);
  int32_t* queue = arena.Alloc<int32_t>(pairs);
  int32_t* esrc = arena.Alloc<int32_t>(query_edges * nk);
  int32_t* etgt = arena.Alloc<int32_t>(query_edges * nk);
  size_t reached = 0;
  size_t crossed = 0;
  const size_t start = static_cast<size_t>(t.initial()) * nk;
  mark[start] = 0;
  queue[reached++] = static_cast<int32_t>(start);
  for (size_t head = 0; head < reached; ++head) {
    const size_t p = static_cast<size_t>(queue[head]);
    const int k = static_cast<int>(p % nk);
    for (size_t s = 0; s < sigma; ++s) {
      for (const transducer::Edge& e :
           t.Next(static_cast<automata::StateId>(p / nk),
                  static_cast<Symbol>(s))) {
        const int k2 = advance(k, e.output);
        if (k2 == dead_k) continue;
        const size_t p2 = static_cast<size_t>(e.target) * nk +
                          static_cast<size_t>(k2);
        esrc[crossed] = static_cast<int32_t>(p);
        etgt[crossed++] = static_cast<int32_t>(p2);
        if (mark[p2] < 0) {
          mark[p2] = 0;
          queue[reached++] = static_cast<int32_t>(p2);
        }
      }
    }
  }

  // Backward: over the crossed edges reversed (CSR by target), from the
  // reachable accepting pairs.
  int32_t* roff = arena.Alloc<int32_t>(pairs + 1);
  std::fill(roff, roff + pairs + 1, 0);
  for (size_t e = 0; e < crossed; ++e) {
    ++roff[static_cast<size_t>(etgt[e]) + 1];
  }
  for (size_t p = 0; p < pairs; ++p) roff[p + 1] += roff[p];
  int32_t* fill = arena.Alloc<int32_t>(pairs);
  std::copy(roff, roff + pairs, fill);
  int32_t* rsrc = arena.Alloc<int32_t>(crossed);
  for (size_t e = 0; e < crossed; ++e) {
    rsrc[fill[static_cast<size_t>(etgt[e])]++] = esrc[e];
  }
  int32_t* stack = arena.Alloc<int32_t>(reached);
  size_t top = 0;
  for (size_t i = 0; i < reached; ++i) {
    const size_t p = static_cast<size_t>(queue[i]);
    if (accepts(p)) {
      mark[p] = 1;
      stack[top++] = static_cast<int32_t>(p);
    }
  }
  while (top > 0) {
    const size_t p = static_cast<size_t>(stack[--top]);
    for (int32_t r = roff[p]; r < roff[p + 1]; ++r) {
      const size_t src = static_cast<size_t>(rsrc[r]);
      if (mark[src] == 0) {
        mark[src] = 1;
        stack[top++] = static_cast<int32_t>(src);
      }
    }
  }

  // Number the live pairs in ascending id: PruneTransducer's monotone
  // renumbering of the product.
  int32_t* pair_of = arena.Alloc<int32_t>(reached);
  size_t live = 0;
  for (size_t p = 0; p < pairs; ++p) {
    if (mark[p] == 1) {
      pair_of[live] = static_cast<int32_t>(p);
      mark[p] = static_cast<int32_t>(live++);
    } else {
      mark[p] = -1;
    }
  }
  if (stats != nullptr) {
    stats->live_pairs = static_cast<int>(live);
    stats->product_pairs = static_cast<int>(pairs);
  }
  if (live == 0) {
    if (stats != nullptr) stats->build_ns = sw.ElapsedNanos();
    return std::nullopt;
  }

  // The (s2, live column) CSR over the query's edges, each run through
  // the constraint, keeping the ones between live pairs in Next's order.
  // Every such edge was crossed once above, so `crossed` bounds them.
  const size_t cells = sigma * live;
  int32_t* off = arena.Alloc<int32_t>(cells + 1);
  int32_t* tgt = arena.Alloc<int32_t>(crossed);
  const Str** out = arena.Alloc<const Str*>(crossed);
  size_t pos = 0;
  for (size_t s2 = 0; s2 < sigma; ++s2) {
    for (size_t col = 0; col < live; ++col) {
      off[s2 * live + col] = static_cast<int32_t>(pos);
      const size_t p = static_cast<size_t>(pair_of[col]);
      const int k = static_cast<int>(p % nk);
      for (const transducer::Edge& e :
           t.Next(static_cast<automata::StateId>(p / nk),
                  static_cast<Symbol>(s2))) {
        const int k2 = advance(k, e.output);
        if (k2 == dead_k) continue;
        const int32_t col2 = mark[static_cast<size_t>(e.target) * nk +
                                 static_cast<size_t>(k2)];
        if (col2 < 0) continue;
        tgt[pos] = col2;
        out[pos++] = &e.output;
      }
    }
  }
  off[cells] = static_cast<int32_t>(pos);
  uint8_t* accepting = arena.Alloc<uint8_t>(live);
  for (size_t col = 0; col < live; ++col) {
    accepting[col] = accepts(static_cast<size_t>(pair_of[col])) ? 1 : 0;
  }
  if (stats != nullptr) stats->build_ns = sw.ElapsedNanos();
  return Solve({live, static_cast<size_t>(mark[start]), accepting, off, tgt,
                out},
               arena);
}

std::optional<Evidence> EmaxContext::Solve(const Columns& g,
                                           kernels::Arena& arena) const {
  const int n = n_;
  const size_t sigma = sigma_;
  const size_t nq = g.cols;
  const size_t cells = sigma * nq;
  const double ninf = -std::numeric_limits<double>::infinity();
  auto idx = [&](size_t s, size_t q) { return s * nq + q; };

  // best[(s,q)] = max log-prob of a world prefix of length i ending in node
  // s with some run reaching column q. The layer update factors into
  //   (1) a dense branchless max-plus gemm over the step tensor:
  //       tmp(s2, q) = max_s prev[(s,q)] + step[s][s2]  (kernels::GemmTN),
  //   (2) a sparse scatter along the column edges q --s2--> q2, which
  //       maxes that mass into the (s2, q2) cells of the next layer.
  // The forward pass stores *every* score layer (n * cells doubles) and
  // keeps no backpointers at all: the hot loop stays pure max-plus (no
  // data-dependent stores), and the single winning chain is recovered
  // afterwards by scanning predecessors for exact score equality — the
  // arithmetic is replayed with the same operands, so the comparison is
  // exact, and scanning in ascending (s, q) order reproduces the
  // first-strict-max tie-break of the scalar DP. Answer streams must stay
  // byte-identical to that DP, because witness worlds seed the Lawler
  // subspace splits.
  double* layers = arena.Alloc<double>(static_cast<size_t>(n) * cells);
  kernels::Matrix<double> tmp(&arena, sigma, nq);
  auto layer = [&](int i) {  // valid for i = 1..n
    return layers + (static_cast<size_t>(i) - 1) * cells;
  };
  const int32_t* csr_off = g.off;
  const int32_t* csr_tgt = g.tgt;

  double* first = layer(1);
  for (size_t c = 0; c < cells; ++c) first[c] = ninf;
  for (size_t s = 0; s < sigma; ++s) {
    double p0 = init_[s];
    if (p0 == ninf) continue;
    const size_t from = s * nq + g.initial;
    for (int32_t e = csr_off[from]; e < csr_off[from + 1]; ++e) {
      size_t cell = idx(s, static_cast<size_t>(csr_tgt[e]));
      if (p0 > first[cell]) first[cell] = p0;
    }
  }
  for (int i = 2; i <= n; ++i) {
    const LogStep& ls = *steps_[static_cast<size_t>(i) - 2];
    kernels::Matrix<double> prev_m(layer(i - 1), sigma, nq);
    // Stage (1): tmp(s2, q) = max_s step[s][s2] + prev[(s,q)]. On the
    // sparse backend the max runs over only the finite step entries via
    // the CSR transpose (rows = s2, ascending s) — the skipped terms are
    // -inf, the max-plus identity, so tmp is bitwise the dense result.
    if (ls.has_sparse) {
      kernels::CsrView<double> at{ls.t_off.data(), ls.t_idx.data(),
                                  ls.t_val.data(), sigma, sigma,
                                  ls.t_val.size()};
      kernels::SpGemm<kernels::MaxPlus>(at, prev_m, &tmp);
    } else {
      // ls.dense is logically const here; the view never writes it.
      kernels::Matrix<double> step_m(const_cast<double*>(ls.dense.data()),
                                     sigma, sigma);
      kernels::GemmTN<kernels::MaxPlus>(step_m, prev_m, &tmp);
    }
    // Stage (2): scatter along the column edges into layer i.
    kernels::Matrix<double> next_m(layer(i), sigma, nq);
    kernels::MaxPlusEdgeScatter(tmp, csr_off, csr_tgt, &next_m);
  }
  const double* prev = layer(n);

  // Pick the best accepting cell in the last layer (now in `prev`).
  double best_val = ninf;
  int32_t best_cell = kNoBack;
  for (size_t s = 0; s < sigma; ++s) {
    for (size_t q = 0; q < nq; ++q) {
      if (!g.accepting[q]) continue;
      if (prev[idx(s, q)] > best_val) {
        best_val = prev[idx(s, q)];
        best_cell = static_cast<int32_t>(idx(s, q));
      }
    }
  }
  if (best_cell == kNoBack || best_val == ninf) return std::nullopt;

  // Backtrack the (node, column) chain by replaying each layer update in
  // reverse. Reverse CSR keyed by (s2, q2): source columns q of the edges
  // q --s2--> q2, in ascending q (built from the q-ascending forward
  // lists), so the ascending (s, q) equality scan below lands on exactly
  // the predecessor the scalar DP's first-strict-max rule kept.
  const size_t num_edges = static_cast<size_t>(csr_off[cells]);
  int32_t* rev_off = arena.Alloc<int32_t>(cells + 1);
  int32_t* rev_src = arena.Alloc<int32_t>(num_edges);
  {
    for (size_t c = 0; c <= cells; ++c) rev_off[c] = 0;
    for (size_t s2 = 0; s2 < sigma; ++s2) {
      const int32_t* off = csr_off + s2 * nq;
      for (size_t q = 0; q < nq; ++q) {
        for (int32_t e = off[q]; e < off[q + 1]; ++e) {
          ++rev_off[s2 * nq + static_cast<size_t>(csr_tgt[e]) + 1];
        }
      }
    }
    for (size_t c = 0; c < cells; ++c) rev_off[c + 1] += rev_off[c];
    int32_t* fill = arena.Alloc<int32_t>(cells);
    for (size_t c = 0; c < cells; ++c) fill[c] = rev_off[c];
    for (size_t s2 = 0; s2 < sigma; ++s2) {
      const int32_t* off = csr_off + s2 * nq;
      for (size_t q = 0; q < nq; ++q) {
        for (int32_t e = off[q]; e < off[q + 1]; ++e) {
          size_t key = s2 * nq + static_cast<size_t>(csr_tgt[e]);
          rev_src[fill[key]++] = static_cast<int32_t>(q);
        }
      }
    }
  }
  std::vector<size_t> chain(static_cast<size_t>(n) + 1);
  chain[static_cast<size_t>(n)] = static_cast<size_t>(best_cell);
  for (int i = n; i >= 2; --i) {
    size_t cell = chain[static_cast<size_t>(i)];
    size_t s2 = cell / nq;
    double target = layer(i)[cell];
    const double* prev_l = layer(i - 1);
    // Backtracking replays the dense log values; the sparse forward left
    // the layers bitwise unchanged, so the equality scan is still exact.
    const double* step_i = steps_[static_cast<size_t>(i) - 2]->dense.data();
    int32_t p = kNoBack;
    for (size_t s = 0; s < sigma && p == kNoBack; ++s) {
      double st = step_i[s * sigma + s2];
      if (st == ninf) continue;
      for (int32_t e = rev_off[cell]; e < rev_off[cell + 1]; ++e) {
        size_t q = static_cast<size_t>(rev_src[e]);
        // Same operands as the forward max, so equality is exact.
        if (prev_l[idx(s, q)] + st == target) {
          p = static_cast<int32_t>(idx(s, q));
          break;
        }
      }
    }
    TMS_CHECK(p != kNoBack);
    chain[static_cast<size_t>(i - 1)] = static_cast<size_t>(p);
  }
  Evidence out;
  out.world.resize(static_cast<size_t>(n));
  for (int i = 1; i <= n; ++i) {
    out.world[static_cast<size_t>(i - 1)] =
        static_cast<Symbol>(chain[static_cast<size_t>(i)] / nq);
  }
  // Reconstruct the output along the run: each step's emission is that of
  // the (unique) edge from the previous column to this one.
  size_t prev_q = g.initial;
  for (int i = 1; i <= n; ++i) {
    const size_t q = chain[static_cast<size_t>(i)] % nq;
    const size_t from =
        static_cast<size_t>(out.world[static_cast<size_t>(i - 1)]) * nq +
        prev_q;
    const Str* w = nullptr;
    for (int32_t e = csr_off[from]; e < csr_off[from + 1]; ++e) {
      if (static_cast<size_t>(csr_tgt[e]) == q) {
        w = g.out[e];
        break;
      }
    }
    TMS_CHECK(w != nullptr);  // the backtracked step's edge exists
    out.output.insert(out.output.end(), w->begin(), w->end());
    prev_q = q;
  }
  out.prob = std::exp(best_val);
  return out;
}

std::optional<Evidence> TopAnswerByEmax(const markov::MarkovSequence& mu,
                                        const transducer::Transducer& t) {
  return EmaxContext(mu).TopAnswer(t);
}

std::optional<Evidence> EmaxOfAnswer(const markov::MarkovSequence& mu,
                                     const transducer::Transducer& t,
                                     const Str& o) {
  TMS_CHECK(mu.nodes() == t.input_alphabet());
  const int n = mu.length();
  const size_t sigma = mu.nodes().size();
  const size_t nq = static_cast<size_t>(t.num_states());
  const size_t jdim = o.size() + 1;
  auto idx = [&](size_t s, size_t q, size_t j) {
    return (s * nq + q) * jdim + j;
  };
  auto advance = [&o](int j, const Str& w) -> int {
    for (Symbol c : w) {
      if (j >= static_cast<int>(o.size()) || o[static_cast<size_t>(j)] != c) {
        return -1;
      }
      ++j;
    }
    return j;
  };

  std::vector<std::vector<LogProb>> best(
      static_cast<size_t>(n) + 1,
      std::vector<LogProb>(sigma * nq * jdim, LogProb::Zero()));
  std::vector<std::vector<int32_t>> back(
      static_cast<size_t>(n) + 1,
      std::vector<int32_t>(sigma * nq * jdim, kNoBack));

  for (size_t s = 0; s < sigma; ++s) {
    LogProb p0 = LogProb::FromLinear(mu.Initial(static_cast<Symbol>(s)));
    if (p0.IsZero()) continue;
    for (const transducer::Edge& e :
         t.Next(t.initial(), static_cast<Symbol>(s))) {
      int j = advance(0, e.output);
      if (j < 0) continue;
      size_t cell = idx(s, static_cast<size_t>(e.target),
                        static_cast<size_t>(j));
      if (p0 > best[1][cell]) best[1][cell] = p0;
    }
  }
  // Positive successors (s2, log step) of the current (i, s), gathered
  // once per source row through the TransitionView instead of a scalar
  // Transition() probe per (s, q, j, s2). The CSR pattern is exactly the
  // set the step.IsZero() test used to keep, in the same ascending order.
  std::vector<std::pair<size_t, LogProb>> successors;
  for (int i = 2; i <= n; ++i) {
    kernels::MatrixRef view = mu.TransitionView(i - 1);
    for (size_t s = 0; s < sigma; ++s) {
      successors.clear();
      if (view.has_sparse) {
        for (int32_t e = view.csr.row_off[s]; e < view.csr.row_off[s + 1];
             ++e) {
          successors.emplace_back(
              static_cast<size_t>(view.csr.col_idx[e]),
              LogProb::FromLinear(view.csr.val[e]));
        }
      } else {
        const double* row = view.dense.row(s);
        for (size_t s2 = 0; s2 < sigma; ++s2) {
          if (row[s2] > 0.0) {
            successors.emplace_back(s2, LogProb::FromLinear(row[s2]));
          }
        }
      }
      for (size_t q = 0; q < nq; ++q) {
        for (size_t j = 0; j < jdim; ++j) {
          LogProb mass = best[static_cast<size_t>(i - 1)][idx(s, q, j)];
          if (mass.IsZero()) continue;
          for (const auto& [s2, step] : successors) {
            LogProb cand = mass * step;
            for (const transducer::Edge& e :
                 t.Next(static_cast<automata::StateId>(q),
                        static_cast<Symbol>(s2))) {
              int j2 = advance(static_cast<int>(j), e.output);
              if (j2 < 0) continue;
              size_t cell = idx(s2, static_cast<size_t>(e.target),
                                static_cast<size_t>(j2));
              if (cand > best[static_cast<size_t>(i)][cell]) {
                best[static_cast<size_t>(i)][cell] = cand;
                back[static_cast<size_t>(i)][cell] =
                    static_cast<int32_t>(idx(s, q, j));
              }
            }
          }
        }
      }
    }
  }

  LogProb best_val = LogProb::Zero();
  int32_t best_cell = kNoBack;
  for (size_t s = 0; s < sigma; ++s) {
    for (size_t q = 0; q < nq; ++q) {
      if (!t.IsAccepting(static_cast<automata::StateId>(q))) continue;
      size_t cell = idx(s, q, o.size());
      if (best[static_cast<size_t>(n)][cell] > best_val) {
        best_val = best[static_cast<size_t>(n)][cell];
        best_cell = static_cast<int32_t>(cell);
      }
    }
  }
  if (best_cell == kNoBack) return std::nullopt;

  std::vector<size_t> cells(static_cast<size_t>(n) + 1);
  cells[static_cast<size_t>(n)] = static_cast<size_t>(best_cell);
  for (int i = n; i >= 2; --i) {
    int32_t prev = back[static_cast<size_t>(i)][cells[static_cast<size_t>(i)]];
    TMS_CHECK(prev != kNoBack);
    cells[static_cast<size_t>(i - 1)] = static_cast<size_t>(prev);
  }
  Evidence out;
  out.world.resize(static_cast<size_t>(n));
  for (int i = 1; i <= n; ++i) {
    out.world[static_cast<size_t>(i - 1)] =
        static_cast<Symbol>(cells[static_cast<size_t>(i)] / (nq * jdim));
  }
  out.output = o;
  out.prob = best_val.ToLinear();
  return out;
}

}  // namespace tms::query
