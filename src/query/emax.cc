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
#include "query/column_graph.h"

namespace tms::query {
namespace {

using numeric::LogProb;

constexpr int32_t kNoBack = -1;

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

std::optional<Evidence> EmaxContext::TopAnswer(
    const transducer::Transducer& t) const {
  TMS_CHECK(mu_->nodes() == t.input_alphabet());
  kernels::Arena& arena = ColumnDpArena();
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
  kernels::Arena& arena = ColumnDpArena();
  arena.Reset();
  const ColumnGraph g = ColumnGraph::Build(t, c, arena);
  if (stats != nullptr) {
    stats->live_pairs = static_cast<int>(g.cols);
    stats->product_pairs =
        t.num_states() * (static_cast<int>(c.prefix.size()) + 3);
    stats->build_ns = sw.ElapsedNanos();
  }
  if (g.cols == 0) return std::nullopt;
  return Solve(g, arena);
}

std::optional<Evidence> EmaxContext::Solve(const ColumnGraph& g,
                                           kernels::Arena& arena) const {
  const int n = n_;
  const size_t sigma = sigma_;
  const size_t nq = g.cols;
  const size_t cells = sigma * nq;
  const double ninf = -std::numeric_limits<double>::infinity();
  auto idx = [&](size_t s, size_t q) { return s * nq + q; };

  // best[(s,q)] = max log-prob of a world prefix of length i ending in node
  // s with some run reaching column q: RunColumnDp's max-plus layers, the
  // step a dense GemmTN over the log step tensor (or SpGemm over its
  // finite entries), the scatter along the column edges.
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
  auto layer = [&](int i) {  // valid for i = 1..n
    return layers + (static_cast<size_t>(i) - 1) * cells;
  };
  const int32_t* csr_off = g.off;
  const int32_t* csr_tgt = g.tgt;
  RunColumnDp<kernels::MaxPlus>(
      g, sigma, n, init_.data(), arena,
      [&](int i, const kernels::Matrix<double>& prev,
          kernels::Matrix<double>* tmp) {
        const LogStep& ls = *steps_[static_cast<size_t>(i) - 2];
        // tmp(s2, q) = max_s step[s][s2] + prev[(s,q)]. On the sparse
        // backend the max runs over only the finite step entries via the
        // CSR transpose (rows = s2, ascending s) — the skipped terms are
        // -inf, the max-plus identity, so tmp is bitwise the dense result.
        if (ls.has_sparse) {
          kernels::CsrView<double> at{ls.t_off.data(), ls.t_idx.data(),
                                      ls.t_val.data(), sigma, sigma,
                                      ls.t_val.size()};
          kernels::SpGemm<kernels::MaxPlus>(at, prev, tmp);
        } else {
          // ls.dense is logically const here; the view never writes it.
          kernels::Matrix<double> step_m(const_cast<double*>(ls.dense.data()),
                                         sigma, sigma);
          kernels::GemmTN<kernels::MaxPlus>(step_m, prev, tmp);
        }
      },
      layer);
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
  return EmaxContext(mu).TopAnswer(
      t, ranking::OutputConstraint::Exactly(o, t.output_alphabet()));
}

}  // namespace tms::query
