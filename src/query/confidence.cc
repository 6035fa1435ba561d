#include "query/confidence.h"

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "kernels/arena.h"
#include "kernels/dense.h"
#include "kernels/kernels.h"
#include "kernels/semiring.h"
#include "kernels/sparse.h"
#include "obs/obs.h"
#include "query/column_graph.h"
#include "query/confidence_exact.h"
#include "query/subset_dp.h"
#include "ranking/prefix_constraint.h"

namespace tms::query {
namespace {

using internal::AdvanceExact;
using internal::DoubleProb;
using internal::RationalProb;

Status RequireSameAlphabet(const markov::MarkovSequence& mu,
                           const transducer::Transducer& t) {
  if (!(mu.nodes() == t.input_alphabet())) {
    return Status::InvalidArgument(
        "Markov sequence node set and transducer input alphabet differ");
  }
  return Status::Ok();
}

// --- Theorem 4.6 ------------------------------------------------------

// Double-precision path for the deterministic DP: RunColumnDp in the Real
// semiring over the column graph of (t, exact o) (query/column_graph.h),
// on two rolling layers. Only the live (q, j) pairs carry columns. Every
// other column of the full σ × (|Q|·(|o|+1)) layer either holds exactly
// 0.0 at every step or never feeds an accepting pair, so dropping it
// removes only +0.0 terms and dead mass, and the monotone numbering keeps
// every kept addition in the full grid's order. Each step is a
// Real-semiring gemm against the step's transition matrix followed by
// the edge scatter. The gemm collapses the predecessor-node sum first
// (the scalar loop interleaves it with the scatter), so results can
// differ from the scalar path by reassociation error — within the kernel
// layer's documented Real tolerance. The sparse path skips only
// exact-zero transition entries of that nonnegative sum in the same
// ascending order, so it is bitwise identical to the dense path.
double DetConfidenceOnColumns(const markov::MarkovSequence& mu,
                              const transducer::Transducer& t, const Str& o,
                              kernels::BackendChoice backend) {
  const int n = mu.length();
  const size_t sigma = mu.nodes().size();
  const kernels::Backend resolved = kernels::ChooseBackend(
      backend, mu.TransitionDensity(), sigma, mu.HasSparseTransitions());
  kernels::Arena& arena = ColumnDpArena();
  arena.Reset();
  const ColumnGraph g = ColumnGraph::Build(
      t, ranking::OutputConstraint::Exactly(o, t.output_alphabet()), arena);
  if (g.cols == 0) return 0.0;

  double* init = arena.Alloc<double>(sigma);
  for (size_t s = 0; s < sigma; ++s) {
    init[s] = mu.Initial(static_cast<Symbol>(s));
  }
  double* rolling[2] = {arena.Alloc<double>(sigma * g.cols),
                        arena.Alloc<double>(sigma * g.cols)};
  RunColumnDp<kernels::Real>(
      g, sigma, n, init, arena,
      [&](int i, const kernels::Matrix<double>& cur,
          kernels::Matrix<double>* tmp) {
        // tmp(s2, c) = Σ_s μ_i(s, s2)·cur(s, c): the mass arriving at node
        // s2 from every live (s, q, j) cell. The step matrix is read in
        // place from the Markov sequence (no per-step σ² copy).
        kernels::MatrixRef view = mu.TransitionView(i - 1);
        if (resolved == kernels::Backend::kSparse && view.has_sparse) {
          kernels::SpGemm<kernels::Real>(view.csr_t, cur, tmp);
        } else {
          kernels::GemmTN<kernels::Real>(view.dense, cur, tmp);
        }
      },
      [&](int i) { return rolling[i & 1]; });

  // The accepting columns (every symbol after o is dead, so they matched
  // all of o), in ascending (s, column) order.
  const double* last = rolling[n & 1];
  double total = 0.0;
  for (size_t s = 0; s < sigma; ++s) {
    for (size_t c = 0; c < g.cols; ++c) {
      if (g.accepting[c]) total += last[s * g.cols + c];
    }
  }
  return total;
}

template <typename P>
StatusOr<typename P::Value> DetConfidenceImpl(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    const Str& o,
    kernels::BackendChoice backend = kernels::BackendChoice::kAuto) {
  TMS_RETURN_IF_ERROR(RequireSameAlphabet(mu, t));
  if (!t.IsDeterministic()) {
    return Status::FailedPrecondition(
        "ConfidenceDeterministic requires a deterministic transducer");
  }
  using Value = typename P::Value;
  const int n = mu.length();
  const size_t sigma = mu.nodes().size();
  const size_t nq = static_cast<size_t>(t.num_states());
  const size_t jdim = o.size() + 1;
  auto idx = [&](size_t s, size_t q, size_t j) {
    return (s * nq + q) * jdim + j;
  };

  TMS_OBS_SPAN("query.confidence.det_dp");
  TMS_OBS_COUNT("query.confidence.det_calls", 1);
  // One DP layer holds σ·|Q|·(|o|+1) cells; n layers are materialized
  // (Theorem 4.6's polynomial bound, reported as scanned cell count).
  TMS_OBS_COUNT("query.confidence.dp_cells",
                static_cast<int64_t>(sigma * nq * jdim) * n);

  if constexpr (std::is_same_v<P, DoubleProb>) {
    // Doubles take the kernel path; Rational keeps the scalar loop
    // below (exact arithmetic has no dense representation here).
    return DetConfidenceOnColumns(mu, t, o, backend);
  }

  std::vector<Value> cur(sigma * nq * jdim, P::Zero());
  for (size_t s = 0; s < sigma; ++s) {
    Value p0 = P::Initial(mu, static_cast<Symbol>(s));
    if (P::IsZero(p0)) continue;
    const transducer::Edge& e =
        t.Next(t.initial(), static_cast<Symbol>(s))[0];
    int j = AdvanceExact(o, 0, e.output);
    if (j < 0) continue;
    cur[idx(s, static_cast<size_t>(e.target), static_cast<size_t>(j))] += p0;
  }

  for (int i = 2; i <= n; ++i) {
    std::vector<Value> next(sigma * nq * jdim, P::Zero());
    for (size_t s = 0; s < sigma; ++s) {
      for (size_t q = 0; q < nq; ++q) {
        for (size_t j = 0; j < jdim; ++j) {
          const Value& mass = cur[idx(s, q, j)];
          if (P::IsZero(mass)) continue;
          for (size_t s2 = 0; s2 < sigma; ++s2) {
            Value step = P::Transition(mu, i - 1, static_cast<Symbol>(s),
                                       static_cast<Symbol>(s2));
            if (P::IsZero(step)) continue;
            const transducer::Edge& e =
                t.Next(static_cast<automata::StateId>(q),
                       static_cast<Symbol>(s2))[0];
            int j2 = AdvanceExact(o, static_cast<int>(j), e.output);
            if (j2 < 0) continue;
            next[idx(s2, static_cast<size_t>(e.target),
                     static_cast<size_t>(j2))] += mass * step;
          }
        }
      }
    }
    cur = std::move(next);
  }

  Value total = P::Zero();
  for (size_t s = 0; s < sigma; ++s) {
    for (size_t q = 0; q < nq; ++q) {
      if (t.IsAccepting(static_cast<automata::StateId>(q))) {
        total += cur[idx(s, q, o.size())];
      }
    }
  }
  return total;
}

// --- Theorem 4.8 ------------------------------------------------------

template <typename P>
StatusOr<typename P::Value> UniformSubsetImpl(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    const Str& o) {
  TMS_RETURN_IF_ERROR(RequireSameAlphabet(mu, t));
  std::optional<int> k = t.UniformEmissionLength();
  if (!k.has_value()) {
    return Status::FailedPrecondition(
        "ConfidenceUniformSubset requires uniform emission");
  }
  if (t.num_states() > 63) {
    return Status::OutOfRange(
        "ConfidenceUniformSubset supports at most 63 states");
  }
  using Value = typename P::Value;
  const int n = mu.length();
  const size_t sigma = mu.nodes().size();
  // With k-uniform emission every accepting run on an n-world emits k·n
  // symbols, so a mismatched |o| means confidence 0.
  if (static_cast<int64_t>(o.size()) !=
      static_cast<int64_t>(*k) * static_cast<int64_t>(n)) {
    return P::Zero();
  }

  // Checks ω(q, s, q') == o[k(i-1) .. k·i) for input position i (1-based).
  auto emission_matches = [&](const Str& w, int i) {
    const size_t off = static_cast<size_t>(*k) * static_cast<size_t>(i - 1);
    for (size_t d = 0; d < w.size(); ++d) {
      if (o[off + d] != w[d]) return false;
    }
    return true;
  };

  TMS_OBS_SPAN("query.confidence.subset_dp");
  TMS_OBS_COUNT("query.confidence.uniform_subset_calls", 1);
  int64_t masks_scanned = 0;

  // cur : (node, state mask) -> probability mass of the length-i
  // prefixes ending in that node whose "consistent-run state set" is that
  // mask (empty masks dropped). A mask is the one-word SubsetLayer set.
  internal::SubsetLayer<Value> cur(sigma, 1);
  internal::SubsetLayer<Value> next(sigma, 1);
  for (size_t s = 0; s < sigma; ++s) {
    Value p0 = P::Initial(mu, static_cast<Symbol>(s));
    if (P::IsZero(p0)) continue;
    uint64_t mask = 0;
    for (const transducer::Edge& e :
         t.Next(t.initial(), static_cast<Symbol>(s))) {
      if (emission_matches(e.output, 1)) {
        mask |= (1ULL << static_cast<uint64_t>(e.target));
      }
    }
    if (mask != 0) cur.Add(s, &mask, std::move(p0));
  }

  // step_mask[q * σ + s2]: the states input s2 takes q to while emitting
  // the block of o at position i; it depends on i, never on the mask.
  const size_t nq = static_cast<size_t>(t.num_states());
  std::vector<uint64_t> step_mask(nq * sigma);
  internal::SuccessorRows<P> rows(sigma);
  for (int i = 2; i <= n; ++i) {
    for (size_t q = 0; q < nq; ++q) {
      for (size_t s2 = 0; s2 < sigma; ++s2) {
        uint64_t m = 0;
        for (const transducer::Edge& e :
             t.Next(static_cast<automata::StateId>(q),
                    static_cast<Symbol>(s2))) {
          if (emission_matches(e.output, i)) {
            m |= (1ULL << static_cast<uint64_t>(e.target));
          }
        }
        step_mask[q * sigma + s2] = m;
      }
    }
    rows.Gather(mu, i, cur);
    next.Clear();
    masks_scanned += cur.width();
    cur.ForEachCell([&](size_t s, const uint64_t* mask, const Value& mass) {
      for (const auto& [s2, p] : rows.row(s)) {
        uint64_t mask2 = 0;
        for (uint64_t rest = *mask; rest != 0; rest &= rest - 1) {
          mask2 |= step_mask[static_cast<size_t>(__builtin_ctzll(rest)) *
                                 sigma +
                             s2];
        }
        if (mask2 != 0) next.Add(s2, &mask2, mass * p);
      }
    });
    std::swap(cur, next);
  }

  uint64_t accept_mask = 0;
  for (int q = 0; q < t.num_states(); ++q) {
    if (t.IsAccepting(q)) accept_mask |= (1ULL << static_cast<uint64_t>(q));
  }
  Value total = P::Zero();
  cur.ForEachCell([&](size_t, const uint64_t* mask, const Value& mass) {
    if ((*mask & accept_mask) != 0) total += mass;
  });
  TMS_OBS_COUNT("query.confidence.subset_masks", masks_scanned);
  (void)masks_scanned;  // only read by instrumentation
  return total;
}

}  // namespace

StatusOr<double> ConfidenceDeterministic(const markov::MarkovSequence& mu,
                                         const transducer::Transducer& t,
                                         const Str& o,
                                         kernels::BackendChoice backend) {
  return DetConfidenceImpl<DoubleProb>(mu, t, o, backend);
}

StatusOr<numeric::Rational> ConfidenceDeterministicExact(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    const Str& o) {
  if (!mu.has_exact()) {
    return Status::FailedPrecondition(
        "exact confidence requires exact probabilities on the Markov "
        "sequence");
  }
  return DetConfidenceImpl<RationalProb>(mu, t, o);
}

StatusOr<double> ConfidenceDeterministicUniform(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    const Str& o) {
  if (!t.IsDeterministic()) {
    return Status::FailedPrecondition(
        "ConfidenceDeterministicUniform requires a deterministic transducer");
  }
  if (!t.UniformEmissionLength().has_value()) {
    return Status::FailedPrecondition(
        "ConfidenceDeterministicUniform requires uniform emission");
  }
  // A deterministic transducer is a special case of the subset DP (all
  // masks are singletons), which already has no output dimension.
  return UniformSubsetImpl<DoubleProb>(mu, t, o);
}

StatusOr<double> ConfidenceUniformSubset(const markov::MarkovSequence& mu,
                                         const transducer::Transducer& t,
                                         const Str& o) {
  return UniformSubsetImpl<DoubleProb>(mu, t, o);
}

StatusOr<numeric::Rational> ConfidenceUniformSubsetExact(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    const Str& o) {
  if (!mu.has_exact()) {
    return Status::FailedPrecondition(
        "exact confidence requires exact probabilities on the Markov "
        "sequence");
  }
  return UniformSubsetImpl<RationalProb>(mu, t, o);
}

StatusOr<double> Confidence(const markov::MarkovSequence& mu,
                            const transducer::Transducer& t, const Str& o,
                            kernels::BackendChoice backend) {
  TMS_OBS_COUNT("query.confidence.calls", 1);
  if (t.IsDeterministic()) {
    if (t.UniformEmissionLength().has_value()) {
      return ConfidenceDeterministicUniform(mu, t, o);
    }
    return ConfidenceDeterministic(mu, t, o, backend);
  }
  if (t.UniformEmissionLength().has_value() && t.num_states() <= 63) {
    return ConfidenceUniformSubset(mu, t, o);
  }
  TMS_OBS_COUNT("query.confidence.exact_calls", 1);
  ExactConfidenceStats stats;
  StatusOr<double> conf = ConfidenceExact(mu, t, o, &stats);
  TMS_OBS_COUNT("query.confidence.exact_entries", stats.total_entries);
  return conf;
}

}  // namespace tms::query
