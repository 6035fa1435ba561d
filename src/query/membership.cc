#include "query/membership.h"

#include <cstdint>

#include "common/check.h"
#include "kernels/arena.h"
#include "kernels/dense.h"
#include "kernels/kernels.h"
#include "kernels/semiring.h"
#include "kernels/sparse.h"
#include "query/column_graph.h"
#include "ranking/prefix_constraint.h"

namespace tms::query {
namespace {

// Reachability DP over layers i = 1..n of (node, live column) cells:
// RunColumnDp in the BoolOr semiring over the column graph of (t, c)
// (query/column_graph.h), on two rolling layers. Each step is a BoolOr
// gemm against the step's transition mask (which nodes can follow which)
// followed by the edge scatter. BoolOr is reordering-free, so the
// verdicts are those of the scalar triple loop over the full grid; a
// column that is not live never reaches an accepting pair.
bool Reachable(const markov::MarkovSequence& mu,
               const transducer::Transducer& t,
               const ranking::OutputConstraint& c,
               kernels::BackendChoice backend) {
  TMS_CHECK(mu.nodes() == t.input_alphabet());
  const int n = mu.length();
  const size_t sigma = mu.nodes().size();
  const kernels::Backend resolved = kernels::ChooseBackend(
      backend, mu.TransitionDensity(), sigma, mu.HasSparseTransitions());
  kernels::Arena& arena = ColumnDpArena();
  arena.Reset();
  const ColumnGraph g = ColumnGraph::Build(t, c, arena);
  if (g.cols == 0) return false;

  uint8_t* init = arena.Alloc<uint8_t>(sigma);
  for (size_t s = 0; s < sigma; ++s) {
    init[s] = mu.Initial(static_cast<Symbol>(s)) > 0 ? 1 : 0;
  }
  uint8_t* rolling[2] = {arena.Alloc<uint8_t>(sigma * g.cols),
                         arena.Alloc<uint8_t>(sigma * g.cols)};
  kernels::Matrix<uint8_t> tmask(&arena, sigma, sigma);
  RunColumnDp<kernels::BoolOr>(
      g, sigma, n, init, arena,
      [&](int i, const kernels::Matrix<uint8_t>& cur,
          kernels::Matrix<uint8_t>* tmp) {
        // tmp(s2, c) = OR_s [μ(s,s2) > 0] & cur(s, c): "some live (s, c)
        // cell can step to node s2". The CSR pattern of the step *is* the
        // > 0 mask, so the sparse path gathers only the supported
        // predecessors — same verdicts, O(nnz) instead of O(σ²).
        kernels::MatrixRef view = mu.TransitionView(i - 1);
        if (resolved == kernels::Backend::kSparse && view.has_sparse) {
          kernels::SpMaskOr(view.csr_t, cur, tmp);
        } else {
          for (size_t s = 0; s < sigma; ++s) {
            const double* mrow = view.dense.row(s);
            uint8_t* trow = tmask.row(s);
            for (size_t s2 = 0; s2 < sigma; ++s2) {
              trow[s2] = mrow[s2] > 0 ? 1 : 0;
            }
          }
          kernels::GemmTN<kernels::BoolOr>(tmask, cur, tmp);
        }
      },
      [&](int i) { return rolling[i & 1]; });

  const uint8_t* last = rolling[n & 1];
  for (size_t s = 0; s < sigma; ++s) {
    for (size_t col = 0; col < g.cols; ++col) {
      if (g.accepting[col] && last[s * g.cols + col]) return true;
    }
  }
  return false;
}

}  // namespace

bool IsPossibleAnswer(const markov::MarkovSequence& mu,
                      const transducer::Transducer& t, const Str& o,
                      kernels::BackendChoice backend) {
  return Reachable(
      mu, t, ranking::OutputConstraint::Exactly(o, t.output_alphabet()),
      backend);
}

bool HasAnyAnswer(const markov::MarkovSequence& mu,
                  const transducer::Transducer& t,
                  kernels::BackendChoice backend) {
  return Reachable(mu, t, ranking::OutputConstraint::All(), backend);
}

bool HasAnswerWithPrefix(const markov::MarkovSequence& mu,
                         const transducer::Transducer& t, const Str& prefix,
                         kernels::BackendChoice backend) {
  return Reachable(mu, t, ranking::OutputConstraint{prefix, {}, true},
                   backend);
}

}  // namespace tms::query
