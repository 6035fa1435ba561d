// CSR sparse kernels over semirings, the companion of kernels/kernels.h
// for the large-alphabet regime (|Σ| in the hundreds, a few percent of
// transition entries nonzero).
//
// Layout: standard compressed sparse rows with int32 indices —
//
//   row_off : rows+1 offsets into col_idx/val; row r owns the segment
//             [row_off[r], row_off[r+1])
//   col_idx : column of each stored entry, strictly ascending within a
//             row (duplicate-free by contract)
//   val     : the entry values
//
// CsrView never owns storage (the dense.h convention): it wraps arrays
// held by the caller — a MarkovSequence TransitionStep, an Arena carve,
// or plain vectors in tests.
//
// Two complete implementations again:
//
//   kernels::ref::Sp*  — scalar loops in storage order, the differential
//                        oracle for tests/sparse_kernels_test.cc.
//   kernels::Sp*       — restrict-qualified production loops.
//
// Reduction-order contract (stronger than the dense layer's): BOTH tiers
// evaluate every output cell's ⊕-reduction in CSR storage order, i.e. in
// ascending column index. Production is therefore bit-identical to ref::
// for every semiring, not just the reorder-exact ones. Against the
// *dense* kernels, a sparse reduction differs only by skipping entries
// absent from the CSR; when those entries are ⊕-identities (the only
// thing the engines ever omit: true zeros of Real/BoolOr, -inf of
// MaxPlus) skipping is exact, so the DP hot paths produce
// byte-identical layers — and hence byte-identical ranked answer
// streams — on either backend. NaN inputs are rejected by contract as in
// the dense layer (HasNaN is the hook); -inf is a first-class value.
//
// Index conventions mirror kernels.h:
//   SpGemvT:     y[j]   = ⊕_i A(i,j) ⊗ x[i]       i-outer ascending, so
//                per-j contributions arrive in ascending i — the dense
//                GemvT / ref order; rounding semirings match bit-for-bit
//                when the skipped entries are exact zeros.
//   SpGemm:      C(i,·) = ⊕_k A(i,k) ⊗ B(k,·)     register-held row
//                blocks (8 columns, then a 1–7-wide remainder) filled in
//                ascending k; feeding the CSR *transpose* of a step
//                matrix makes this exactly the dense GemmTN layer step
//                (ascending k per cell).
//   SpMaskOr:    C(i,·) = OR over stored (i,k) of B(k,·)  (pattern only)

#ifndef TMS_KERNELS_SPARSE_H_
#define TMS_KERNELS_SPARSE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "kernels/backend.h"
#include "kernels/dense.h"
#include "kernels/kernels.h"
#include "kernels/semiring.h"

namespace tms::kernels {

/// Non-owning CSR view; pointer-plus-shape, trivially copyable.
template <typename T>
struct CsrView {
  const int32_t* row_off = nullptr;  // rows + 1 offsets
  const int32_t* col_idx = nullptr;  // nnz columns, ascending per row
  const T* val = nullptr;            // nnz values
  size_t rows = 0;
  size_t cols = 0;
  size_t nnz = 0;

  bool empty() const { return row_off == nullptr; }
};

/// One transition matrix behind a single dispatch point: the dense
/// row-major view always present, plus CSR views of the matrix and of its
/// transpose when the owner built them (density <= kSparseBuildMaxDensity;
/// see backend.h). The CSR pattern holds exactly the strictly positive
/// entries of `dense` (for probability matrices) — engines rely on that
/// equivalence to skip work without changing results.
struct MatrixRef {
  Matrix<double> dense;      // always valid
  CsrView<double> csr;       // rows = source states; valid iff has_sparse
  CsrView<double> csr_t;     // transpose, rows = target states
  double density = 1.0;      // nnz / (rows*cols)
  bool has_sparse = false;

  size_t rows() const { return dense.rows(); }
  size_t cols() const { return dense.cols(); }
};

/// Fills `off`/`idx`/`out_val` with the CSR form of the strictly positive
/// entries of the rows×cols row-major matrix `dense` (ascending columns
/// per row). Returns nnz.
size_t BuildCsr(const double* dense, size_t rows, size_t cols,
                std::vector<int32_t>* off, std::vector<int32_t>* idx,
                std::vector<double>* out_val);

/// Same, for the transpose pattern (rows of the output index columns of
/// `dense`); ascending per row.
size_t BuildCsrTranspose(const double* dense, size_t rows, size_t cols,
                         std::vector<int32_t>* off, std::vector<int32_t>* idx,
                         std::vector<double>* out_val);

namespace internal {
// kernels.sparse.<op>.calls / .nnz counters, defined in sparse.cc.
void CountSpGemv(size_t nnz);
void CountSpGemm(size_t cells);
void CountSpMaskOr(size_t nnz);
}  // namespace internal

// ---------------------------------------------------------------------------
// Scalar reference implementations (the differential-testing oracle).
// ---------------------------------------------------------------------------

namespace ref {

template <typename SR>
void SpGemvT(const CsrView<typename SR::Value>& A,
             const Vector<typename SR::Value>& x,
             Vector<typename SR::Value>* y) {
  TMS_DCHECK(A.rows == x.size() && A.cols == y->size());
  for (size_t j = 0; j < A.cols; ++j) (*y)[j] = SR::Zero();
  for (size_t i = 0; i < A.rows; ++i) {
    for (int32_t e = A.row_off[i]; e < A.row_off[i + 1]; ++e) {
      const int32_t j = A.col_idx[e];
      (*y)[j] = SR::Plus((*y)[j], SR::Times(A.val[e], x[i]));
    }
  }
}

template <typename SR>
void SpGemm(const CsrView<typename SR::Value>& A,
            const Matrix<typename SR::Value>& B,
            Matrix<typename SR::Value>* C) {
  TMS_DCHECK(A.cols == B.rows() && A.rows == C->rows() &&
             B.cols() == C->cols());
  for (size_t i = 0; i < A.rows; ++i) {
    for (size_t j = 0; j < B.cols(); ++j) {
      typename SR::Value acc = SR::Zero();
      for (int32_t e = A.row_off[i]; e < A.row_off[i + 1]; ++e) {
        acc = SR::Plus(acc, SR::Times(A.val[e], B(A.col_idx[e], j)));
      }
      (*C)(i, j) = acc;
    }
  }
}

/// Pattern-only boolean row gather: C(i,·) = OR over stored (i,k) of
/// B(k,·). Values are ignored; presence in the pattern is truth.
void SpMaskOr(const CsrView<double>& A, const Matrix<uint8_t>& B,
              Matrix<uint8_t>* C);

}  // namespace ref

// ---------------------------------------------------------------------------
// Production kernels. Storage-order loops like ref:: (bit-identical for
// every semiring — see the header contract), restrict-qualified with
// unit-stride inner loops where a dense dimension exists.
// ---------------------------------------------------------------------------

/// y[j] = ⊕_i A(i,j) ⊗ x[i]; i-outer ascending (the dense GemvT order).
template <typename SR>
void SpGemvT(const CsrView<typename SR::Value>& A,
             const Vector<typename SR::Value>& x,
             Vector<typename SR::Value>* y) {
  using V = typename SR::Value;
  TMS_DCHECK(A.rows == x.size() && A.cols == y->size());
  const int32_t* TMS_RESTRICT off = A.row_off;
  const int32_t* TMS_RESTRICT col = A.col_idx;
  const V* TMS_RESTRICT av = A.val;
  const V* TMS_RESTRICT xp = x.data();
  V* TMS_RESTRICT yp = y->data();
  for (size_t j = 0; j < A.cols; ++j) yp[j] = SR::Zero();
  for (size_t i = 0; i < A.rows; ++i) {
    const V xi = xp[i];
    for (int32_t e = off[i]; e < off[i + 1]; ++e) {
      const int32_t j = col[e];
      yp[j] = SR::Plus(yp[j], SR::Times(av[e], xi));
    }
  }
  internal::CountSpGemv(A.nnz);
}

namespace internal {

/// Columns [0, W) of every row of C (row stride n) from the matching
/// columns of B (row stride n): one W-wide register block per output
/// row, filled by one pass over the row's stored entries in ascending
/// order, then stored once.
template <typename SR, size_t W>
void SpGemmPanel(const CsrView<typename SR::Value>& A,
                 const typename SR::Value* TMS_RESTRICT b, size_t n,
                 typename SR::Value* TMS_RESTRICT c) {
  using V = typename SR::Value;
  const int32_t* TMS_RESTRICT off = A.row_off;
  const int32_t* TMS_RESTRICT col = A.col_idx;
  const V* TMS_RESTRICT av = A.val;
  for (size_t i = 0; i < A.rows; ++i) {
    V acc[W];
    for (size_t j = 0; j < W; ++j) acc[j] = SR::Zero();
    for (int32_t e = off[i]; e < off[i + 1]; ++e) {
      const V a = av[e];
      const V* TMS_RESTRICT brow = b + static_cast<size_t>(col[e]) * n;
      for (size_t j = 0; j < W; ++j) {
        acc[j] = SR::Plus(acc[j], SR::Times(a, brow[j]));
      }
    }
    V* TMS_RESTRICT crow = c + i * n;
    for (size_t j = 0; j < W; ++j) crow[j] = acc[j];
  }
}

}  // namespace internal

/// C(i,·) = ⊕ over row i of A(i,k) ⊗ B(k,·). Each output row is built
/// in registers, 8 columns at a time plus one 1–7-wide remainder block:
/// a stored entry loads its B row segment and folds it into the block,
/// and C is written once per block, so the loop costs one ⊕ latency per
/// stored entry rather than a load-modify-store of every C cell. Every
/// cell still sees its contributions in ascending k (the ref:: order),
/// so the result is bit-identical to ref::SpGemm for every semiring.
/// With A = the CSR transpose of a step matrix this computes the dense
/// GemmTN layer transition over only the stored (nonzero / finite)
/// entries.
template <typename SR>
void SpGemm(const CsrView<typename SR::Value>& A,
            const Matrix<typename SR::Value>& B,
            Matrix<typename SR::Value>* C) {
  using V = typename SR::Value;
  TMS_DCHECK(A.cols == B.rows() && A.rows == C->rows() &&
             B.cols() == C->cols());
  const size_t n = B.cols();
  const V* b = B.data();
  V* c = C->data();
  size_t j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    internal::SpGemmPanel<SR, 8>(A, b + j0, n, c + j0);
  }
  switch (n - j0) {
    case 1: internal::SpGemmPanel<SR, 1>(A, b + j0, n, c + j0); break;
    case 2: internal::SpGemmPanel<SR, 2>(A, b + j0, n, c + j0); break;
    case 3: internal::SpGemmPanel<SR, 3>(A, b + j0, n, c + j0); break;
    case 4: internal::SpGemmPanel<SR, 4>(A, b + j0, n, c + j0); break;
    case 5: internal::SpGemmPanel<SR, 5>(A, b + j0, n, c + j0); break;
    case 6: internal::SpGemmPanel<SR, 6>(A, b + j0, n, c + j0); break;
    case 7: internal::SpGemmPanel<SR, 7>(A, b + j0, n, c + j0); break;
    default: break;
  }
  internal::CountSpGemm(A.nnz * n);
}

/// Pattern-only boolean row gather (the membership reachability step):
/// C(i,·) = OR over stored (i,k) of B(k,·).
void SpMaskOr(const CsrView<double>& A, const Matrix<uint8_t>& B,
              Matrix<uint8_t>* C);

// Hot-path instantiations are compiled once in sparse.cc (built at the
// kernels.cc vectorization level, see src/CMakeLists.txt).
#define TMS_SPARSE_EXTERN_SR(SR)                                          \
  extern template void SpGemvT<SR>(const CsrView<SR::Value>&,             \
                                   const Vector<SR::Value>&,              \
                                   Vector<SR::Value>*);                   \
  extern template void SpGemm<SR>(const CsrView<SR::Value>&,              \
                                  const Matrix<SR::Value>&,               \
                                  Matrix<SR::Value>*)
TMS_SPARSE_EXTERN_SR(MaxPlus);
TMS_SPARSE_EXTERN_SR(Real);
TMS_SPARSE_EXTERN_SR(BoolOr);
#undef TMS_SPARSE_EXTERN_SR

}  // namespace tms::kernels

#endif  // TMS_KERNELS_SPARSE_H_
