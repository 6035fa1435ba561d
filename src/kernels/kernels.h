// Blocked, auto-vectorization-friendly dense kernels over semirings.
//
// Two complete implementations live here:
//
//   kernels::ref::*  — straight scalar loops in a fixed, documented
//                      evaluation order. These are the semantic ground
//                      truth; tests/kernels_test.cc checks every blocked
//                      kernel against them differentially.
//   kernels::*       — the production kernels: restrict-qualified
//                      pointers, unit-stride inner loops, 4-wide
//                      accumulators, written so GCC/Clang auto-vectorize
//                      them at the project's default -O2.
//
// Accuracy contract:
//   * MaxPlus and BoolOr are reordering-free (SR::kExactReorder): blocked
//     results are bit-identical to ref:: for NaN-free inputs.
//   * Real rounds, so blocked evaluation may differ from ref:: by
//     reassociation error. Guarantee: |blocked - ref| <=
//     8 * eps * (|reduction length| terms) relative — in practice a few
//     ulps; kernels_test pins it at 1e-12 relative.
//   * NaN inputs are rejected by contract, not laundered: callers must
//     not pass NaN (HasNaN() is the test hook; TMS_DCHECKed on entry).
//     -inf (the MaxPlus Zero) is a first-class value.
//
// Index conventions (all matrices row-major, see dense.h):
//   GemvT:       y[j]   = ⊕_i A(i,j) ⊗ x[i]        (A: m×n, x: m, y: n)
//   GemmTN:      C(i,j) = ⊕_k A(k,i) ⊗ B(k,j)      (A: K×m, B: K×n, C: m×n)
//   RowReduce:   y[i]   = ⊕_j A(i,j)
//   EdgeScatter: D(r,t) = ⊕ over the CSR edges (r, c) → t of S(r,c)
// The TN (transposed-A) gemm shape is what the layered DPs need: layer
// vectors keep the large state dimension unit-stride in memory. GemmTN
// (or SpGemm) followed by EdgeScatter is one layer of every column-graph
// DP (query/column_graph.h).

#ifndef TMS_KERNELS_KERNELS_H_
#define TMS_KERNELS_KERNELS_H_

#include <cstdint>
#include <cstddef>

#include "common/check.h"
#include "kernels/dense.h"
#include "kernels/semiring.h"

#if defined(_MSC_VER)
#define TMS_RESTRICT __restrict
#else
#define TMS_RESTRICT __restrict__
#endif

namespace tms::kernels {

/// True if any of the n doubles is NaN. Test/debug hook for the NaN
/// rejection contract; O(n), so production call sites only run it under
/// TMS_DCHECK.
bool HasNaN(const double* p, size_t n);

namespace internal {
// Fixed-name obs counters (kernels.<op>.calls / kernels.<op>.cells),
// defined in kernels.cc so header-only templates don't each re-resolve
// the registry entry.
void CountGemv(size_t cells);
void CountGemm(size_t cells);
}  // namespace internal

// ---------------------------------------------------------------------------
// Scalar reference implementations (the differential-testing oracle).
// ---------------------------------------------------------------------------

namespace ref {

template <typename SR>
void GemvT(const Matrix<typename SR::Value>& A,
           const Vector<typename SR::Value>& x,
           Vector<typename SR::Value>* y) {
  TMS_DCHECK(A.rows() == x.size() && A.cols() == y->size());
  for (size_t j = 0; j < A.cols(); ++j) {
    typename SR::Value acc = SR::Zero();
    for (size_t i = 0; i < A.rows(); ++i) {
      acc = SR::Plus(acc, SR::Times(A(i, j), x[i]));
    }
    (*y)[j] = acc;
  }
}

template <typename SR>
void GemmTN(const Matrix<typename SR::Value>& A,
            const Matrix<typename SR::Value>& B,
            Matrix<typename SR::Value>* C) {
  TMS_DCHECK(A.rows() == B.rows() && A.cols() == C->rows() &&
             B.cols() == C->cols());
  for (size_t i = 0; i < C->rows(); ++i) {
    for (size_t j = 0; j < C->cols(); ++j) {
      typename SR::Value acc = SR::Zero();
      for (size_t k = 0; k < A.rows(); ++k) {
        acc = SR::Plus(acc, SR::Times(A(k, i), B(k, j)));
      }
      (*C)(i, j) = acc;
    }
  }
}

template <typename SR>
void RowReduce(const Matrix<typename SR::Value>& A,
               Vector<typename SR::Value>* y) {
  TMS_DCHECK(A.rows() == y->size());
  for (size_t i = 0; i < A.rows(); ++i) {
    typename SR::Value acc = SR::Zero();
    for (size_t j = 0; j < A.cols(); ++j) acc = SR::Plus(acc, A(i, j));
    (*y)[i] = acc;
  }
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Blocked production kernels.
// ---------------------------------------------------------------------------

/// y[j] = ⊕_i A(i,j) ⊗ x[i]. i-outer with a unit-stride j inner loop:
/// the per-j contributions arrive in ascending i, the same order as the
/// scalar reference, so even rounding semirings match ref:: here.
template <typename SR>
void GemvT(const Matrix<typename SR::Value>& A,
           const Vector<typename SR::Value>& x,
           Vector<typename SR::Value>* y) {
  using V = typename SR::Value;
  TMS_DCHECK(A.rows() == x.size() && A.cols() == y->size());
  const size_t m = A.rows(), n = A.cols();
  V* TMS_RESTRICT yp = y->data();
  for (size_t j = 0; j < n; ++j) yp[j] = SR::Zero();
  for (size_t i = 0; i < m; ++i) {
    const V* TMS_RESTRICT a = A.row(i);
    const V xi = x[i];
    for (size_t j = 0; j < n; ++j) {
      yp[j] = SR::Plus(yp[j], SR::Times(a[j], xi));
    }
  }
  internal::CountGemv(m * n);
}

/// C(i,j) = ⊕_k A(k,i) ⊗ B(k,j). k-outer / i-mid / unit-stride j inner:
/// each (k,i) pair broadcasts one A value across a contiguous B row into
/// a contiguous C row — the loop the vectorizer likes best. Per-cell
/// contributions arrive in ascending k (same order as ref::), so even
/// Real matches the reference bit-for-bit here.
template <typename SR>
void GemmTN(const Matrix<typename SR::Value>& A,
            const Matrix<typename SR::Value>& B,
            Matrix<typename SR::Value>* C) {
  using V = typename SR::Value;
  TMS_DCHECK(A.rows() == B.rows() && A.cols() == C->rows() &&
             B.cols() == C->cols());
  const size_t K = A.rows(), m = C->rows(), n = C->cols();
  C->Fill(SR::Zero());
  for (size_t k = 0; k < K; ++k) {
    const V* TMS_RESTRICT arow = A.row(k);
    const V* TMS_RESTRICT brow = B.row(k);
    for (size_t i = 0; i < m; ++i) {
      const V a = arow[i];
      V* TMS_RESTRICT crow = C->row(i);
      for (size_t j = 0; j < n; ++j) {
        crow[j] = SR::Plus(crow[j], SR::Times(a, brow[j]));
      }
    }
  }
  internal::CountGemm(K * m * n);
}

/// y[i] = ⊕_j A(i,j). Four independent accumulators over j hide the ⊕
/// latency chain and give the vectorizer a clean reduction.
template <typename SR>
void RowReduce(const Matrix<typename SR::Value>& A,
               Vector<typename SR::Value>* y) {
  using V = typename SR::Value;
  TMS_DCHECK(A.rows() == y->size());
  const size_t m = A.rows(), n = A.cols();
  V* TMS_RESTRICT yp = y->data();
  for (size_t i = 0; i < m; ++i) {
    const V* TMS_RESTRICT a = A.row(i);
    V acc0 = SR::Zero(), acc1 = SR::Zero(), acc2 = SR::Zero(),
      acc3 = SR::Zero();
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      acc0 = SR::Plus(acc0, a[j + 0]);
      acc1 = SR::Plus(acc1, a[j + 1]);
      acc2 = SR::Plus(acc2, a[j + 2]);
      acc3 = SR::Plus(acc3, a[j + 3]);
    }
    for (; j < n; ++j) acc0 = SR::Plus(acc0, a[j]);
    yp[i] = SR::Plus(SR::Plus(acc0, acc2), SR::Plus(acc1, acc3));
  }
}

/// Edge scatter, the companion of GemmTN / SpGemm in the column-graph DPs
/// (query/column_graph.h): overwrites dst with Zero, then for every source
/// cell (r, c) of src, in ascending (r, c, e), ⊕-accumulates its value
/// into the cell (r, tgt[e]) of dst, e ranging over the CSR segment
/// [off[r*cols + c], off[r*cols + c + 1]). off has src.rows()*src.cols()
/// + 1 entries; dst must have src.rows() rows. Each target cell sees its
/// sources in ascending (c, e), so Real sums keep that order, and MaxPlus
/// and BoolOr are exact.
template <typename SR>
void EdgeScatter(const Matrix<typename SR::Value>& src, const int32_t* off,
                 const int32_t* tgt, Matrix<typename SR::Value>* dst) {
  using V = typename SR::Value;
  TMS_DCHECK(src.rows() == dst->rows());
  const size_t rows = src.rows(), cols = src.cols();
  dst->Fill(SR::Zero());
  for (size_t r = 0; r < rows; ++r) {
    const V* TMS_RESTRICT srow = src.row(r);
    V* TMS_RESTRICT drow = dst->row(r);
    const int32_t* TMS_RESTRICT o = off + r * cols;
    for (size_t c = 0; c < cols; ++c) {
      const V v = srow[c];
      for (int32_t e = o[c]; e < o[c + 1]; ++e) {
        const int32_t t = tgt[e];
        drow[t] = SR::Plus(v, drow[t]);
      }
    }
  }
}

// The hot-path instantiations are compiled once in kernels.cc, which is
// built with stronger vectorization flags than the rest of the library
// (see src/CMakeLists.txt); callers link against those definitions
// instead of instantiating at -O2 in their own TU.
#define TMS_KERNELS_EXTERN_SR(SR)                                        \
  extern template void GemvT<SR>(const Matrix<SR::Value>&,               \
                                 const Vector<SR::Value>&,               \
                                 Vector<SR::Value>*);                    \
  extern template void GemmTN<SR>(const Matrix<SR::Value>&,              \
                                  const Matrix<SR::Value>&,              \
                                  Matrix<SR::Value>*);                   \
  extern template void RowReduce<SR>(const Matrix<SR::Value>&,           \
                                     Vector<SR::Value>*);                \
  extern template void EdgeScatter<SR>(const Matrix<SR::Value>&,         \
                                       const int32_t*, const int32_t*,   \
                                       Matrix<SR::Value>*)
TMS_KERNELS_EXTERN_SR(MaxPlus);
TMS_KERNELS_EXTERN_SR(Real);
TMS_KERNELS_EXTERN_SR(BoolOr);
#undef TMS_KERNELS_EXTERN_SR

}  // namespace tms::kernels

#endif  // TMS_KERNELS_KERNELS_H_
