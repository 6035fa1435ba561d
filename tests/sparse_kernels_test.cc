// Differential property tests for the CSR sparse kernels
// (kernels/sparse.h), three ways:
//
//   1. production kernels::Sp* against their kernels::ref::Sp* scalar
//      twins — BIT-IDENTICAL for every semiring (both evaluate each output
//      cell in CSR storage order; see the sparse.h contract),
//   2. sparse against the scalar dense references on the densified matrix
//      (missing entries = the semiring Zero) — bit-identical for MaxPlus,
//      BoolOr, and Real (skipping a ⊕-identity in an order-preserving
//      reduction is exact),
//   3. BuildCsr / BuildCsrTranspose against the strictly-positive pattern
//      of the source matrix.
//
// Shapes cover 0, 1, and non-block-multiple dims; values include -inf
// rows (the MaxPlus Zero) and denormal-adjacent entries. Replay any
// failure with TMS_TEST_SEED=<seed> ./sparse_kernels_test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kernels/dense.h"
#include "kernels/kernels.h"
#include "kernels/semiring.h"
#include "kernels/sparse.h"
#include "test_util.h"

namespace tms::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const size_t kDims[] = {0, 1, 2, 3, 5, 8, 13, 16, 31};

size_t RandomDim(Rng& rng) {
  return kDims[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(std::size(kDims)) - 1))];
}

double RandomScore(Rng& rng) {
  int64_t kind = rng.UniformInt(0, 9);
  if (kind == 0) return -kInf;
  if (kind == 1) return 5e-324 * static_cast<double>(rng.UniformInt(1, 100));
  return (rng.UniformDouble() - 0.5) * 40.0;
}

double RandomProb(Rng& rng) {
  int64_t kind = rng.UniformInt(0, 9);
  if (kind == 1) return 5e-324 * static_cast<double>(rng.UniformInt(1, 100));
  return rng.UniformDouble() + 1e-9;  // strictly positive
}

template <typename SR>
typename SR::Value RandomValue(Rng& rng);
template <>
double RandomValue<MaxPlus>(Rng& rng) { return RandomScore(rng); }
template <>
double RandomValue<Real>(Rng& rng) { return RandomProb(rng); }
template <>
uint8_t RandomValue<BoolOr>(Rng& rng) {
  return static_cast<uint8_t>(rng.UniformInt(0, 1));
}

// Owning random CSR matrix: each row holds a random ascending subset of
// the columns (expected fill ~40%, sometimes an empty row; row 0 always
// when `first_row_empty`), values drawn from the semiring's distribution.
template <typename SR>
struct RandomCsr {
  std::vector<int32_t> off, idx;
  std::vector<typename SR::Value> val;
  size_t rows, cols;

  RandomCsr(Rng& rng, size_t r, size_t c, bool first_row_empty = false)
      : rows(r), cols(c) {
    off.push_back(0);
    for (size_t i = 0; i < rows; ++i) {
      const bool empty_row =
          rng.UniformInt(0, 7) == 0 || (first_row_empty && i == 0);
      for (size_t j = 0; j < cols && !empty_row; ++j) {
        if (rng.UniformInt(0, 9) < 4) {
          idx.push_back(static_cast<int32_t>(j));
          val.push_back(RandomValue<SR>(rng));
        }
      }
      off.push_back(static_cast<int32_t>(idx.size()));
    }
  }

  CsrView<typename SR::Value> View() const {
    return {off.data(), idx.data(), val.data(), rows, cols, val.size()};
  }

  // Dense form with the semiring Zero in the unstored positions.
  std::vector<typename SR::Value> Densify() const {
    std::vector<typename SR::Value> out(rows * cols, SR::Zero());
    for (size_t i = 0; i < rows; ++i) {
      for (int32_t e = off[i]; e < off[i + 1]; ++e) {
        out[i * cols + static_cast<size_t>(idx[e])] = val[e];
      }
    }
    return out;
  }
};

template <typename T>
void ExpectBitEqual(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if constexpr (std::is_same_v<T, double>) {
      // Bitwise: distinguishes -0.0 / 0.0 and NaN patterns.
      EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
          << "index " << i << ": " << a[i] << " vs " << b[i];
    } else {
      EXPECT_EQ(a[i], b[i]) << "index " << i;
    }
  }
}

// --- 1. production vs ref:: — bit-identical for every semiring ----------

template <typename SR>
void CheckProductionVsRef(Rng& rng) {
  const size_t r = RandomDim(rng), c = RandomDim(rng), n = RandomDim(rng);
  RandomCsr<SR> A(rng, r, c);
  using V = typename SR::Value;

  {
    std::vector<V> x(r), y1(c), y2(c);
    for (auto& v : x) v = RandomValue<SR>(rng);
    Vector<V> xv(x.data(), r), y1v(y1.data(), c), y2v(y2.data(), c);
    SpGemvT<SR>(A.View(), xv, &y1v);
    ref::SpGemvT<SR>(A.View(), xv, &y2v);
    ExpectBitEqual(y1, y2);
  }
  {
    std::vector<V> b(c * n), c1(r * n), c2(r * n);
    for (auto& v : b) v = RandomValue<SR>(rng);
    Matrix<V> bm(b.data(), c, n);
    Matrix<V> c1m(c1.data(), r, n), c2m(c2.data(), r, n);
    SpGemm<SR>(A.View(), bm, &c1m);
    ref::SpGemm<SR>(A.View(), bm, &c2m);
    ExpectBitEqual(c1, c2);
  }
}

TEST(SparseKernels, ProductionMatchesRefBitwise) {
  uint64_t seed = testing::TestSeed(20260809);
  Rng rng(seed);
  SCOPED_TRACE(testing::SeedTrace(seed));
  for (int iter = 0; iter < 60; ++iter) {
    CheckProductionVsRef<MaxPlus>(rng);
    CheckProductionVsRef<Real>(rng);
    CheckProductionVsRef<BoolOr>(rng);
  }
}

// SpGemm keeps each output row in 8-wide register blocks plus one
// 1–7-wide remainder block. Widths 0..17 cover every remainder with no
// full block, with one and with two full blocks, and a row with no
// stored entry must come out as Zero in every block.
template <typename SR>
void CheckSpGemmEveryWidth(Rng& rng) {
  using V = typename SR::Value;
  for (size_t n = 0; n <= 17; ++n) {
    SCOPED_TRACE("width " + std::to_string(n));
    RandomCsr<SR> A(rng, 12, 19, /*first_row_empty=*/true);
    std::vector<V> b(A.cols * n), c1(A.rows * n), c2(A.rows * n);
    for (auto& v : b) v = RandomValue<SR>(rng);
    Matrix<V> bm(b.data(), A.cols, n);
    Matrix<V> c1m(c1.data(), A.rows, n), c2m(c2.data(), A.rows, n);
    SpGemm<SR>(A.View(), bm, &c1m);
    ref::SpGemm<SR>(A.View(), bm, &c2m);
    ExpectBitEqual(c1, c2);
  }
}

TEST(SparseKernels, SpGemmMatchesRefAtEveryWidth) {
  uint64_t seed = testing::TestSeed(20261017);
  Rng rng(seed);
  SCOPED_TRACE(testing::SeedTrace(seed));
  for (int iter = 0; iter < 4; ++iter) {
    CheckSpGemmEveryWidth<MaxPlus>(rng);
    CheckSpGemmEveryWidth<Real>(rng);
    CheckSpGemmEveryWidth<BoolOr>(rng);
  }
}

// --- 2. sparse vs densified dense references ---------------------------

// Skipping the Zero entries of an order-preserving reduction must be
// exact for MaxPlus (max with -inf), Real (sum of nonnegatives with 0.0)
// and BoolOr.
template <typename SR>
void CheckSparseVsDense(Rng& rng) {
  const size_t r = RandomDim(rng), c = RandomDim(rng), n = RandomDim(rng);
  RandomCsr<SR> A(rng, r, c);
  using V = typename SR::Value;
  std::vector<V> dense = A.Densify();
  Matrix<V> am(dense.data(), r, c);

  {
    std::vector<V> x(r), ys(c), yd(c);
    for (auto& v : x) v = RandomValue<SR>(rng);
    Vector<V> xv(x.data(), r), ysv(ys.data(), c), ydv(yd.data(), c);
    SpGemvT<SR>(A.View(), xv, &ysv);
    ref::GemvT<SR>(am, xv, &ydv);
    ExpectBitEqual(ys, yd);
  }
  {
    // SpGemm(A, B) == GemmTN(Aᵀ, B): stage the dense transpose.
    std::vector<V> at(c * r);
    for (size_t i = 0; i < r; ++i) {
      for (size_t j = 0; j < c; ++j) at[j * r + i] = dense[i * c + j];
    }
    Matrix<V> atm(at.data(), c, r);
    std::vector<V> b(c * n), cs(r * n), cd(r * n);
    for (auto& v : b) v = RandomValue<SR>(rng);
    Matrix<V> bm(b.data(), c, n);
    Matrix<V> csm(cs.data(), r, n), cdm(cd.data(), r, n);
    SpGemm<SR>(A.View(), bm, &csm);
    ref::GemmTN<SR>(atm, bm, &cdm);
    ExpectBitEqual(cs, cd);
  }
}

TEST(SparseKernels, SparseMatchesDensifiedDense) {
  uint64_t seed = testing::TestSeed(20260810);
  Rng rng(seed);
  SCOPED_TRACE(testing::SeedTrace(seed));
  for (int iter = 0; iter < 60; ++iter) {
    CheckSparseVsDense<MaxPlus>(rng);
    CheckSparseVsDense<Real>(rng);
    CheckSparseVsDense<BoolOr>(rng);
  }
}

// --- boolean mask gather ----------------------------------------------

TEST(SparseKernels, SpMaskOrMatchesScalarOracle) {
  uint64_t seed = testing::TestSeed(20260812);
  Rng rng(seed);
  SCOPED_TRACE(testing::SeedTrace(seed));
  for (int iter = 0; iter < 100; ++iter) {
    const size_t r = RandomDim(rng), c = RandomDim(rng), n = RandomDim(rng);
    RandomCsr<Real> A(rng, r, c);
    std::vector<uint8_t> b(c * n), c1(r * n), c2(r * n), want(r * n, 0);
    for (auto& v : b) v = static_cast<uint8_t>(rng.UniformInt(0, 1));
    Matrix<uint8_t> bm(b.data(), c, n);
    Matrix<uint8_t> c1m(c1.data(), r, n), c2m(c2.data(), r, n);
    SpMaskOr(A.View(), bm, &c1m);
    ref::SpMaskOr(A.View(), bm, &c2m);
    for (size_t i = 0; i < r; ++i) {
      for (int32_t e = A.off[i]; e < A.off[i + 1]; ++e) {
        const size_t k = static_cast<size_t>(A.idx[e]);
        for (size_t j = 0; j < n; ++j) {
          want[i * n + j] |= b[k * n + j] ? 1 : 0;
        }
      }
    }
    ExpectBitEqual(c1, c2);
    ExpectBitEqual(c1, want);
  }
}

// --- 3. CSR builders ---------------------------------------------------

TEST(SparseKernels, BuildCsrMatchesPositivePattern) {
  uint64_t seed = testing::TestSeed(20260813);
  Rng rng(seed);
  SCOPED_TRACE(testing::SeedTrace(seed));
  for (int iter = 0; iter < 100; ++iter) {
    const size_t r = RandomDim(rng), c = RandomDim(rng);
    std::vector<double> dense(r * c, 0.0);
    for (auto& v : dense) {
      if (rng.UniformInt(0, 2) == 0) v = rng.UniformDouble() + 1e-12;
    }
    std::vector<int32_t> off, idx, toff, tidx;
    std::vector<double> val, tval;
    const size_t nnz = BuildCsr(dense.data(), r, c, &off, &idx, &val);
    const size_t tnnz =
        BuildCsrTranspose(dense.data(), r, c, &toff, &tidx, &tval);
    EXPECT_EQ(nnz, tnnz);

    // Round-trip: densifying the CSR reproduces the matrix exactly (all
    // entries are >= 0, so pattern == strictly-positive set).
    std::vector<double> back(r * c, 0.0);
    ASSERT_EQ(off.size(), r + 1);
    for (size_t i = 0; i < r; ++i) {
      int32_t prev = -1;
      for (int32_t e = off[i]; e < off[i + 1]; ++e) {
        EXPECT_GT(idx[e], prev);  // ascending, duplicate-free
        prev = idx[e];
        back[i * c + static_cast<size_t>(idx[e])] = val[e];
      }
    }
    ExpectBitEqual(back, dense);

    std::vector<double> backt(r * c, 0.0);
    ASSERT_EQ(toff.size(), c + 1);
    for (size_t j = 0; j < c; ++j) {
      int32_t prev = -1;
      for (int32_t e = toff[j]; e < toff[j + 1]; ++e) {
        EXPECT_GT(tidx[e], prev);
        prev = tidx[e];
        backt[static_cast<size_t>(tidx[e]) * c + j] = tval[e];
      }
    }
    ExpectBitEqual(backt, dense);
  }
}

// --- backend policy ----------------------------------------------------

TEST(SparseKernels, ChooseBackendPolicy) {
  using BC = BackendChoice;
  // Forced choices resolve as asked (sparse only when a CSR exists).
  EXPECT_EQ(ChooseBackend(BC::kDense, 0.01, 1024, true), Backend::kDense);
  EXPECT_EQ(ChooseBackend(BC::kSparse, 0.99, 1024, true), Backend::kSparse);
  EXPECT_EQ(ChooseBackend(BC::kSparse, 0.01, 1024, false), Backend::kDense);
  // Auto: sparse iff dense enough a win — low density AND large dim.
  EXPECT_EQ(ChooseBackend(BC::kAuto, 0.05, 1024, true), Backend::kSparse);
  EXPECT_EQ(ChooseBackend(BC::kAuto, 0.50, 1024, true), Backend::kDense);
  EXPECT_EQ(ChooseBackend(BC::kAuto, 0.05, 4, true), Backend::kDense);
  EXPECT_EQ(ChooseBackend(BC::kAuto, 0.05, 1024, false), Backend::kDense);
}

}  // namespace
}  // namespace tms::kernels
