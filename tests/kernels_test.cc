// Differential property tests for the dense semiring kernels: every
// blocked kernel is checked against its kernels::ref:: scalar reference
// over randomized shapes (including 0, 1, and non-multiples of the
// 4-wide block) and adversarial values (-inf rows, denormals). MaxPlus
// and BoolOr must match the reference bit-for-bit; Real within the
// documented reassociation tolerance. EdgeScatter is replayed against a
// scalar edge walk in every semiring, bitwise. Replay any failure with
// TMS_TEST_SEED=<seed> ./kernels_test.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "kernels/arena.h"
#include "kernels/dense.h"
#include "kernels/kernels.h"
#include "kernels/semiring.h"
#include "test_util.h"

namespace tms::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Documented accuracy contract for rounding semirings (see kernels.h).
constexpr double kRelTol = 1e-12;

// Shapes that exercise the empty, degenerate, sub-block, block-aligned,
// and straddling cases of the 4-wide inner loops.
const size_t kDims[] = {0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31};

size_t RandomDim(Rng& rng) {
  return kDims[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(std::size(kDims)) - 1))];
}

// A log-domain score: finite in a plausible range, occasionally -inf
// (the MaxPlus Zero), occasionally denormal-adjacent tiny.
// Never NaN and never -0.0 (rejected by contract / sign-ambiguous).
double RandomScore(Rng& rng) {
  int64_t kind = rng.UniformInt(0, 9);
  if (kind == 0) return -kInf;
  if (kind == 1) return 5e-324 * static_cast<double>(rng.UniformInt(1, 100));
  return (rng.UniformDouble() - 0.5) * 40.0;
}

// A probability-like value for the Real semiring (nonnegative).
double RandomProb(Rng& rng) {
  int64_t kind = rng.UniformInt(0, 9);
  if (kind == 0) return 0.0;
  if (kind == 1) return 5e-324 * static_cast<double>(rng.UniformInt(1, 100));
  return rng.UniformDouble();
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

template <typename SR>
std::vector<typename SR::Value> RandomBuffer(Rng& rng, size_t n) {
  std::vector<typename SR::Value> out(n);
  for (auto& v : out) v = RandomValue<SR>(rng);
  return out;
}

// With probability 1/4, overwrite one row of the buffer with the
// semiring's Zero — the "-inf row" adversarial case for MaxPlus.
template <typename SR>
void MaybeZeroRow(Rng& rng, std::vector<typename SR::Value>* buf,
                  size_t rows, size_t cols) {
  if (rows == 0 || cols == 0 || rng.UniformInt(0, 3) != 0) return;
  size_t r = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(rows) - 1));
  for (size_t c = 0; c < cols; ++c) (*buf)[r * cols + c] = SR::Zero();
}

template <typename SR>
void ExpectMatch(const typename SR::Value& got, const typename SR::Value& want,
                 const char* what) {
  if constexpr (SR::kExactReorder) {
    // Bit-for-bit: memcmp-grade equality (covers -inf == -inf; NaN is
    // excluded by the input contract).
    EXPECT_EQ(got, want) << what;
  } else {
    if (std::isinf(want)) {
      EXPECT_EQ(got, want) << what;
    } else {
      EXPECT_NEAR(got, want, kRelTol * (1.0 + std::fabs(want))) << what;
    }
  }
}

template <typename SR>
void RunDifferentialSweep(uint64_t seed, int trials) {
  Rng rng(seed);
  using V = typename SR::Value;
  for (int trial = 0; trial < trials; ++trial) {
    const size_t m = RandomDim(rng), n = RandomDim(rng), K = RandomDim(rng);

    // GemvT: y = Aᵀ ⊕⊗ x, A m×n.
    {
      auto a = RandomBuffer<SR>(rng, m * n);
      auto x = RandomBuffer<SR>(rng, m);
      std::vector<V> got(n), want(n);
      Matrix<V> am(a.data(), m, n);
      Vector<V> xv(x.data(), m), gv(got.data(), n), wv(want.data(), n);
      GemvT<SR>(am, xv, &gv);
      ref::GemvT<SR>(am, xv, &wv);
      for (size_t j = 0; j < n; ++j) {
        ExpectMatch<SR>(got[j], want[j], "GemvT");
      }
    }

    // GemmTN: C = Aᵀ ⊕⊗ B, A K×m, B K×n, C m×n.
    {
      auto a = RandomBuffer<SR>(rng, K * m);
      auto b = RandomBuffer<SR>(rng, K * n);
      MaybeZeroRow<SR>(rng, &b, K, n);
      std::vector<V> got(m * n), want(m * n);
      Matrix<V> am(a.data(), K, m), bm(b.data(), K, n);
      Matrix<V> gm(got.data(), m, n), wm(want.data(), m, n);
      GemmTN<SR>(am, bm, &gm);
      ref::GemmTN<SR>(am, bm, &wm);
      for (size_t i = 0; i < m * n; ++i) {
        ExpectMatch<SR>(got[i], want[i], "GemmTN");
      }
    }

    // RowReduce: y[i] = ⊕_j A(i,j).
    {
      auto a = RandomBuffer<SR>(rng, m * n);
      MaybeZeroRow<SR>(rng, &a, m, n);
      std::vector<V> got(m), want(m);
      Matrix<V> am(a.data(), m, n);
      Vector<V> gv(got.data(), m), wv(want.data(), m);
      RowReduce<SR>(am, &gv);
      ref::RowReduce<SR>(am, &wv);
      for (size_t i = 0; i < m; ++i) {
        ExpectMatch<SR>(got[i], want[i], "RowReduce");
      }
    }
  }
}

TEST(KernelsDifferentialTest, MaxPlusMatchesReferenceBitwise) {
  const uint64_t seed = testing::TestSeed(7301);
  SCOPED_TRACE(testing::SeedTrace(seed));
  RunDifferentialSweep<MaxPlus>(seed, 200);
}

TEST(KernelsDifferentialTest, RealWithinTolerance) {
  const uint64_t seed = testing::TestSeed(7303);
  SCOPED_TRACE(testing::SeedTrace(seed));
  RunDifferentialSweep<Real>(seed, 200);
}

TEST(KernelsDifferentialTest, BoolOrMatchesReferenceExactly) {
  const uint64_t seed = testing::TestSeed(7304);
  SCOPED_TRACE(testing::SeedTrace(seed));
  RunDifferentialSweep<BoolOr>(seed, 200);
}

// One EdgeScatter<SR> against a scalar replay of its edges in ascending
// (r, c, e) order from Zero: bitwise in every semiring (Real included,
// because the replay adds in the kernel's order).
template <typename SR>
void CheckEdgeScatter(Rng& rng) {
  using V = typename SR::Value;
  const size_t rows = RandomDim(rng), cols = RandomDim(rng);
  const size_t dcols = RandomDim(rng);
  if (dcols == 0) return;  // no valid targets to scatter into
  auto src = RandomBuffer<SR>(rng, rows * cols);
  // Random CSR: each (r, c) cell gets 0–2 targets, so target cells
  // collect several sources.
  std::vector<int32_t> off(rows * cols + 1, 0);
  std::vector<int32_t> tgt;
  for (size_t i = 0; i < rows * cols; ++i) {
    int64_t fanout = rng.UniformInt(0, 2);
    for (int64_t e = 0; e < fanout; ++e) {
      tgt.push_back(static_cast<int32_t>(
          rng.UniformInt(0, static_cast<int64_t>(dcols) - 1)));
    }
    off[i + 1] = static_cast<int32_t>(tgt.size());
  }
  std::vector<V> got(rows * dcols), want(rows * dcols, SR::Zero());
  Matrix<V> sm(src.data(), rows, cols);
  Matrix<V> gm(got.data(), rows, dcols);
  EdgeScatter<SR>(sm, off.data(), tgt.data(), &gm);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      for (int32_t e = off[r * cols + c]; e < off[r * cols + c + 1]; ++e) {
        V& cell = want[r * dcols + static_cast<size_t>(tgt[e])];
        cell = SR::Plus(cell, src[r * cols + c]);
      }
    }
  }
  for (size_t i = 0; i < rows * dcols; ++i) {
    if constexpr (std::is_same_v<V, double>) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                std::bit_cast<uint64_t>(want[i]))
          << SR::kName << " EdgeScatter cell " << i << ": " << got[i]
          << " vs " << want[i];
    } else {
      EXPECT_EQ(got[i], want[i]) << SR::kName << " EdgeScatter cell " << i;
    }
  }
}

TEST(KernelsDifferentialTest, EdgeScatterMatchesScalarReplay) {
  const uint64_t seed = testing::TestSeed(7306);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    CheckEdgeScatter<MaxPlus>(rng);
    CheckEdgeScatter<Real>(rng);
    CheckEdgeScatter<BoolOr>(rng);
  }
}

TEST(KernelsTest, HasNaNDetectsOnlyNaN) {
  // NaN inputs are rejected by contract; HasNaN is the detection hook.
  // -inf, +inf, -0.0 and denormals are all legitimate values.
  std::vector<double> clean = {0.0, -0.0, 1.5, -kInf, kInf, 5e-324};
  EXPECT_FALSE(HasNaN(clean.data(), clean.size()));
  clean[3] = std::nan("");
  EXPECT_TRUE(HasNaN(clean.data(), clean.size()));
  EXPECT_FALSE(HasNaN(clean.data(), 0));
}

TEST(KernelsTest, ArenaResetReusesStorageAndKeepsAlignment) {
  Arena arena;
  double* a = arena.Alloc<double>(100);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
  a[0] = 1.0;
  a[99] = 2.0;
  const size_t used = arena.bytes_in_use();
  arena.Reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  double* b = arena.Alloc<double>(100);
  EXPECT_EQ(a, b);  // same block, no regrowth
  EXPECT_GE(arena.high_water(), used);
  // Growth retires the old block but leaves prior pointers valid within
  // the evaluation (until the next Reset).
  arena.Reset();
  double* c = arena.Alloc<double>(10);
  c[0] = 42.0;
  double* big = arena.Alloc<double>(1 << 20);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(c[0], 42.0);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(big) % 64, 0u);
}

TEST(KernelsTest, MatrixViewsAreRowMajorAndZeroSizeSafe) {
  Arena arena;
  Matrix<double> m(&arena, 3, 5);
  m.Fill(0.5);
  m(1, 4) = 2.0;
  EXPECT_EQ(m.row(1)[4], 2.0);
  EXPECT_EQ(m.data()[1 * 5 + 4], 2.0);
  Matrix<double> empty(&arena, 0, 0);
  empty.Fill(1.0);  // must not touch memory
  Vector<double> ev(&arena, 0);
  ev.Fill(1.0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(ev.size(), 0u);
}

}  // namespace
}  // namespace tms::kernels
