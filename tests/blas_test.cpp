// Level-3 BLAS substrate vs. straightforward reference implementations,
// swept over shapes, transposes, and alpha/beta combinations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "blas/lapack.hpp"
#include "blas/microkernel.hpp"
#include "blas/tuning.hpp"
#include "tensor/matrix.hpp"
#include "tensor/random_matrix.hpp"

namespace conflux::xblas {
namespace {

MatrixD ref_gemm(Trans ta, Trans tb, double alpha, const MatrixD& a,
                 const MatrixD& b, double beta, const MatrixD& c0) {
  const index_t m = c0.rows(), n = c0.cols();
  const index_t k = (ta == Trans::None) ? a.cols() : a.rows();
  MatrixD c = c0;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (index_t p = 0; p < k; ++p) {
        const double av = (ta == Trans::None) ? a(i, p) : a(p, i);
        const double bv = (tb == Trans::None) ? b(p, j) : b(j, p);
        sum += av * bv;
      }
      c(i, j) = alpha * sum + beta * c(i, j);
    }
  }
  return c;
}

double max_diff(const MatrixD& x, const MatrixD& y) {
  double d = 0.0;
  for (index_t i = 0; i < x.rows(); ++i) {
    for (index_t j = 0; j < x.cols(); ++j) {
      d = std::max(d, std::abs(x(i, j) - y(i, j)));
    }
  }
  return d;
}

// ---------------------------------------------------------------- gemm ----

struct GemmCase {
  index_t m, n, k;
  Trans ta, tb;
  double alpha, beta;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesReference) {
  const auto& p = GetParam();
  const index_t ar = (p.ta == Trans::None) ? p.m : p.k;
  const index_t ac = (p.ta == Trans::None) ? p.k : p.m;
  const index_t br = (p.tb == Trans::None) ? p.k : p.n;
  const index_t bc = (p.tb == Trans::None) ? p.n : p.k;
  const MatrixD a = random_matrix(ar, ac, 1);
  const MatrixD b = random_matrix(br, bc, 2);
  const MatrixD c0 = random_matrix(p.m, p.n, 3);
  const MatrixD want = ref_gemm(p.ta, p.tb, p.alpha, a, b, p.beta, c0);
  MatrixD got = c0;
  gemm(p.ta, p.tb, p.alpha, a.view(), b.view(), p.beta, got.view());
  EXPECT_LT(max_diff(want, got), 1e-11 * static_cast<double>(p.k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTransposes, GemmSweep,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::None, Trans::None, 1.0, 0.0},
        GemmCase{5, 7, 3, Trans::None, Trans::None, 1.0, 1.0},
        GemmCase{64, 64, 64, Trans::None, Trans::None, 1.0, 0.0},
        GemmCase{65, 67, 63, Trans::None, Trans::None, -0.5, 2.0},
        GemmCase{128, 70, 129, Trans::None, Trans::None, 1.0, 1.0},
        GemmCase{33, 45, 27, Trans::Transpose, Trans::None, 1.0, 0.0},
        GemmCase{33, 45, 27, Trans::None, Trans::Transpose, 1.0, 0.0},
        GemmCase{33, 45, 27, Trans::Transpose, Trans::Transpose, 2.0, -1.0},
        GemmCase{100, 1, 100, Trans::None, Trans::None, 1.0, 0.0},
        GemmCase{1, 100, 100, Trans::None, Trans::None, 1.0, 0.0},
        GemmCase{257, 129, 65, Trans::None, Trans::None, 1.0, 1.0},
        GemmCase{16, 16, 300, Trans::Transpose, Trans::None, 1.0, 0.5}));

// Ragged sizes around the blocked-algorithm boundaries: with the default
// diagonal block b = 64 these are {1, b-1, b, b+1, 3b+5}, and 197/300 also
// cross the gemm register-tile (8) and cache-block (mc/kc) edges.
INSTANTIATE_TEST_SUITE_P(
    RaggedBlockEdges, GemmSweep,
    ::testing::Values(
        GemmCase{63, 65, 197, Trans::None, Trans::None, 1.0, 1.0},
        GemmCase{63, 65, 197, Trans::Transpose, Trans::None, 1.0, 0.0},
        GemmCase{63, 65, 197, Trans::None, Trans::Transpose, -1.0, 1.0},
        GemmCase{63, 65, 197, Trans::Transpose, Trans::Transpose, 2.0, 0.5},
        GemmCase{197, 197, 197, Trans::None, Trans::None, 1.0, 0.0},
        GemmCase{197, 197, 197, Trans::Transpose, Trans::None, 1.0, 1.0},
        GemmCase{197, 197, 197, Trans::None, Trans::Transpose, 1.0, 0.0},
        GemmCase{197, 197, 197, Trans::Transpose, Trans::Transpose, 1.0, 1.0},
        GemmCase{197, 1, 65, Trans::None, Trans::None, 1.0, 0.0},
        GemmCase{1, 197, 64, Trans::Transpose, Trans::None, 1.0, 1.0},
        GemmCase{65, 197, 1, Trans::None, Trans::Transpose, 1.0, 0.0},
        GemmCase{64, 63, 65, Trans::Transpose, Trans::Transpose, 1.0, 1.0},
        GemmCase{300, 300, 300, Trans::None, Trans::None, 1.0, 0.0},
        GemmCase{300, 130, 200, Trans::Transpose, Trans::None, -0.5, 2.0}));

// Small-k fast path (k <= Tuning::small_k, default 64): B is streamed
// through the strided microkernel instead of packed. These shapes are big
// enough to clear the small_gemm_flops cutoff, so they exercise the fast
// path (transb == None) and the packed fallback (transb == Transpose), and
// 300/68/61 cross the register-tile and cache-block edges.
INSTANTIATE_TEST_SUITE_P(
    SmallK, GemmSweep,
    ::testing::Values(
        GemmCase{256, 300, 8, Trans::None, Trans::None, 1.0, 0.0},
        GemmCase{256, 300, 8, Trans::None, Trans::Transpose, 1.0, 1.0},
        GemmCase{193, 261, 16, Trans::None, Trans::None, -1.0, 1.0},
        GemmCase{193, 261, 16, Trans::Transpose, Trans::None, 1.0, 0.0},
        GemmCase{130, 68, 32, Trans::None, Trans::None, 2.0, -0.5},
        GemmCase{130, 68, 32, Trans::Transpose, Trans::Transpose, 1.0, 1.0},
        GemmCase{61, 517, 16, Trans::None, Trans::None, 1.0, 1.0},
        GemmCase{900, 61, 8, Trans::None, Trans::None, 1.0, 0.0}));

TEST(Gemm, SmallKPathMatchesPackedPathBitwise) {
  // The strided-B microkernel performs the identical multiply-accumulate
  // sequence on the identical values as the packed one, so toggling the
  // path via tuning().small_k must not change one bit of the result.
  const index_t m = 160, n = 230, k = 24;
  const MatrixD a = random_matrix(m, k, 81);
  const MatrixD b = random_matrix(k, n, 82);
  const MatrixD c0 = random_matrix(m, n, 83);
  const Tuning saved = tuning();
  tuning().small_k = 64;  // fast path on
  MatrixD fast = c0;
  gemm(Trans::None, Trans::None, 1.0, a.view(), b.view(), 1.0, fast.view());
  tuning().small_k = 0;  // fast path off: classic packed-B route
  MatrixD packed = c0;
  gemm(Trans::None, Trans::None, 1.0, a.view(), b.view(), 1.0, packed.view());
  tuning() = saved;
  EXPECT_EQ(fast, packed);
}

TEST(Gemm, PackedPathWorksOnStridedSubviews) {
  // Large enough to take the packed/blocked path, with ld > cols on every
  // operand so the packing routines see genuine strides.
  MatrixD big_a = random_matrix(260, 260, 21);
  MatrixD big_b = random_matrix(260, 260, 22);
  MatrixD big_c(260, 260, 0.0);
  const index_t m = 200, n = 150, k = 180;
  gemm(Trans::None, Trans::None, 1.0, big_a.block(3, 5, m, k),
       big_b.block(7, 2, k, n), 0.0, big_c.block(11, 13, m, n));
  MatrixD a(m, k), b(k, n), c0(m, n, 0.0);
  copy<double>(big_a.block(3, 5, m, k), a.view());
  copy<double>(big_b.block(7, 2, k, n), b.view());
  const MatrixD want = ref_gemm(Trans::None, Trans::None, 1.0, a, b, 0.0, c0);
  MatrixD got(m, n);
  copy<double>(big_c.block(11, 13, m, n), got.view());
  EXPECT_LT(max_diff(want, got), 1e-11 * static_cast<double>(k));
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  const MatrixD a = random_matrix(8, 8, 1);
  const MatrixD b = random_matrix(8, 8, 2);
  MatrixD c = random_matrix(8, 8, 3);
  const MatrixD c0 = c;
  gemm(Trans::None, Trans::None, 0.0, a.view(), b.view(), 2.0, c.view());
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 8; ++j) EXPECT_DOUBLE_EQ(c(i, j), 2.0 * c0(i, j));
  }
}

TEST(Gemm, BetaZeroIgnoresGarbageInC) {
  const MatrixD a = random_matrix(4, 4, 1);
  const MatrixD b = random_matrix(4, 4, 2);
  MatrixD c(4, 4, std::numeric_limits<double>::quiet_NaN());
  gemm(Trans::None, Trans::None, 1.0, a.view(), b.view(), 0.0, c.view());
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) EXPECT_FALSE(std::isnan(c(i, j)));
  }
}

TEST(Gemm, WorksOnStridedSubviews) {
  MatrixD big_a = random_matrix(10, 10, 1);
  MatrixD big_b = random_matrix(10, 10, 2);
  MatrixD big_c(10, 10, 0.0);
  gemm(Trans::None, Trans::None, 1.0, big_a.block(2, 2, 4, 5),
       big_b.block(1, 3, 5, 6), 0.0, big_c.block(0, 0, 4, 6));
  // Reference on extracted dense copies.
  MatrixD a(4, 5), b(5, 6), c0(4, 6, 0.0);
  copy<double>(big_a.block(2, 2, 4, 5), a.view());
  copy<double>(big_b.block(1, 3, 5, 6), b.view());
  const MatrixD want = ref_gemm(Trans::None, Trans::None, 1.0, a, b, 0.0, c0);
  MatrixD got(4, 6);
  copy<double>(big_c.block(0, 0, 4, 6), got.view());
  EXPECT_LT(max_diff(want, got), 1e-12);
}

TEST(Gemm, ShapeMismatchThrows) {
  MatrixD a(3, 4), b(5, 6), c(3, 6);
  EXPECT_THROW(
      gemm(Trans::None, Trans::None, 1.0, a.view(), b.view(), 0.0, c.view()),
      contract_error);
}

TEST(Gemm, EmptyDimensionsAreNoOps) {
  MatrixD a(0, 0), b(0, 0), c(0, 0);
  EXPECT_NO_THROW(
      gemm(Trans::None, Trans::None, 1.0, a.view(), b.view(), 0.0, c.view()));
  MatrixD a2(3, 0), b2(0, 4), c2 = random_matrix(3, 4, 1);
  const MatrixD c2_before = c2;
  gemm(Trans::None, Trans::None, 1.0, a2.view(), b2.view(), 1.0, c2.view());
  EXPECT_EQ(c2, c2_before);
}

// ---------------------------------------------------------------- trsm ----

struct TrsmCase {
  Side side;
  UpLo uplo;
  Trans trans;
  Diag diag;
  index_t m, n;
};

class TrsmSweep : public ::testing::TestWithParam<TrsmCase> {};

TEST_P(TrsmSweep, SolveThenMultiplyRoundTrips) {
  const auto& p = GetParam();
  const index_t dim = (p.side == Side::Left) ? p.m : p.n;
  // Build a well-conditioned triangle.
  MatrixD t = random_matrix(dim, dim, 4);
  for (index_t i = 0; i < dim; ++i) t(i, i) = 4.0 + std::abs(t(i, i));
  // Zero out the unused triangle to catch accidental references.
  for (index_t i = 0; i < dim; ++i) {
    for (index_t j = 0; j < dim; ++j) {
      const bool in_tri = (p.uplo == UpLo::Lower) ? (j <= i) : (j >= i);
      if (!in_tri) t(i, j) = std::numeric_limits<double>::quiet_NaN();
    }
  }
  const MatrixD b = random_matrix(p.m, p.n, 5);
  MatrixD x = b;
  trsm(p.side, p.uplo, p.trans, p.diag, 1.0, t.view(), x.view());

  // Multiply back: op(T) * X or X * op(T), with the diag convention applied.
  MatrixD tt(dim, dim, 0.0);
  for (index_t i = 0; i < dim; ++i) {
    for (index_t j = 0; j < dim; ++j) {
      const bool in_tri = (p.uplo == UpLo::Lower) ? (j <= i) : (j >= i);
      if (in_tri) tt(i, j) = (i == j && p.diag == Diag::Unit) ? 1.0 : t(i, j);
    }
  }
  MatrixD back(p.m, p.n, 0.0);
  if (p.side == Side::Left) {
    gemm(p.trans, Trans::None, 1.0, tt.view(), x.view(), 0.0, back.view());
  } else {
    gemm(Trans::None, p.trans, 1.0, x.view(), tt.view(), 0.0, back.view());
  }
  EXPECT_LT(max_diff(back, b), 1e-9 * static_cast<double>(dim));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmSweep,
    ::testing::Values(
        TrsmCase{Side::Left, UpLo::Lower, Trans::None, Diag::NonUnit, 17, 9},
        TrsmCase{Side::Left, UpLo::Lower, Trans::None, Diag::Unit, 17, 9},
        TrsmCase{Side::Left, UpLo::Lower, Trans::Transpose, Diag::NonUnit, 17, 9},
        TrsmCase{Side::Left, UpLo::Lower, Trans::Transpose, Diag::Unit, 33, 1},
        TrsmCase{Side::Left, UpLo::Upper, Trans::None, Diag::NonUnit, 17, 9},
        TrsmCase{Side::Left, UpLo::Upper, Trans::None, Diag::Unit, 8, 24},
        TrsmCase{Side::Left, UpLo::Upper, Trans::Transpose, Diag::NonUnit, 17, 9},
        TrsmCase{Side::Left, UpLo::Upper, Trans::Transpose, Diag::Unit, 17, 9},
        TrsmCase{Side::Right, UpLo::Lower, Trans::None, Diag::NonUnit, 9, 17},
        TrsmCase{Side::Right, UpLo::Lower, Trans::None, Diag::Unit, 9, 17},
        TrsmCase{Side::Right, UpLo::Lower, Trans::Transpose, Diag::NonUnit, 9, 17},
        TrsmCase{Side::Right, UpLo::Lower, Trans::Transpose, Diag::Unit, 1, 33},
        TrsmCase{Side::Right, UpLo::Upper, Trans::None, Diag::NonUnit, 9, 17},
        TrsmCase{Side::Right, UpLo::Upper, Trans::None, Diag::Unit, 24, 8},
        TrsmCase{Side::Right, UpLo::Upper, Trans::Transpose, Diag::NonUnit, 9, 17},
        TrsmCase{Side::Right, UpLo::Upper, Trans::Transpose, Diag::Unit, 9, 17}));

// Triangle sizes past the blocked-trsm diagonal block (default b = 64):
// every side/uplo/trans combination exercises the small-kernel + gemm-update
// driver, at b-1, b, b+1 and 3b+5 with ragged RHS widths.
INSTANTIATE_TEST_SUITE_P(
    BlockedDriver, TrsmSweep,
    ::testing::Values(
        TrsmCase{Side::Left, UpLo::Lower, Trans::None, Diag::NonUnit, 197, 65},
        TrsmCase{Side::Left, UpLo::Lower, Trans::None, Diag::Unit, 65, 63},
        TrsmCase{Side::Left, UpLo::Lower, Trans::Transpose, Diag::NonUnit, 197, 65},
        TrsmCase{Side::Left, UpLo::Lower, Trans::Transpose, Diag::Unit, 64, 197},
        TrsmCase{Side::Left, UpLo::Upper, Trans::None, Diag::NonUnit, 197, 65},
        TrsmCase{Side::Left, UpLo::Upper, Trans::None, Diag::Unit, 63, 64},
        TrsmCase{Side::Left, UpLo::Upper, Trans::Transpose, Diag::NonUnit, 197, 65},
        TrsmCase{Side::Left, UpLo::Upper, Trans::Transpose, Diag::Unit, 65, 1},
        TrsmCase{Side::Right, UpLo::Lower, Trans::None, Diag::NonUnit, 65, 197},
        TrsmCase{Side::Right, UpLo::Lower, Trans::None, Diag::Unit, 63, 65},
        TrsmCase{Side::Right, UpLo::Lower, Trans::Transpose, Diag::NonUnit, 65, 197},
        TrsmCase{Side::Right, UpLo::Lower, Trans::Transpose, Diag::Unit, 197, 64},
        TrsmCase{Side::Right, UpLo::Upper, Trans::None, Diag::NonUnit, 65, 197},
        TrsmCase{Side::Right, UpLo::Upper, Trans::None, Diag::Unit, 64, 63},
        TrsmCase{Side::Right, UpLo::Upper, Trans::Transpose, Diag::NonUnit, 65, 197},
        TrsmCase{Side::Right, UpLo::Upper, Trans::Transpose, Diag::Unit, 1, 65}));

TEST(Trsm, AlphaScalesRhs) {
  MatrixD t(3, 3, 0.0);
  t(0, 0) = t(1, 1) = t(2, 2) = 1.0;  // identity triangle
  MatrixD b = random_matrix(3, 4, 6);
  const MatrixD b0 = b;
  trsm(Side::Left, UpLo::Lower, Trans::None, Diag::NonUnit, 3.0, t.view(), b.view());
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(b(i, j), 3.0 * b0(i, j));
  }
}

TEST(Trsm, WrongTriangleSizeThrows) {
  MatrixD t(4, 4), b(5, 3);
  EXPECT_THROW(trsm(Side::Left, UpLo::Lower, Trans::None, Diag::NonUnit, 1.0,
                    t.view(), b.view()),
               contract_error);
}

// -------------------------------------------------------- syrk / gemmt ----

class SyrkSweep : public ::testing::TestWithParam<std::tuple<index_t, index_t, UpLo, Trans>> {};

TEST_P(SyrkSweep, MatchesGemmOnReferencedTriangle) {
  const auto [n, k, uplo, trans] = GetParam();
  const MatrixD a =
      (trans == Trans::None) ? random_matrix(n, k, 7) : random_matrix(k, n, 7);
  const MatrixD c0 = random_matrix(n, n, 8);
  MatrixD got = c0;
  syrk(uplo, trans, 1.5, a.view(), 0.5, got.view());
  const MatrixD full = ref_gemm(trans, trans == Trans::None ? Trans::Transpose : Trans::None,
                                1.5, a, a, 0.5, c0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const bool in_tri = (uplo == UpLo::Lower) ? (j <= i) : (j >= i);
      if (in_tri) {
        EXPECT_NEAR(got(i, j), full(i, j), 1e-11 * static_cast<double>(k + 1));
      } else {
        EXPECT_DOUBLE_EQ(got(i, j), c0(i, j));  // untouched triangle
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyrkSweep,
    ::testing::Combine(::testing::Values<index_t>(1, 13, 40),
                       ::testing::Values<index_t>(1, 7, 29),
                       ::testing::Values(UpLo::Lower, UpLo::Upper),
                       ::testing::Values(Trans::None, Trans::Transpose)));

// Sizes at and past the blocked diagonal (default b = 64): b-1, b, b+1,
// 3b+5, with k values that cross the gemm cache-block boundaries.
INSTANTIATE_TEST_SUITE_P(
    RaggedBlockEdges, SyrkSweep,
    ::testing::Combine(::testing::Values<index_t>(63, 64, 65, 197),
                       ::testing::Values<index_t>(1, 64, 197),
                       ::testing::Values(UpLo::Lower, UpLo::Upper),
                       ::testing::Values(Trans::None, Trans::Transpose)));

class GemmtSweep : public ::testing::TestWithParam<std::tuple<index_t, index_t, UpLo>> {};

TEST_P(GemmtSweep, MatchesGemmOnReferencedTriangle) {
  const auto [n, k, uplo] = GetParam();
  const MatrixD a = random_matrix(n, k, 9);
  const MatrixD b = random_matrix(k, n, 10);
  const MatrixD c0 = random_matrix(n, n, 11);
  MatrixD got = c0;
  gemmt(uplo, Trans::None, Trans::None, -1.0, a.view(), b.view(), 1.0, got.view());
  const MatrixD full = ref_gemm(Trans::None, Trans::None, -1.0, a, b, 1.0, c0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const bool in_tri = (uplo == UpLo::Lower) ? (j <= i) : (j >= i);
      if (in_tri) {
        EXPECT_NEAR(got(i, j), full(i, j), 1e-11 * static_cast<double>(k + 1));
      } else {
        EXPECT_DOUBLE_EQ(got(i, j), c0(i, j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmtSweep,
                         ::testing::Combine(::testing::Values<index_t>(1, 16, 37),
                                            ::testing::Values<index_t>(1, 8, 32),
                                            ::testing::Values(UpLo::Lower, UpLo::Upper)));

// gemmt across all transpose combinations and blocked-boundary sizes.
class GemmtTransSweep
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, UpLo, Trans, Trans>> {};

TEST_P(GemmtTransSweep, MatchesGemmOnReferencedTriangle) {
  const auto [n, k, uplo, ta, tb] = GetParam();
  const MatrixD a = (ta == Trans::None) ? random_matrix(n, k, 12)
                                        : random_matrix(k, n, 12);
  const MatrixD b = (tb == Trans::None) ? random_matrix(k, n, 13)
                                        : random_matrix(n, k, 13);
  const MatrixD c0 = random_matrix(n, n, 14);
  MatrixD got = c0;
  gemmt(uplo, ta, tb, 2.0, a.view(), b.view(), -0.5, got.view());
  const MatrixD full = ref_gemm(ta, tb, 2.0, a, b, -0.5, c0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const bool in_tri = (uplo == UpLo::Lower) ? (j <= i) : (j >= i);
      if (in_tri) {
        EXPECT_NEAR(got(i, j), full(i, j), 1e-11 * static_cast<double>(k + 1));
      } else {
        EXPECT_DOUBLE_EQ(got(i, j), c0(i, j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RaggedBlockEdges, GemmtTransSweep,
    ::testing::Combine(::testing::Values<index_t>(1, 63, 65, 197),
                       ::testing::Values<index_t>(1, 64, 197),
                       ::testing::Values(UpLo::Lower, UpLo::Upper),
                       ::testing::Values(Trans::None, Trans::Transpose),
                       ::testing::Values(Trans::None, Trans::Transpose)));

// --------------------------------------------------------- determinism ----

// The substrate guarantees bitwise-identical results run to run and across
// thread counts: threads partition the output (never a reduction), and the
// accumulation order per C element is fixed by the loop structure.

TEST(Determinism, SyrkAndTrsmBitwiseStableAcrossThreadCounts) {
  const index_t n = 197;
  const MatrixD a = random_matrix(n, n, 33);
  MatrixD t = random_matrix(n, n, 34);
  for (index_t i = 0; i < n; ++i) t(i, i) += 4.0;
  const MatrixD rhs = random_matrix(n, n, 35);

  MatrixD syrk_base(n, n, 0.0);
  MatrixD trsm_base = rhs;
  {
    const ScopedThreadCap one(1);
    syrk(UpLo::Lower, Trans::None, 1.0, a.view(), 0.0, syrk_base.view());
    trsm(Side::Left, UpLo::Lower, Trans::None, Diag::NonUnit, 1.0, t.view(),
         trsm_base.view());
  }
  for (const int threads : {2, 5}) {
    const ScopedThreadCap width(threads);
    MatrixD c(n, n, 0.0);
    syrk(UpLo::Lower, Trans::None, 1.0, a.view(), 0.0, c.view());
    EXPECT_EQ(c, syrk_base) << "threads=" << threads;
    MatrixD x = rhs;
    trsm(Side::Left, UpLo::Lower, Trans::None, Diag::NonUnit, 1.0, t.view(),
         x.view());
    EXPECT_EQ(x, trsm_base) << "threads=" << threads;
  }
}

// --------------------------------------------------------------- fp32 -----
// The scalar-templated stack: fp32 instantiations must match the fp64
// reference to fp32 accuracy and keep the same bitwise-determinism
// guarantees (the fp32 register tile is wider, but the accumulation order
// per C element is identical across thread counts and paths).

MatrixF to_f32(const MatrixD& a) {
  MatrixF out(a.rows(), a.cols());
  convert<double, float>(a.view(), out.view());
  return out;
}

TEST(Fp32, RegisterTileIsWiderThanFp64) {
  // Both tiles fill one 64-byte vector register with MR scalars: fp32 moves
  // twice the scalars per FMA, which is where the throughput ratio in
  // BENCH_blas.json comes from.
  static_assert(RegTile<float>::mr == 2 * RegTile<double>::mr);
  static_assert(RegTile<float>::nr == RegTile<double>::nr);
  static_assert(RegTile<float>::mr * sizeof(float) ==
                RegTile<double>::mr * sizeof(double));
  EXPECT_EQ(kc_scale<float>(), 2);
  EXPECT_EQ(kc_scale<double>(), 1);
}

TEST(Fp32, GemmMatchesFp64ReferenceToFp32Accuracy) {
  const std::tuple<index_t, index_t, index_t> shapes[] = {
      {129, 67, 200}, {64, 64, 64}, {17, 300, 5}};
  for (const auto& [m, n, k] : shapes) {
    const MatrixD a = random_matrix(m, k, 41);
    const MatrixD b = random_matrix(k, n, 42);
    const MatrixD c0 = random_matrix(m, n, 43);
    const MatrixD want = ref_gemm(Trans::None, Trans::None, 1.0, a, b, 0.5, c0);
    MatrixF got = to_f32(c0);
    gemm(Trans::None, Trans::None, 1.0f, to_f32(a).view(), to_f32(b).view(),
         0.5f, got.view());
    double worst = 0.0;
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < n; ++j) {
        worst = std::max(worst,
                         std::abs(static_cast<double>(got(i, j)) - want(i, j)));
      }
    }
    EXPECT_LT(worst, 1e-4 * static_cast<double>(k + 1)) << m << "x" << n;
  }
}

TEST(Fp32, GemmTransposedOperandsMatchReference) {
  const index_t m = 96, n = 80, k = 112;
  const MatrixD a = random_matrix(k, m, 44);  // transposed A
  const MatrixD b = random_matrix(n, k, 45);  // transposed B
  const MatrixD c0 = random_matrix(m, n, 46);
  const MatrixD want =
      ref_gemm(Trans::Transpose, Trans::Transpose, -1.0, a, b, 1.0, c0);
  MatrixF got = to_f32(c0);
  gemm(Trans::Transpose, Trans::Transpose, -1.0f, to_f32(a).view(),
       to_f32(b).view(), 1.0f, got.view());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      ASSERT_NEAR(static_cast<double>(got(i, j)), want(i, j),
                  1e-4 * static_cast<double>(k));
    }
  }
}

TEST(Fp32, SmallKPathMatchesPackedPathBitwise) {
  // Small-k strided path vs packed path, same bitwise guarantee as fp64.
  const index_t n = 197, ksmall = 24;
  const MatrixF a2 = to_f32(random_matrix(n, ksmall, 53));
  const MatrixF b2 = to_f32(random_matrix(ksmall, n, 54));
  const Tuning saved = tuning();
  MatrixF small(n, n), packed(n, n);
  tuning().small_k = 64;
  gemm(Trans::None, Trans::None, 1.0f, a2.view(), b2.view(), 0.0f, small.view());
  tuning().small_k = 0;
  gemm(Trans::None, Trans::None, 1.0f, a2.view(), b2.view(), 0.0f, packed.view());
  tuning() = saved;
  EXPECT_EQ(small, packed);
}

// ----------------------------------------------------- width invariance ----
// gemm is bitwise identical at every team width, forced past nproc by the
// ScopedThreadCap override. The shapes cover each parallel path: the ic
// split (m spans several mc blocks), the shared-A jr split (m fits one mc
// block), and the strided-B small-k path (k <= small_k, ragged edge stripe
// included), with transposed B where the path allows it.

template <typename T>
void expect_gemm_width_invariant(int width) {
  struct Shape {
    index_t m, n, k;
    Trans tb;
  };
  const Shape shapes[] = {
      {197, 197, 197, Trans::None},       // ic split, packed B
      {197, 150, 130, Trans::Transpose},  // ic split, transposed B
      {197, 230, 24, Trans::None},        // ic split, strided B
      {64, 520, 128, Trans::None},        // jr split, packed B
      {64, 520, 128, Trans::Transpose},   // jr split, transposed B
      {64, 523, 16, Trans::None},         // jr split, strided B
  };
  const Tuning saved = tuning();
  tuning().small_gemm_flops = 0.0;  // keep even small shapes on the blocked path
  for (const Shape& s : shapes) {
    Matrix<T> a(s.m, s.k), b(s.tb == Trans::None ? s.k : s.n,
                             s.tb == Trans::None ? s.n : s.k),
        c0(s.m, s.n);
    convert<double, T>(random_matrix(a.rows(), a.cols(), 84).view(), a.view());
    convert<double, T>(random_matrix(b.rows(), b.cols(), 85).view(), b.view());
    convert<double, T>(random_matrix(s.m, s.n, 86).view(), c0.view());
    const auto run = [&](int w) {
      const ScopedThreadCap cap(w);
      Matrix<T> c = c0;
      gemm(Trans::None, s.tb, T{-1}, a.view(), b.view(), T{1}, c.view());
      return c;
    };
    EXPECT_EQ(run(width), run(1))
        << s.m << "x" << s.n << "x" << s.k << " width=" << width;
  }
  tuning() = saved;
}

class GemmWidth : public ::testing::TestWithParam<int> {};

TEST_P(GemmWidth, Fp64BitwiseIdenticalToWidthOne) {
  expect_gemm_width_invariant<double>(GetParam());
}
TEST_P(GemmWidth, Fp32BitwiseIdenticalToWidthOne) {
  expect_gemm_width_invariant<float>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Widths, GemmWidth, ::testing::Values(1, 2, 3, 4));

TEST(Fp32, TrsmSolveThenMultiplyRoundTrips) {
  const index_t n = 160, nrhs = 48;
  MatrixD t64 = random_matrix(n, n, 55);
  for (index_t i = 0; i < n; ++i) t64(i, i) += 4.0;
  const MatrixF t = to_f32(t64);
  const MatrixF b = to_f32(random_matrix(n, nrhs, 56));
  MatrixF x = b;
  trsm(Side::Left, UpLo::Lower, Trans::None, Diag::NonUnit, 1.0f, t.view(),
       x.view());
  // Multiply back with the stored lower triangle.
  MatrixF tl(n, n, 0.0f);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) tl(i, j) = t(i, j);
  }
  MatrixF back(n, nrhs, 0.0f);
  gemm(Trans::None, Trans::None, 1.0f, tl.view(), x.view(), 0.0f, back.view());
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < nrhs; ++j) {
      ASSERT_NEAR(static_cast<double>(back(i, j)),
                  static_cast<double>(b(i, j)), 1e-3);
    }
  }
}

TEST(Fp32, GetrfAndPotrfResidualsWithinFp32Bounds) {
  const index_t n = 120;
  const MatrixD a64 = random_matrix(n, n, 57);
  MatrixF fac = to_f32(a64);
  std::vector<index_t> ipiv;
  ASSERT_EQ(getrf(fac.view(), ipiv), 0);
  // lu_residual<float> scales by eps_f32: same yardstick as the fp64 tests.
  EXPECT_LT(lu_residual(to_f32(a64).view(), fac.view(),
                        ipiv_to_permutation(ipiv, n)),
            50.0);

  const MatrixD spd = random_spd_matrix(n, 58);
  MatrixF chol = to_f32(spd);
  ASSERT_EQ(potrf(chol.view()), 0);
  EXPECT_LT(cholesky_residual(to_f32(spd).view(), chol.view()), 50.0);
}

// ------------------------------------------------------------- tuning -----

TEST(Tuning, SanitizeClampsDegenerateValues) {
  Tuning t;
  t.mc = 0;
  t.kc = -5;
  t.nc = 1;
  t.db = 0;
  t.sanitize();
  EXPECT_GE(t.mc, kMR);
  EXPECT_GE(t.kc, 1);
  EXPECT_GE(t.nc, kNR);
  EXPECT_GE(t.db, 1);
}

TEST(Tuning, ResultsAgreeAcrossBlockSizes) {
  // Different cache/diagonal block sizes change the summation *tiling* but
  // must still produce results equal to the reference within tolerance.
  const index_t n = 150;
  const MatrixD a = random_matrix(n, n, 36);
  const MatrixD b = random_matrix(n, n, 37);
  const MatrixD c0 = random_matrix(n, n, 38);
  const MatrixD want = ref_gemm(Trans::None, Trans::None, 1.0, a, b, 1.0, c0);
  const Tuning saved = tuning();
  for (const index_t blk : {16, 40, 64}) {
    tuning().mc = blk;
    tuning().kc = blk;
    tuning().nc = blk;
    tuning().db = blk;
    tuning().small_gemm_flops = 0.0;  // force the packed path
    MatrixD got = c0;
    gemm(Trans::None, Trans::None, 1.0, a.view(), b.view(), 1.0, got.view());
    EXPECT_LT(max_diff(want, got), 1e-11 * static_cast<double>(n)) << "blk=" << blk;
  }
  tuning() = saved;
}

TEST(Tuning, DegenerateRuntimeValuesDoNotHangOrCrash) {
  // tuning() is mutable at runtime; kernels must clamp, not loop forever
  // (kc = 0 would otherwise stall gemm's pc loop) or divide by zero (db = 0
  // in the blocked trsm driver).
  const Tuning saved = tuning();
  tuning().mc = 0;
  tuning().kc = 0;
  tuning().nc = 0;
  tuning().db = 0;
  tuning().lu_nb = 0;
  tuning().small_gemm_flops = 0.0;  // force the packed path

  const index_t n = 70;
  const MatrixD a = random_matrix(n, n, 41);
  const MatrixD b = random_matrix(n, n, 42);
  MatrixD c(n, n, 0.0);
  gemm(Trans::None, Trans::None, 1.0, a.view(), b.view(), 0.0, c.view());
  const MatrixD want =
      ref_gemm(Trans::None, Trans::None, 1.0, a, b, 0.0, MatrixD(n, n, 0.0));
  EXPECT_LT(max_diff(want, c), 1e-11 * static_cast<double>(n));

  MatrixD t = random_matrix(n, n, 43);
  for (index_t i = 0; i < n; ++i) t(i, i) += 4.0;
  MatrixD x = b;
  trsm(Side::Left, UpLo::Lower, Trans::None, Diag::NonUnit, 1.0, t.view(),
       x.view());
  MatrixD back(n, n, 0.0);
  MatrixD tl(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) tl(i, j) = t(i, j);
  }
  gemm(Trans::None, Trans::None, 1.0, tl.view(), x.view(), 0.0, back.view());
  EXPECT_LT(max_diff(back, b), 1e-9 * static_cast<double>(n));

  tuning() = saved;
}

// --------------------------------------------------------------- norms ----

TEST(Norms, FrobeniusOfKnownMatrix) {
  MatrixD a(2, 2);
  a(0, 0) = 3.0;
  a(0, 1) = 4.0;
  a(1, 0) = 0.0;
  a(1, 1) = 0.0;
  EXPECT_DOUBLE_EQ(norm_frobenius(a.view()), 5.0);
}

TEST(Norms, MaxNormPicksLargestMagnitude) {
  MatrixD a(2, 3, 0.5);
  a(1, 2) = -7.25;
  EXPECT_DOUBLE_EQ(norm_max(a.view()), 7.25);
}

TEST(Norms, FlopFormulas) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(trsm_flops(4, 5, Side::Left), 80.0);
  EXPECT_DOUBLE_EQ(trsm_flops(4, 5, Side::Right), 100.0);
}


// ---- microkernel dispatch ----

TEST(Microkernel, IsaNamesRoundTripThroughParse) {
  for (int i = 0; i < kIsaCount; ++i) {
    const Isa isa = static_cast<Isa>(i);
    Isa parsed = Isa::Portable;
    EXPECT_TRUE(parse_isa(isa_name(isa), &parsed)) << isa_name(isa);
    EXPECT_EQ(parsed, isa);
  }
  Isa out = Isa::Avx2;
  EXPECT_FALSE(parse_isa("sse9", &out));
  EXPECT_EQ(out, Isa::Avx2);  // unknown names leave *out alone
  EXPECT_FALSE(parse_isa("", &out));
}

TEST(Microkernel, KernelsRegisterInScalarPairsAndPortableAlwaysExists) {
  const MicroKernel<double>* pd = registered_microkernel<double>(Isa::Portable);
  const MicroKernel<float>* pf = registered_microkernel<float>(Isa::Portable);
  ASSERT_NE(pd, nullptr);
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(pd->mr, RegTile<double>::mr);
  EXPECT_EQ(pd->nr, RegTile<double>::nr);
  EXPECT_EQ(pf->mr, RegTile<float>::mr);
  EXPECT_EQ(pf->nr, RegTile<float>::nr);
  for (int i = 0; i < kIsaCount; ++i) {
    const Isa isa = static_cast<Isa>(i);
    const bool has_d = registered_microkernel<double>(isa) != nullptr;
    const bool has_f = registered_microkernel<float>(isa) != nullptr;
    EXPECT_EQ(has_d, has_f) << isa_name(isa);
    if (isa_available(isa)) EXPECT_TRUE(has_d) << isa_name(isa);
  }
}

TEST(Microkernel, ScopedIsaForcesAndRestoresSelection) {
  const Isa before = active_isa();
  {
    ScopedIsa force(Isa::Portable);
    EXPECT_EQ(active_isa(), Isa::Portable);
    const MicroKernel<double>& mk = active_microkernel<double>();
    EXPECT_EQ(mk.isa, Isa::Portable);
  }
  EXPECT_EQ(active_isa(), before);
  // Forcing an unavailable ISA must fail without changing the selection.
  for (int i = 0; i < kIsaCount; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (isa_available(isa)) continue;
    EXPECT_FALSE(set_active_isa(isa)) << isa_name(isa);
    EXPECT_EQ(active_isa(), before);
  }
}

#if defined(__unix__) || defined(__APPLE__)
TEST(Microkernel, EnvOverrideResolvesAndFallsBackWhenUnavailable) {
  const char* saved = std::getenv("XBLAS_ISA");
  const std::string saved_value = saved ? saved : "";
  ::setenv("XBLAS_ISA", "portable", 1);
  EXPECT_EQ(resolve_isa_from_env(), Isa::Portable);
  ::setenv("XBLAS_ISA", "not-an-isa", 1);
  EXPECT_EQ(resolve_isa_from_env(), detect_isa());  // warn + fall back
  ::unsetenv("XBLAS_ISA");
  EXPECT_EQ(resolve_isa_from_env(), detect_isa());
  if (saved) ::setenv("XBLAS_ISA", saved_value.c_str(), 1);
}
#endif

// Cross-ISA conformance: every kernel the host can run must produce results
// bitwise identical to the portable kernel — same flop count, same k-order,
// same contraction behavior — across ragged edge tiles (m, n, k that are
// not multiples of any kernel's mr/nr/kc) and the small-k strided-B path.
class MicrokernelConformance : public ::testing::TestWithParam<int> {};

TEST_P(MicrokernelConformance, GemmBitwiseMatchesPortableEverywhere) {
  const Isa isa = static_cast<Isa>(GetParam());
  if (!isa_available(isa)) GTEST_SKIP() << isa_name(isa) << " not available";

  const Tuning saved = tuning();
  tuning().small_gemm_flops = 0.0;  // keep every shape on the kernel paths
  struct Shape { index_t m, n, k; };
  const Shape shapes[] = {
      {64, 64, 64},     // all full tiles
      {173, 159, 61},   // ragged in every dimension
      {129, 65, 513},   // one past a block boundary, k > kc
      {8, 200, 7},      // single row-tile, tiny k
      {200, 200, 48},   // small-k strided-B fast path (k <= small_k)
      {31, 17, 3},      // smaller than any register tile
  };
  for (const Shape& sh : shapes) {
    const MatrixD a = random_matrix(sh.m, sh.k, 91);
    const MatrixD b = random_matrix(sh.k, sh.n, 92);
    const MatrixD c0 = random_matrix(sh.m, sh.n, 93);
    MatrixD want = c0;
    {
      ScopedIsa force(Isa::Portable);
      gemm(Trans::None, Trans::None, 1.0, a.view(), b.view(), 1.0, want.view());
    }
    MatrixD got = c0;
    {
      ScopedIsa force(isa);
      gemm(Trans::None, Trans::None, 1.0, a.view(), b.view(), 1.0, got.view());
    }
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          sizeof(double) * static_cast<std::size_t>(sh.m) *
                              static_cast<std::size_t>(sh.n)),
              0)
        << isa_name(isa) << " fp64 m=" << sh.m << " n=" << sh.n
        << " k=" << sh.k;

    MatrixF af(sh.m, sh.k), bf(sh.k, sh.n), cf0(sh.m, sh.n);
    convert<double, float>(a.view(), af.view());
    convert<double, float>(b.view(), bf.view());
    convert<double, float>(c0.view(), cf0.view());
    MatrixF wantf = cf0;
    {
      ScopedIsa force(Isa::Portable);
      gemm(Trans::None, Trans::None, 1.0f, af.view(), bf.view(), 1.0f,
           wantf.view());
    }
    MatrixF gotf = cf0;
    {
      ScopedIsa force(isa);
      gemm(Trans::None, Trans::None, 1.0f, af.view(), bf.view(), 1.0f,
           gotf.view());
    }
    EXPECT_EQ(std::memcmp(wantf.data(), gotf.data(),
                          sizeof(float) * static_cast<std::size_t>(sh.m) *
                              static_cast<std::size_t>(sh.n)),
              0)
        << isa_name(isa) << " fp32 m=" << sh.m << " n=" << sh.n
        << " k=" << sh.k;
  }
  tuning() = saved;
}

INSTANTIATE_TEST_SUITE_P(AllIsas, MicrokernelConformance,
                         ::testing::Range(0, kIsaCount),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return isa_name(static_cast<Isa>(info.param));
                         });

// The factorizations must be ISA-invariant too: same pivots, same bits.
TEST(Microkernel, GetrfBitwiseIdenticalAcrossAvailableIsas) {
  const index_t n = 193;
  const MatrixD a = random_matrix(n, n, 94);
  MatrixD want(n, n);
  std::vector<index_t> want_ipiv;
  {
    ScopedIsa force(Isa::Portable);
    copy<double>(a.view(), want.view());
    getrf(want.view(), want_ipiv);
  }
  for (int i = 0; i < kIsaCount; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (!isa_available(isa)) continue;
    ScopedIsa force(isa);
    MatrixD got(n, n);
    std::vector<index_t> ipiv;
    copy<double>(a.view(), got.view());
    getrf(got.view(), ipiv);
    EXPECT_EQ(ipiv, want_ipiv) << isa_name(isa);
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          sizeof(double) * static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(n)),
              0)
        << isa_name(isa);
  }
}

#if defined(__unix__) || defined(__APPLE__)
TEST(Tuning, DetectIsDefaultsThenEnv) {
  // Block sizes come from the compiled-in defaults and XBLAS_* alone. The
  // variable that once named a persisted tuning file is still set by the
  // benchmark harness, and detect() must ignore it; its name is built in two
  // parts so a search for it finds only that harness.
  const std::string file_var = std::string("XBLAS_") + "TUNING_FILE";
  const char* vars[] = {"XBLAS_MC", "XBLAS_KC", "XBLAS_NC", "XBLAS_DB",
                        "XBLAS_LU_NB", "XBLAS_SMALL_K", file_var.c_str()};
  std::vector<std::pair<std::string, std::string>> saved;
  for (const char* var : vars) {
    if (const char* v = std::getenv(var)) saved.emplace_back(var, v);
    ::unsetenv(var);
  }
  const Tuning defaults;

  // No XBLAS_* set: the compiled-in defaults.
  Tuning t = Tuning::detect();
  EXPECT_EQ(t.mc, defaults.mc);
  EXPECT_EQ(t.kc, defaults.kc);
  EXPECT_EQ(t.nc, defaults.nc);
  EXPECT_EQ(t.db, defaults.db);
  EXPECT_EQ(t.lu_nb, defaults.lu_nb);
  EXPECT_EQ(t.small_k, defaults.small_k);
  EXPECT_STREQ(tuning_source(), "default");

  // Field-wise overrides; unset fields keep their defaults.
  ::setenv("XBLAS_MC", "96", 1);
  ::setenv("XBLAS_KC", "160", 1);
  ::setenv("XBLAS_DB", "48", 1);
  t = Tuning::detect();
  ::unsetenv("XBLAS_MC");
  ::unsetenv("XBLAS_KC");
  ::unsetenv("XBLAS_DB");
  EXPECT_EQ(t.mc, 96);
  EXPECT_EQ(t.kc, 160);
  EXPECT_EQ(t.db, 48);
  EXPECT_EQ(t.nc, defaults.nc);
  EXPECT_EQ(t.lu_nb, defaults.lu_nb);
  EXPECT_STREQ(tuning_source(), "env");

  // A lone XBLAS_SMALL_K=0 changes the gemm path, so it counts as "env".
  ::setenv("XBLAS_SMALL_K", "0", 1);
  t = Tuning::detect();
  ::unsetenv("XBLAS_SMALL_K");
  EXPECT_EQ(t.small_k, 0);
  EXPECT_EQ(t.mc, defaults.mc);
  EXPECT_STREQ(tuning_source(), "env");

  // A well-formed tuning file in the old persisted format, with an entry
  // for the active ISA, is not read.
  const std::string path =
      (std::filesystem::temp_directory_path() / "conflux_tuning_ignored.json")
          .string();
  std::ofstream(path) << "{\"version\": 1, \"entries\": [{\"isa\": \""
                      << isa_name(active_isa())
                      << "\", \"type\": \"f64\", \"mc\": 224, \"kc\": 320, "
                         "\"nc\": 4096, \"db\": 96, \"lu_nb\": 48}]}\n";
  ::setenv(file_var.c_str(), path.c_str(), 1);
  t = Tuning::detect();
  ::unsetenv(file_var.c_str());
  std::filesystem::remove(path);
  EXPECT_EQ(t.mc, defaults.mc);
  EXPECT_EQ(t.kc, defaults.kc);
  EXPECT_EQ(t.nc, defaults.nc);
  EXPECT_EQ(t.db, defaults.db);
  EXPECT_EQ(t.lu_nb, defaults.lu_nb);
  EXPECT_STREQ(tuning_source(), "default");

  for (const auto& [var, value] : saved) ::setenv(var.c_str(), value.c_str(), 1);
  // Re-run detect so later tests see the ambient source, not ours.
  Tuning::detect();
}
#endif

}  // namespace
}  // namespace conflux::xblas
