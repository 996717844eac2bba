// Randomized cross-implementation conformance suite (ISSUE 4).
//
// A seeded sweep over (n ragged/aligned, 3D grid shapes with pz in {1,2,4},
// block sizes, team widths 1 and 4) asserting that the communication-
// optimal factorizations and the 2D baselines AGREE: in both precisions,
//   - conflux_lu / scalapack_lu factors satisfy the normwise backward-error
//     bound ||PA - LU||_F <= C * n * eps_T * ||A||_F,
//   - confchox / scalapack_cholesky factors satisfy the analogous bound,
//   - multi-RHS solves through either implementation's factors satisfy the
//     componentwise (Oettli-Prager) backward-error bound
//     max_ij |b - A x|_ij / (|A||x| + |b|)_ij <= C * n * eps_T.
// Agreement is asserted through bounds, never bitwise: the two schedules
// pick different pivots (tournament vs per-column partial pivoting), so
// their factors differ legitimately while both must be backward stable.
//
// The fp32 legs run the identical schedule objects — only eps_T changes in
// the bounds — which is exactly the precision-agnosticism the scalar-
// templated stack claims.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <cstring>

#include "baselines/scalapack2d.hpp"
#include "blas/lapack.hpp"
#include "blas/microkernel.hpp"
#include "blas/tuning.hpp"
#include "factor/confchox.hpp"
#include "factor/conflux_lu.hpp"
#include "factor/mixed.hpp"
#include "tensor/random_matrix.hpp"

namespace conflux {
namespace {

xsim::Machine real_machine(int ranks) {
  xsim::MachineSpec spec;
  spec.num_ranks = ranks;
  spec.memory_words = 1e9;
  return xsim::Machine(spec, xsim::ExecMode::Real);
}

struct ConfCase {
  index_t n;       // ragged and aligned sizes
  int px, py, pz;  // 3D grid for conflux/confchox
  int pr, pc;      // 2D grid for the baselines
  index_t v;       // conflux block size (multiple of pz)
  index_t nb;      // baseline block size
  int threads;     // team width for this case
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<ConfCase>& info) {
  const auto& p = info.param;
  return "n" + std::to_string(p.n) + "_g" + std::to_string(p.px) +
         std::to_string(p.py) + std::to_string(p.pz) + "_v" + std::to_string(p.v) +
         "_t" + std::to_string(p.threads);
}

// The sweep: ragged (33, 70, 100, 130) and aligned (64, 96, 128, 160) sizes,
// pz in {1, 2, 4}, square and skewed grids, 1 and 4 threads. Seeds vary per
// case so the sweep touches different random matrices every row.
std::vector<ConfCase> sweep() {
  return {
      {64, 1, 1, 1, 1, 1, 16, 16, 1, 101},    // serial corner
      {64, 2, 2, 1, 2, 2, 16, 16, 4, 102},    // aligned, square grids
      {70, 2, 2, 2, 2, 2, 16, 16, 1, 103},    // ragged + layered
      {96, 4, 2, 1, 4, 2, 8, 32, 4, 104},     // skewed grid, small v
      {100, 2, 2, 4, 2, 4, 16, 16, 1, 105},   // ragged + pz=4
      {128, 4, 4, 2, 4, 4, 32, 16, 4, 106},   // aligned, larger machine
      {130, 2, 4, 1, 4, 2, 16, 8, 1, 107},    // ragged, skewed both ways
      {160, 2, 2, 4, 2, 2, 32, 64, 4, 108},   // aligned + pz=4, wide blocks
      {33, 2, 2, 2, 2, 2, 8, 8, 1, 109},      // tiny ragged corner
  };
}

/// Componentwise (Oettli-Prager) backward error of A X = B, computed in
/// fp64: max over entries of |B - A X| ./ (|A| |X| + |B|). fp32 solutions
/// are promoted first; the |A| rounding they carry is O(eps32) and covered
/// by the fp32 bound.
double oettli_prager(ConstViewD a, ConstViewD x, ConstViewD b) {
  const index_t n = a.rows();
  const index_t nrhs = x.cols();
  MatrixD r(n, nrhs);
  copy<double>(b, r.view());
  xblas::gemm(xblas::Trans::None, xblas::Trans::None, -1.0, a, x, 1.0, r.view());
  // denom = |A| |X| + |B|, formed row by row.
  double worst = 0.0;
  std::vector<double> denom(static_cast<std::size_t>(nrhs));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < nrhs; ++j) {
      denom[static_cast<std::size_t>(j)] = std::abs(b(i, j));
    }
    for (index_t k = 0; k < n; ++k) {
      const double aik = std::abs(a(i, k));
      if (aik == 0.0) continue;
      for (index_t j = 0; j < nrhs; ++j) {
        denom[static_cast<std::size_t>(j)] += aik * std::abs(x(k, j));
      }
    }
    for (index_t j = 0; j < nrhs; ++j) {
      const double d = denom[static_cast<std::size_t>(j)];
      const double num = std::abs(r(i, j));
      if (d > 0.0) {
        worst = std::max(worst, num / d);
      } else if (num > 0.0) {
        worst = std::numeric_limits<double>::infinity();
      }
    }
  }
  return worst;
}

/// Componentwise bound C * n * eps for the scalar the system was solved in.
template <typename T>
double solve_bound(index_t n) {
  return 100.0 * static_cast<double>(n) *
         static_cast<double>(std::numeric_limits<T>::epsilon());
}

constexpr double kResidualBound = 300.0;  // normwise, already n*eps_T-scaled
constexpr index_t kNrhs = 3;

// ------------------------------------------------------------------- LU ----

template <typename T>
void run_lu_conformance(const ConfCase& p) {
  const xblas::ScopedThreadCap width(p.threads);
  const MatrixD a64 = random_matrix(p.n, p.n, p.seed);
  const MatrixD b64 = random_matrix(p.n, kNrhs, p.seed + 7);
  Matrix<T> a(p.n, p.n);
  convert<double, T>(a64.view(), a.view());

  // Communication-optimal factorization.
  const grid::Grid3D g3(p.px, p.py, p.pz);
  xsim::Machine m3 = real_machine(g3.ranks());
  factor::FactorOptions opt;
  opt.block_size = p.v;
  const auto lu = factor::conflux_lu(m3, g3, a.view(), opt);
  ASSERT_EQ(static_cast<index_t>(lu.perm.size()), p.n);
  EXPECT_LT(xblas::lu_residual(a.view(), lu.factors.view(), lu.perm),
            kResidualBound);

  // 2D baseline on the same matrix.
  const grid::Grid2D g2{p.pr, p.pc};
  xsim::Machine m2 = real_machine(g2.ranks());
  const auto base = baselines::scalapack_lu(
      m2, g2, a.view(), baselines::Baseline2DOptions{.block_size = p.nb});
  const auto base_perm = xblas::ipiv_to_permutation(base.ipiv, p.n);
  EXPECT_LT(xblas::lu_residual(a.view(), base.factors.view(), base_perm),
            kResidualBound);

  // Multi-RHS solves through BOTH factorizations must satisfy the same
  // componentwise backward-error bound against the fp64 statement.
  Matrix<T> bx(p.n, kNrhs);
  convert<double, T>(b64.view(), bx.view());
  factor::conflux_lu_solve(lu, bx.view());
  MatrixD x64(p.n, kNrhs);
  convert<T, double>(bx.view(), x64.view());
  EXPECT_LT(oettli_prager(a64.view(), x64.view(), b64.view()), solve_bound<T>(p.n))
      << "conflux_lu solve backward error out of bounds";

  Matrix<T> bs(p.n, kNrhs);
  convert<double, T>(b64.view(), bs.view());
  xblas::getrs(base.factors.view(), base.ipiv, bs.view());
  convert<T, double>(bs.view(), x64.view());
  EXPECT_LT(oettli_prager(a64.view(), x64.view(), b64.view()), solve_bound<T>(p.n))
      << "scalapack_lu solve backward error out of bounds";
}

class LuConformance : public ::testing::TestWithParam<ConfCase> {};

TEST_P(LuConformance, Fp64) { run_lu_conformance<double>(GetParam()); }
TEST_P(LuConformance, Fp32) { run_lu_conformance<float>(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Sweep, LuConformance, ::testing::ValuesIn(sweep()),
                         case_name);

// ------------------------------------------------------------- Cholesky ----

template <typename T>
void run_cholesky_conformance(const ConfCase& p) {
  const xblas::ScopedThreadCap width(p.threads);
  const MatrixD a64 = random_spd_matrix(p.n, p.seed);
  const MatrixD b64 = random_matrix(p.n, kNrhs, p.seed + 13);
  Matrix<T> a(p.n, p.n);
  convert<double, T>(a64.view(), a.view());

  const grid::Grid3D g3(p.px, p.py, p.pz);
  xsim::Machine m3 = real_machine(g3.ranks());
  factor::FactorOptions opt;
  opt.block_size = p.v;
  const auto chol = factor::confchox(m3, g3, a.view(), opt);
  EXPECT_LT(xblas::cholesky_residual(a.view(), chol.factors.view()),
            kResidualBound);

  const grid::Grid2D g2{p.pr, p.pc};
  xsim::Machine m2 = real_machine(g2.ranks());
  const Matrix<T> base = baselines::scalapack_cholesky(
      m2, g2, a.view(), baselines::Baseline2DOptions{.block_size = p.nb});
  EXPECT_LT(xblas::cholesky_residual(a.view(), base.view()), kResidualBound);

  Matrix<T> bx(p.n, kNrhs);
  convert<double, T>(b64.view(), bx.view());
  factor::confchox_solve(chol, bx.view());
  MatrixD x64(p.n, kNrhs);
  convert<T, double>(bx.view(), x64.view());
  EXPECT_LT(oettli_prager(a64.view(), x64.view(), b64.view()), solve_bound<T>(p.n))
      << "confchox solve backward error out of bounds";

  Matrix<T> bs(p.n, kNrhs);
  convert<double, T>(b64.view(), bs.view());
  xblas::potrs(base.view(), bs.view());
  convert<T, double>(bs.view(), x64.view());
  EXPECT_LT(oettli_prager(a64.view(), x64.view(), b64.view()), solve_bound<T>(p.n))
      << "scalapack_cholesky solve backward error out of bounds";
}

class CholeskyConformance : public ::testing::TestWithParam<ConfCase> {};

TEST_P(CholeskyConformance, Fp64) { run_cholesky_conformance<double>(GetParam()); }
TEST_P(CholeskyConformance, Fp32) { run_cholesky_conformance<float>(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Sweep, CholeskyConformance, ::testing::ValuesIn(sweep()),
                         case_name);

// ------------------------------------------------- cross-precision sanity ----
// The fp32 and fp64 paths run the same schedule on the same input: their
// factors must agree to fp32 accuracy (this catches a template divergence —
// e.g. a path that silently computes in the wrong precision — that the
// per-precision bounds alone would miss).

TEST(CrossPrecision, LuFactorsAgreeToFp32Accuracy) {
  const index_t n = 96;
  const MatrixD a64 = random_dominant_matrix(n, 77);
  MatrixF a32(n, n);
  convert<double, float>(a64.view(), a32.view());

  const grid::Grid3D g(2, 2, 2);
  factor::FactorOptions opt;
  opt.block_size = 16;
  xsim::Machine md = real_machine(g.ranks());
  const auto lud = factor::conflux_lu(md, g, a64.view(), opt);
  xsim::Machine mf = real_machine(g.ranks());
  const auto luf = factor::conflux_lu(mf, g, a32.view(), opt);

  // Diagonal dominance keeps both pivot tournaments on the same winners, so
  // the factors are directly comparable entry by entry.
  ASSERT_EQ(lud.perm, luf.perm);
  double worst = 0.0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const double d = lud.factors(i, j);
      const double f = static_cast<double>(luf.factors(i, j));
      worst = std::max(worst, std::abs(d - f) / std::max(1.0, std::abs(d)));
    }
  }
  EXPECT_LT(worst, 100.0 * static_cast<double>(n) *
                       static_cast<double>(std::numeric_limits<float>::epsilon()));
}

// ------------------------------------------- mixed-ladder RHS edge cases ----
// The degradation ladder must be shape-robust at the same boundaries the
// direct solves are (ISSUE 9 satellite): an empty RHS block, one column,
// more columns than the matrix order, and strided client views.

TEST(MixedLadderEdges, ZeroAndSingleAndWideRhsAllConverge) {
  const index_t n = 64;
  const grid::Grid3D g(2, 2, 1);
  const MatrixD a = random_dominant_matrix(n, 301);
  const MatrixD spd = random_spd_matrix(n, 302);
  factor::FactorOptions fopt;
  fopt.block_size = 16;

  for (const index_t nrhs : {index_t{0}, index_t{1}, n + 9}) {
    MatrixD b = nrhs > 0 ? random_matrix(n, nrhs, 303 + nrhs) : MatrixD(n, 0);
    xsim::Machine m = real_machine(g.ranks());
    const auto lu_rep = factor::conflux_lu_solve_mixed_ex(
        m, g, a.view(), b.view(), {.factor = fopt});
    EXPECT_TRUE(lu_rep.ok()) << "LU ladder, nrhs " << nrhs;
    EXPECT_FALSE(lu_rep.fp64_fallback) << "healthy input must stay on fp32";
    if (nrhs > 0) {
      EXPECT_LE(lu_rep.backward_error, 1e-12) << "nrhs " << nrhs;
    }

    MatrixD bc = nrhs > 0 ? random_matrix(n, nrhs, 313 + nrhs) : MatrixD(n, 0);
    xsim::Machine mc = real_machine(g.ranks());
    const auto chol_rep = factor::confchox_solve_mixed_ex(
        mc, g, spd.view(), bc.view(), {.factor = fopt});
    EXPECT_TRUE(chol_rep.ok()) << "Cholesky ladder, nrhs " << nrhs;
    EXPECT_FALSE(chol_rep.fp64_fallback);
    if (nrhs > 0) {
      EXPECT_LE(chol_rep.backward_error, 1e-12) << "nrhs " << nrhs;
    }
  }
}

TEST(MixedLadderEdges, RefinementOnStridedViewMatchesPackedBitwise) {
  // Refinement against one fixed fp32 factorization is a deterministic
  // serial loop: handing it a strided RHS view must produce the bitwise
  // answer of the packed copy and leave the rest of the buffer untouched.
  const index_t n = 80;
  const index_t nrhs = 3;
  const index_t pad = 4;
  const grid::Grid3D g(2, 2, 1);
  const MatrixD a = random_dominant_matrix(n, 305);
  MatrixF a32(n, n);
  convert<double, float>(a.view(), a32.view());
  factor::FactorOptions fopt;
  fopt.block_size = 16;
  xsim::Machine m = real_machine(g.ranks());
  const auto lu32 = factor::conflux_lu(m, g, a32.view(), fopt);

  const MatrixD rhs = random_matrix(n, nrhs, 306);
  MatrixD packed = rhs;
  const auto rep_packed = factor::refine_lu(lu32, a.view(), packed.view());
  ASSERT_TRUE(rep_packed.converged);

  MatrixD wide(n, nrhs + pad, -3.25);
  copy(rhs.view(), wide.block(0, 0, n, nrhs));
  const auto rep_strided =
      factor::refine_lu(lu32, a.view(), wide.block(0, 0, n, nrhs));
  EXPECT_EQ(rep_strided.steps, rep_packed.steps);
  EXPECT_EQ(rep_strided.backward_error, rep_packed.backward_error);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < nrhs; ++j) {
      ASSERT_EQ(wide(i, j), packed(i, j)) << "strided refinement diverged";
    }
    for (index_t j = nrhs; j < nrhs + pad; ++j) {
      ASSERT_EQ(wide(i, j), -3.25) << "refinement wrote outside its view";
    }
  }
}


// Cross-ISA conformance: the full distributed factorizations must be
// bitwise invariant under microkernel dispatch. Every registered kernel the
// host can run (forced via ScopedIsa, exactly what XBLAS_ISA forces at
// startup) must reproduce the portable kernel's factors and pivots bit for
// bit — the schedules, pivot decisions, and ABFT checksums downstream all
// assume results never depend on which SIMD tier executed the flops.
TEST(CrossIsa, ConfluxLuAndConfchoxFactorsBitwiseInvariant) {
  const index_t n = 139;  // ragged against every register tile
  const grid::Grid3D g(2, 2, 2);
  factor::FactorOptions opt;
  opt.block_size = 16;

  const MatrixD a64 = random_matrix(n, n, 404);
  const MatrixD spd = random_spd_matrix(n, 405);

  MatrixD lu_want;
  std::vector<index_t> perm_want;
  MatrixD ch_want;
  {
    xblas::ScopedIsa force(xblas::Isa::Portable);
    xsim::Machine m = real_machine(g.ranks());
    auto lu = factor::conflux_lu(m, g, a64.view(), opt);
    lu_want = std::move(lu.factors);
    perm_want = std::move(lu.perm);
    xsim::Machine mc = real_machine(g.ranks());
    ch_want = factor::confchox(mc, g, spd.view(), opt).factors;
  }

  for (int i = 0; i < xblas::kIsaCount; ++i) {
    const xblas::Isa isa = static_cast<xblas::Isa>(i);
    if (!xblas::isa_available(isa)) continue;
    xblas::ScopedIsa force(isa);
    xsim::Machine m = real_machine(g.ranks());
    const auto lu = factor::conflux_lu(m, g, a64.view(), opt);
    EXPECT_EQ(lu.perm, perm_want) << xblas::isa_name(isa);
    EXPECT_EQ(std::memcmp(lu.factors.data(), lu_want.data(),
                          sizeof(double) * static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(n)),
              0)
        << "conflux_lu factors differ under " << xblas::isa_name(isa);
    xsim::Machine mc = real_machine(g.ranks());
    const auto ch = factor::confchox(mc, g, spd.view(), opt);
    EXPECT_EQ(std::memcmp(ch.factors.data(), ch_want.data(),
                          sizeof(double) * static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(n)),
              0)
        << "confchox factors differ under " << xblas::isa_name(isa);
  }
}

}  // namespace
}  // namespace conflux
