// Regression coverage for the packed trailing-workspace Real-mode data path
// (DESIGN.md "Packed trailing workspace" / "The urgent/lazy Schur split"):
//  - factors are bitwise identical to a serial golden-path recomputation
//    that mirrors the schedule's arithmetic step by step (dominant matrices
//    pin the tournament to the natural pivot order, so the golden path is
//    an ordinary blocked right-looking factorization with the schedule's
//    exact call shapes — including the urgent/lazy Schur split);
//  - factors are bitwise identical across pool widths and across
//    replication depths pz (the decomposition is fixed; only who runs an
//    index changes);
//  - the recorded peak workspace stays near npad^2-scale (LU: trail +
//    lstore + the pivot-row panel; Cholesky: the single fused buffer), not
//    (pz + 1) * npad^2;
//  - the steady state allocates nothing: the per-run scratch (tournament
//    gathers, retirement pairs, grid-line caches) is sized once, so the
//    heap-allocation count of a run does not depend on the step count.
// Shapes are deliberately ragged (n not a multiple of v) and pz in {1,2,4}.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "blas/blas.hpp"
#include "blas/lapack.hpp"
#include "blas/tuning.hpp"
#include "factor/confchox.hpp"
#include "factor/conflux_lu.hpp"
#include "recover/options.hpp"
#include "recover/snapshot.hpp"
#include "sched/rank_parallel.hpp"
#include "tensor/random_matrix.hpp"

// Global allocation ledger: the replaceable ordinary operator new/delete
// pair is overridden for this test binary only, so the steady-state test
// below can assert that a factorization's allocation count is independent
// of its step count, and the hand-off test can weigh the storage a result
// keeps. Each block carries its size in a header that keeps the default
// new alignment. (The default array and nothrow forms forward to the
// ordinary form, so counting here covers them too.)
namespace {
std::atomic<long long> g_alloc_count{0};
std::atomic<long long> g_live_bytes{0};
constexpr std::size_t kAllocHeader = 16;
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size + kAllocHeader);
  if (p == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(p) = size;
  g_live_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  return static_cast<char*>(p) + kAllocHeader;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  // Integer arithmetic: the block starts before the pointer new returned.
  void* base =
      reinterpret_cast<void*>(reinterpret_cast<std::uintptr_t>(p) - kAllocHeader);
  g_live_bytes.fetch_sub(static_cast<long long>(*static_cast<std::size_t*>(base)),
                         std::memory_order_relaxed);
  std::free(base);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace conflux::factor {
namespace {

using xblas::Diag;
using xblas::Side;
using xblas::Trans;
using xblas::UpLo;

xsim::Machine make_machine(const grid::Grid3D& g, index_t n) {
  xsim::MachineSpec spec;
  spec.num_ranks = g.ranks();
  spec.memory_words = static_cast<double>(g.pz()) * static_cast<double>(n) *
                      static_cast<double>(n) / static_cast<double>(g.ranks());
  return xsim::Machine(spec, xsim::ExecMode::Real);
}

// Serial recomputation of the packed LU data path for a matrix whose
// tournament keeps the natural pivot order (diagonally dominant): the same
// getrf / per-rank-chunked trsm / single beta=1 gemm sequence the schedule
// executes, on naturally ordered rows. Bitwise comparable because every
// BLAS call has the schedule's exact operand shapes, and gemm/trsm results
// are row- and column-lane independent (a row permutation of A and C
// permutes the output rows without changing any element's arithmetic).
MatrixD golden_lu(const MatrixD& a, index_t n, index_t v, int ranks) {
  const index_t npad = (n + v - 1) / v * v;
  const index_t num_tiles = npad / v;
  MatrixD w(npad, npad, 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) w(i, j) = a(i, j);
  }
  for (index_t r = n; r < npad; ++r) w(r, r) = 1.0;

  for (index_t t = 0; t < num_tiles; ++t) {
    const index_t o = t * v;
    const index_t arows = npad - o - v;  // surviving rows below the block
    const index_t ncols = npad - o - v;  // trailing columns
    MatrixD a00(v, v);
    copy<double>(w.block(o, o, v, v), a00.view());
    std::vector<index_t> ipiv;
    xblas::getrf(a00.view(), ipiv);
    copy<double>(a00.view(), w.block(o, o, v, v));
    if (arows == 0) continue;
    for (int r = 0; r < ranks; ++r) {
      const index_t lo = chunk_offset(arows, ranks, r);
      const index_t cnt = chunk_size(arows, ranks, r);
      if (cnt == 0) continue;
      xblas::trsm(Side::Right, UpLo::Upper, Trans::None, Diag::NonUnit, 1.0,
                  a00.view(), w.block(o + v + lo, o, cnt, v));
    }
    for (int r = 0; r < ranks; ++r) {
      const index_t lo = chunk_offset(ncols, ranks, r);
      const index_t cnt = chunk_size(ncols, ranks, r);
      if (cnt == 0) continue;
      xblas::trsm(Side::Left, UpLo::Lower, Trans::None, Diag::Unit, 1.0,
                  a00.view(), w.block(o, o + v + lo, v, cnt));
    }
    // Schur update in the schedule's canonical decomposition: the urgent
    // stripe (the next panel's v columns), then the lazy remainder, each in
    // fixed kRowBlock row-block pieces (conflux_lu.cpp update_a11).
    const index_t nblocks = sched::num_row_blocks(arows);
    for (index_t blk = 0; blk < nblocks; ++blk) {
      const index_t i0 = blk * sched::kRowBlock;
      const index_t bn = std::min(sched::kRowBlock, arows - i0);
      xblas::gemm(Trans::None, Trans::None, -1.0,
                  w.block(o + v + i0, o, bn, v), w.block(o, o + v, v, v), 1.0,
                  w.block(o + v + i0, o + v, bn, v));
    }
    if (ncols > v) {
      for (index_t blk = 0; blk < nblocks; ++blk) {
        const index_t i0 = blk * sched::kRowBlock;
        const index_t bn = std::min(sched::kRowBlock, arows - i0);
        xblas::gemm(Trans::None, Trans::None, -1.0,
                    w.block(o + v + i0, o, bn, v),
                    w.block(o, o + 2 * v, v, ncols - v), 1.0,
                    w.block(o + v + i0, o + 2 * v, bn, ncols - v));
      }
    }
  }
  MatrixD out(n, n);
  copy<double>(w.block(0, 0, n, n), out.view());
  return out;
}

// Serial recomputation of the packed Cholesky data path (no pivoting, so
// any SPD input is bitwise comparable): potrf of the zero-padded diagonal
// copy, per-rank-chunked in-place panel trsm, and the fixed kRowBlock
// gemm + syrk update decomposition.
MatrixD golden_chol(const MatrixD& a, index_t n, index_t v, int ranks) {
  const index_t npad = (n + v - 1) / v * v;
  const index_t num_tiles = npad / v;
  MatrixD w(npad, npad, 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) w(i, j) = a(i, j);
  }
  for (index_t r = n; r < npad; ++r) w(r, r) = 1.0;

  for (index_t t = 0; t < num_tiles; ++t) {
    const index_t o = t * v;
    const index_t panel_rows = npad - o - v;
    MatrixD a00(v, v, 0.0);
    for (index_t i = 0; i < v; ++i) {
      for (index_t j = 0; j <= i; ++j) a00(i, j) = w(o + i, o + j);
    }
    EXPECT_EQ(xblas::potrf(a00.view()), 0);
    for (index_t i = 0; i < v; ++i) {
      for (index_t j = 0; j <= i; ++j) w(o + i, o + j) = a00(i, j);
    }
    if (panel_rows == 0) continue;
    for (int r = 0; r < ranks; ++r) {
      const index_t lo = chunk_offset(panel_rows, ranks, r);
      const index_t cnt = chunk_size(panel_rows, ranks, r);
      if (cnt == 0) continue;
      xblas::trsm(Side::Right, UpLo::Lower, Trans::Transpose, Diag::NonUnit,
                  1.0, a00.view(), w.block(o + v + lo, o, cnt, v));
    }
    // Symmetric Schur update in the schedule's canonical decomposition:
    // per fixed kRowBlock row block, the urgent piece (its cells in the
    // next panel's v columns) then the lazy remainder (confchox.cpp
    // update_a11).
    const index_t off = o + v;
    const index_t nblocks = sched::num_row_blocks(panel_rows);
    for (index_t blk = 0; blk < nblocks; ++blk) {
      const index_t i0 = blk * sched::kRowBlock;
      const index_t bn = std::min(sched::kRowBlock, panel_rows - i0);
      if (i0 == 0) {
        const index_t dn = std::min(v, bn);
        xblas::syrk(UpLo::Lower, Trans::None, -1.0, w.block(off, o, dn, v),
                    1.0, w.block(off, off, dn, dn));
        if (bn > v) {
          xblas::gemm(Trans::None, Trans::Transpose, -1.0,
                      w.block(off + v, o, bn - v, v), w.block(off, o, v, v),
                      1.0, w.block(off + v, off, bn - v, v));
        }
      } else {
        xblas::gemm(Trans::None, Trans::Transpose, -1.0,
                    w.block(off + i0, o, bn, v), w.block(off, o, v, v), 1.0,
                    w.block(off + i0, off, bn, v));
      }
    }
    for (index_t blk = 0; blk < nblocks; ++blk) {
      const index_t i0 = blk * sched::kRowBlock;
      const index_t bn = std::min(sched::kRowBlock, panel_rows - i0);
      if (i0 == 0) {
        if (bn > v) {
          xblas::syrk(UpLo::Lower, Trans::None, -1.0,
                      w.block(off + v, o, bn - v, v), 1.0,
                      w.block(off + v, off + v, bn - v, bn - v));
        }
      } else {
        if (i0 > v) {
          xblas::gemm(Trans::None, Trans::Transpose, -1.0,
                      w.block(off + i0, o, bn, v), w.block(off + v, o, i0 - v, v),
                      1.0, w.block(off + i0, off + v, bn, i0 - v));
        }
        xblas::syrk(UpLo::Lower, Trans::None, -1.0, w.block(off + i0, o, bn, v),
                    1.0, w.block(off + i0, off + i0, bn, bn));
      }
    }
  }
  MatrixD out(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) out(i, j) = w(i, j);
  }
  return out;
}

struct PackedCase {
  index_t n;
  index_t v;
  int pz;
};

std::string case_name(const ::testing::TestParamInfo<PackedCase>& info) {
  return "n" + std::to_string(info.param.n) + "_v" + std::to_string(info.param.v) +
         "_pz" + std::to_string(info.param.pz);
}

// Ragged shapes (n % v != 0) at every replication depth.
const PackedCase kCases[] = {
    {100, 16, 1}, {100, 16, 2}, {100, 16, 4}, {72, 16, 2}, {64, 16, 4},
};

// --------------------------------------------------- golden-path bitwise ----

class PackedGolden : public ::testing::TestWithParam<PackedCase> {};

TEST_P(PackedGolden, LuFactorsMatchSerialRecomputationBitwise) {
  const auto& p = GetParam();
  const grid::Grid3D g(2, 2, p.pz);
  xsim::Machine m = make_machine(g, p.n);
  const MatrixD a = random_dominant_matrix(p.n, 900 + static_cast<std::uint64_t>(p.n));
  const LuResult lu = conflux_lu(m, g, a.view(), FactorOptions{.block_size = p.v});
  for (index_t i = 0; i < p.n; ++i) {
    ASSERT_EQ(lu.perm[static_cast<std::size_t>(i)], i)
        << "dominant matrix repivoted; golden path not comparable";
  }
  const MatrixD want = golden_lu(a, p.n, p.v, g.ranks());
  EXPECT_EQ(lu.factors, want);
}

TEST_P(PackedGolden, CholFactorsMatchSerialRecomputationBitwise) {
  const auto& p = GetParam();
  const grid::Grid3D g(2, 2, p.pz);
  xsim::Machine m = make_machine(g, p.n);
  const MatrixD a = random_spd_matrix(p.n, 700 + static_cast<std::uint64_t>(p.n));
  const CholResult chol = confchox(m, g, a.view(), FactorOptions{.block_size = p.v});
  const MatrixD want = golden_chol(a, p.n, p.v, g.ranks());
  EXPECT_EQ(chol.factors, want);
}

INSTANTIATE_TEST_SUITE_P(RaggedShapes, PackedGolden, ::testing::ValuesIn(kCases),
                         case_name);

// ------------------------------------------------ thread-count invariance ----

class PackedThreads : public ::testing::TestWithParam<PackedCase> {};

TEST_P(PackedThreads, FactorsBitwiseIdenticalAtOneAndFourThreads) {
  const auto& p = GetParam();
  const grid::Grid3D g(2, 2, p.pz);
  const MatrixD a = random_matrix(p.n, p.n, 47);
  const MatrixD spd = random_spd_matrix(p.n, 53);
  const FactorOptions opt{.block_size = p.v};

  const auto run_both = [&](int width) {
    const xblas::ScopedThreadCap cap(width);
    xsim::Machine mlu = make_machine(g, p.n);
    xsim::Machine mch = make_machine(g, p.n);
    return std::make_pair(conflux_lu(mlu, g, a.view(), opt),
                          confchox(mch, g, spd.view(), opt));
  };

  const auto [lu1, ch1] = run_both(1);
  const auto [lu4, ch4] = run_both(4);

  EXPECT_EQ(lu1.perm, lu4.perm);
  EXPECT_EQ(lu1.factors, lu4.factors);
  EXPECT_EQ(ch1.factors, ch4.factors);
}

INSTANTIATE_TEST_SUITE_P(RaggedShapes, PackedThreads, ::testing::ValuesIn(kCases),
                         case_name);

// -------------------------------------------------------- pz invariance ----

TEST(PackedWorkspace, FactorsBitwiseIdenticalAcrossReplicationDepths) {
  // The packed path fuses the layered partial sums into gemm's ordered
  // k loop, so pz changes the cost counters but not one bit of arithmetic.
  const index_t n = 100, v = 16;
  const MatrixD a = random_matrix(n, n, 61);
  const MatrixD spd = random_spd_matrix(n, 67);
  LuResult lu_ref;
  CholResult ch_ref;
  for (const int pz : {1, 2, 4}) {
    const grid::Grid3D g(2, 2, pz);
    xsim::Machine mlu = make_machine(g, n);
    xsim::Machine mch = make_machine(g, n);
    LuResult lu = conflux_lu(mlu, g, a.view(), FactorOptions{.block_size = v});
    CholResult ch = confchox(mch, g, spd.view(), FactorOptions{.block_size = v});
    if (pz == 1) {
      lu_ref = std::move(lu);
      ch_ref = std::move(ch);
      continue;
    }
    EXPECT_EQ(lu_ref.perm, lu.perm) << "pz=" << pz;
    EXPECT_EQ(lu_ref.factors, lu.factors) << "pz=" << pz;
    EXPECT_EQ(ch_ref.factors, ch.factors) << "pz=" << pz;
  }
}

// -------------------------------------------------- fp32 determinism ----
// The scalar-templated core must keep both bitwise-determinism guarantees
// (thread count, pz) in fp32: the fused z-order and the fixed task
// decompositions are precision-independent.

TEST(PackedFp32, FactorsBitwiseIdenticalAcrossThreadsAndReplication) {
  const index_t n = 100, v = 16;
  const MatrixD a64 = random_matrix(n, n, 81);
  const MatrixD spd64 = random_spd_matrix(n, 83);
  MatrixF a(n, n), spd(n, n);
  convert<double, float>(a64.view(), a.view());
  convert<double, float>(spd64.view(), spd.view());

  LuResultF lu_ref;
  CholResultF ch_ref;
  bool have_ref = false;
  for (const int pz : {1, 2, 4}) {
    for (const int threads : {1, 4}) {
      const grid::Grid3D g(2, 2, pz);
      const xblas::ScopedThreadCap cap(threads);
      xsim::Machine mlu = make_machine(g, n);
      xsim::Machine mch = make_machine(g, n);
      LuResultF lu = conflux_lu(mlu, g, a.view(), FactorOptions{.block_size = v});
      CholResultF ch = confchox(mch, g, spd.view(), FactorOptions{.block_size = v});
      if (!have_ref) {
        lu_ref = std::move(lu);
        ch_ref = std::move(ch);
        have_ref = true;
        continue;
      }
      EXPECT_EQ(lu_ref.perm, lu.perm) << "pz=" << pz << " threads=" << threads;
      EXPECT_EQ(lu_ref.factors, lu.factors)
          << "pz=" << pz << " threads=" << threads;
      EXPECT_EQ(ch_ref.factors, ch.factors)
          << "pz=" << pz << " threads=" << threads;
    }
  }
}

TEST(PackedFp32, WorkspaceReportsHalvedFootprint) {
  // workspace_words counts 8-byte words: an fp32 run's trail + lstore must
  // come in at half the fp64 budget (one npad^2 for LU instead of two).
  const index_t n = 96, v = 16;
  const double npad2 = static_cast<double>(n) * static_cast<double>(n);
  const grid::Grid3D g(2, 2, 2);
  const MatrixD a64 = random_matrix(n, n, 85);
  MatrixF a(n, n);
  convert<double, float>(a64.view(), a.view());
  xsim::Machine m = make_machine(g, n);
  const LuResultF lu = conflux_lu(m, g, a.view(), FactorOptions{.block_size = v});
  EXPECT_GE(lu.workspace_words, 1.0 * npad2);
  EXPECT_LE(lu.workspace_words, 1.2 * npad2);
}

// ----------------------------------------------------- workspace budget ----

TEST(PackedWorkspace, PeakWordsStayNearTwoMatricesForLu) {
  // Old data path: (pz + 1) * npad^2 resident words. Packed path: trail +
  // lstore + the O(npad * v) pivot-row arena, independent of pz.
  const index_t n = 96, v = 16;
  const double npad2 = static_cast<double>(n) * static_cast<double>(n);
  const double slots = 2.5 * static_cast<double>(n) * static_cast<double>(v);
  for (const int pz : {1, 4}) {
    const grid::Grid3D g(2, 2, pz);
    xsim::Machine m = make_machine(g, n);
    const MatrixD a = random_matrix(n, n, 71);
    const LuResult lu = conflux_lu(m, g, a.view(), FactorOptions{.block_size = v});
    EXPECT_GE(lu.workspace_words, 2.0 * npad2) << "pz=" << pz;
    EXPECT_LE(lu.workspace_words, 2.0 * npad2 + slots) << "pz=" << pz;
  }
}

// ------------------------------------------------ execution invariance ----

TEST(Invariance, FactorsBitwiseIdenticalAcrossWidthsAndReplication) {
  // The urgent/lazy decomposition is fixed; the width only changes which
  // worker runs an index, so every factor bit must agree across thread
  // counts and replication depths.
  const index_t n = 100, v = 16;
  const MatrixD a = random_matrix(n, n, 91);
  const MatrixD spd = random_spd_matrix(n, 97);

  LuResult lu_ref;
  CholResult ch_ref;
  bool have_ref = false;
  for (const int pz : {1, 2}) {
    for (const int threads : {1, 4}) {
      const grid::Grid3D g(2, 2, pz);
      const xblas::ScopedThreadCap cap(threads);
      const FactorOptions opt{.block_size = v};
      xsim::Machine mlu = make_machine(g, n);
      xsim::Machine mch = make_machine(g, n);
      LuResult lu = conflux_lu(mlu, g, a.view(), opt);
      CholResult ch = confchox(mch, g, spd.view(), opt);
      if (!have_ref) {
        lu_ref = std::move(lu);
        ch_ref = std::move(ch);
        have_ref = true;
        continue;
      }
      EXPECT_EQ(lu_ref.perm, lu.perm) << "pz=" << pz << " threads=" << threads;
      EXPECT_EQ(lu_ref.factors, lu.factors) << "pz=" << pz << " threads=" << threads;
      EXPECT_EQ(ch_ref.factors, ch.factors) << "pz=" << pz << " threads=" << threads;
    }
  }
}

// --------------------------------------------- checkpoint save/restore ----

TEST(Recovery, SaveThenRestoreIsBitwiseAcrossConfigurations) {
  // A checkpointed run followed by a resume from its LAST snapshot must
  // reproduce the uninterrupted factors bitwise, in every execution
  // configuration the other invariance tests cover: replication depth and
  // pool width, for both factor cores. The
  // interval (4 of 7 tiles) leaves a multi-step tail to re-execute.
  const index_t n = 100, v = 16;
  const MatrixD a = random_matrix(n, n, 107);
  const MatrixD spd = random_spd_matrix(n, 109);
  recover::Options ro;
  ro.ckpt_every = 4;
  recover::ScopedOptions so(ro);
  for (const int pz : {1, 2, 4}) {
    for (const int threads : {1, 4}) {
      const grid::Grid3D g(2, 2, pz);
      const xblas::ScopedThreadCap cap(threads);
      const FactorOptions opt{.block_size = v};
      recover::clear();
      xsim::Machine mlu = make_machine(g, n);
      const LuResult lu = conflux_lu(mlu, g, a.view(), opt);
      xsim::Machine mlu2 = make_machine(g, n);
      const LuResult lu2 = resume_conflux_lu(mlu2, g, a.view(), opt);
      recover::clear();
      xsim::Machine mch = make_machine(g, n);
      const CholResult ch = confchox(mch, g, spd.view(), opt);
      xsim::Machine mch2 = make_machine(g, n);
      const CholResult ch2 = resume_confchox(mch2, g, spd.view(), opt);
      EXPECT_EQ(lu.perm, lu2.perm) << "pz=" << pz << " threads=" << threads;
      EXPECT_EQ(lu.factors, lu2.factors) << "pz=" << pz << " threads=" << threads;
      EXPECT_EQ(ch.factors, ch2.factors) << "pz=" << pz << " threads=" << threads;
    }
  }
}

TEST(Recovery, CorruptedSnapshotIsATypedFailureNeverUb) {
  // Semantic corruption beneath an intact checksum: rewrite a snapshot's
  // payload with a valid header but garbage structure. Every probe must
  // come back as kCheckpointInvalid through the try_ entry point — never a
  // crash, never a silent wrong answer.
  const index_t n = 100, v = 16;
  const grid::Grid3D g(2, 2, 1);
  const MatrixD a = random_matrix(n, n, 113);
  recover::Options ro;
  ro.ckpt_every = 2;
  recover::ScopedOptions so(ro);
  recover::clear();
  FactorOptions opt;
  opt.block_size = v;
  xsim::Machine m = make_machine(g, n);
  const LuResult direct = conflux_lu(m, g, a.view(), opt);

  recover::SnapshotKey key;
  key.kind = recover::FactorKind::kLu;
  key.scalar = 'd';
  key.n = n;
  key.v = v;
  key.px = g.px();
  key.py = g.py();
  key.pz = g.pz();
  const recover::Blob good = recover::latest_blob(key);
  ASSERT_FALSE(good.empty());

  // (1) Checksum-valid but structurally absurd: a fresh snapshot whose
  // payload is one bogus length-prefixed index vector.
  {
    recover::SnapshotWriter w(key, /*step=*/1);
    w.put_i64(1 << 20);  // "nact" wildly out of range for its step
    recover::inject_blob(key, std::move(w).seal());
    xsim::Machine m2 = make_machine(g, n);
    const auto r = try_resume_conflux_lu(m2, g, a.view(), opt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCheckpointInvalid)
        << r.status().to_string();
  }
  // (2) Bit corruption in every span of the real blob: header, early
  // payload (scalars/maps), deep payload (matrix data).
  for (const std::size_t pos :
       {std::size_t{2}, std::size_t{70}, good.size() / 2, good.size() - 3}) {
    recover::Blob bad = good;
    bad[pos] ^= 0x10;
    recover::inject_blob(key, std::move(bad));
    xsim::Machine m2 = make_machine(g, n);
    const auto r = try_resume_conflux_lu(m2, g, a.view(), opt);
    ASSERT_FALSE(r.ok()) << "corruption at byte " << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kCheckpointInvalid)
        << "corruption at byte " << pos << ": " << r.status().to_string();
  }
  // The pristine blob still resumes to the direct result bitwise.
  recover::inject_blob(key, recover::Blob(good));
  xsim::Machine m3 = make_machine(g, n);
  const LuResult resumed = resume_conflux_lu(m3, g, a.view(), opt);
  EXPECT_EQ(direct.perm, resumed.perm);
  EXPECT_EQ(direct.factors, resumed.factors);
}

// ------------------------------------------- steady-state allocations ----

TEST(PackedWorkspace, SteadyStateAllocationCountIsStepIndependent) {
  // Every per-step buffer — tournament gathers, candidate sets, retirement
  // pairs, pivot-row panels, grid-line groups — lives in per-run scratch
  // sized at its step-0 high-water mark, so the number of heap allocations
  // a run performs must not depend on how many steps it has. Single
  // thread: worker TLS warm-up is thread-assignment dependent.
  const index_t v = 16;
  const grid::Grid3D g(2, 2, 2);
  const xblas::ScopedThreadCap one(1);
  const auto allocs_for = [&](index_t n) {
    const MatrixD a =
        random_dominant_matrix(n, 200 + static_cast<std::uint64_t>(n));
    xsim::Machine m = make_machine(g, n);
    const FactorOptions opt{.block_size = v};
    const long long before = g_alloc_count.load(std::memory_order_relaxed);
    const LuResult lu = conflux_lu(m, g, a.view(), opt);
    const long long during =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(lu.factors.rows(), n);
    return during;
  };
  // Warm up at the LARGEST size so the BLAS thread-local pack buffers are
  // already at their high-water marks for both measured runs.
  allocs_for(10 * v);
  const long long steps8 = allocs_for(8 * v);
  const long long steps10 = allocs_for(10 * v);
  EXPECT_EQ(steps8, steps10);
}

// ------------------------------------------ set-up and factor hand-off ----
// The set-up pass writes the whole workspace in parallel row blocks, and the
// finished buffer becomes the result: moved when npad == n, compacted when
// npad > n. Both shapes, both cores, both widths must keep the goldens.

TEST(PackedHandoff, FactorsMatchGoldensOnMoveAndCompactionShapes) {
  const index_t v = 16;
  const grid::Grid3D g(2, 2, 2);
  for (const index_t n : {6 * v, 6 * v - 1}) {
    const MatrixD a = random_dominant_matrix(n, 300 + static_cast<std::uint64_t>(n));
    const MatrixD spd = random_spd_matrix(n, 400 + static_cast<std::uint64_t>(n));
    const MatrixD want_lu = golden_lu(a, n, v, g.ranks());
    const MatrixD want_ch = golden_chol(spd, n, v, g.ranks());
    for (const int width : {1, 4}) {
      const xblas::ScopedThreadCap cap(width);
      xsim::Machine mlu = make_machine(g, n);
      xsim::Machine mch = make_machine(g, n);
      const LuResult lu = conflux_lu(mlu, g, a.view(), FactorOptions{.block_size = v});
      const CholResult ch = confchox(mch, g, spd.view(), FactorOptions{.block_size = v});
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(lu.perm[static_cast<std::size_t>(i)], i) << "n=" << n;
      }
      EXPECT_EQ(lu.factors, want_lu) << "n=" << n << " width=" << width;
      EXPECT_EQ(ch.factors, want_ch) << "n=" << n << " width=" << width;
    }
  }
}

TEST(PackedHandoff, ResidentWordsMatchRetainedStorage) {
  // The bytes a run leaves allocated while its result is alive are exactly
  // the result's storage: no npad-shaped buffer survives the hand-off.
  const index_t v = 16;
  const grid::Grid3D g(2, 2, 2);
  const xblas::ScopedThreadCap one(1);
  const FactorOptions opt{.block_size = v};
  for (const index_t n : {6 * v, 6 * v - 1}) {
    const MatrixD a = random_dominant_matrix(n, 500 + static_cast<std::uint64_t>(n));
    const MatrixD spd = random_spd_matrix(n, 600 + static_cast<std::uint64_t>(n));
    const auto retained_bytes = [&](auto&& factor) {
      const long long before = g_live_bytes.load(std::memory_order_relaxed);
      const auto result = factor();
      const long long kept = g_live_bytes.load(std::memory_order_relaxed) - before;
      EXPECT_EQ(result.factors.rows(), n);
      EXPECT_EQ(result.factors.cols(), n);
      return std::make_pair(static_cast<double>(kept), result.resident_words() * 8.0);
    };
    const auto lu = [&] {
      xsim::Machine m = make_machine(g, n);
      return conflux_lu(m, g, a.view(), opt);
    };
    const auto ch = [&] {
      xsim::Machine m = make_machine(g, n);
      return confchox(m, g, spd.view(), opt);
    };
    retained_bytes(lu);  // warm thread-local BLAS scratch at this size
    retained_bytes(ch);
    const auto [lu_kept, lu_resident] = retained_bytes(lu);
    const auto [ch_kept, ch_resident] = retained_bytes(ch);
    EXPECT_EQ(lu_kept, lu_resident) << "n=" << n;
    EXPECT_EQ(ch_kept, ch_resident) << "n=" << n;
  }
}

TEST(PackedSetup, NonFiniteInputIsRejectedAndCallerMatrixUntouched) {
  // The set-up pass scans in parallel row blocks and throws on the calling
  // thread after the loop; a bad value anywhere — first element, last
  // element the core reads, inside the last row block — must classify.
  const index_t n = 300, v = 16;  // three kRowBlock row blocks
  const grid::Grid3D g(2, 2, 2);
  const xblas::ScopedThreadCap cap(4);
  const MatrixD a0 = random_matrix(n, n, 701);
  const MatrixD spd0 = random_spd_matrix(n, 703);
  const auto same_bits = [](const MatrixD& x, const MatrixD& y) {
    return std::memcmp(x.data(), y.data(),
                       static_cast<std::size_t>(x.size()) * sizeof(double)) == 0;
  };
  struct Spot {
    index_t i, j;
  };
  const index_t last_block = n - 20;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const Spot s : {Spot{0, 0}, Spot{n - 1, n - 1}, Spot{last_block, 7}}) {
      MatrixD a = a0;
      a(s.i, s.j) = bad;
      const MatrixD a_before = a;
      xsim::Machine mlu = make_machine(g, n);
      const auto lu = try_conflux_lu(mlu, g, a.view(), FactorOptions{.block_size = v});
      ASSERT_FALSE(lu.has_value());
      EXPECT_EQ(lu.status().code(), StatusCode::kNonFinite) << lu.status().to_string();
      EXPECT_EQ(lu.status().message(), "input matrix contains a non-finite value");
      EXPECT_TRUE(same_bits(a, a_before));
    }
    for (const Spot s : {Spot{0, 0}, Spot{n - 1, 0}, Spot{last_block, 7}}) {
      MatrixD spd = spd0;
      spd(s.i, s.j) = bad;
      const MatrixD spd_before = spd;
      xsim::Machine mch = make_machine(g, n);
      const auto ch = try_confchox(mch, g, spd.view(), FactorOptions{.block_size = v});
      ASSERT_FALSE(ch.has_value());
      EXPECT_EQ(ch.status().code(), StatusCode::kNonFinite) << ch.status().to_string();
      EXPECT_EQ(ch.status().message(), "input matrix contains a non-finite value");
      EXPECT_TRUE(same_bits(spd, spd_before));
    }
  }
}

TEST(PackedSetup, OverflowingURowsKeepTheirCodeMessageAndStep) {
  // Finite input whose step-0 U rows overflow in the A01 trsm: rows 0 and 1
  // tie for the first pivot with opposite signs (multiplier -1), and both
  // carry 1e308 in the last trailing column, which the last A01 chunk
  // solves. The chunk scans reduce on the master to the serial verdict.
  const index_t n = 64, v = 16;
  const grid::Grid3D g(2, 2, 2);
  MatrixD a(n, n, 0.01);
  for (index_t i = 0; i < n; ++i) a(i, i) = 10.0;
  a(1, 0) = -10.0;
  a(0, n - 1) = 1e308;
  a(1, n - 1) = 1e308;
  for (const int width : {1, 4}) {
    const xblas::ScopedThreadCap cap(width);
    xsim::Machine m = make_machine(g, n);
    const auto r = try_conflux_lu(m, g, a.view(), FactorOptions{.block_size = v});
    ASSERT_FALSE(r.has_value()) << "width=" << width;
    EXPECT_EQ(r.status().code(), StatusCode::kNonFinite) << r.status().to_string();
    EXPECT_EQ(r.status().message(), "non-finite value in the factored pivot rows");
    EXPECT_EQ(r.status().step(), 0);
  }
}

TEST(PackedWorkspace, PeakWordsStayNearOneMatrixForCholesky) {
  const index_t n = 96, v = 16;
  const double npad2 = static_cast<double>(n) * static_cast<double>(n);
  for (const int pz : {1, 4}) {
    const grid::Grid3D g(2, 2, pz);
    xsim::Machine m = make_machine(g, n);
    const MatrixD a = random_spd_matrix(n, 73);
    const CholResult ch = confchox(m, g, a.view(), FactorOptions{.block_size = v});
    EXPECT_GE(ch.workspace_words, npad2) << "pz=" << pz;
    EXPECT_LE(ch.workspace_words, 1.1 * npad2) << "pz=" << pz;
  }
}

}  // namespace
}  // namespace conflux::factor
