// BLIS-style blocked gemm: pack operands into contiguous micro-panel
// buffers, then drive a register-tiled microkernel over them.
//
// Loop structure (outer to inner), following Goto/BLIS:
//   jc over columns of C in steps of nc   (packed B panel: kc x nc)
//   pc over the k dimension in steps of kc
//     pack op(B)(pc:, jc:) into micro-panels of NR columns
//   ic over rows of C in steps of mc      (packed A block: mc x kc)
//     pack alpha*op(A)(ic:, pc:) into micro-panels of MR rows
//     jr/ir over micro-tiles, each handled by the MR x NR microkernel
//
// The whole driver is a template over the scalar type AND ISA-agnostic:
// the register-tiled microkernel (and its MR x NR tile shape) comes from
// the runtime dispatch in microkernel.hpp — selected once per process via
// cpuid/getauxval or forced with XBLAS_ISA — so per-ISA tile shapes (AVX2
// runs 8x6 fp64 where AVX-512 runs 8x8) flow through packing, loop steps,
// and edge-tile handling without this file naming any ISA. fp32 kernels
// hold twice the scalars per register, and fp32 also scales the runtime kc
// (or takes its own tuned block sizes) so packed panels keep their byte
// footprint.
//
// Two departures from the textbook loop nest, both motivated by the
// factorization workloads (Schur updates with k = v in the tens, panel
// updates with m <= one cache block):
//   - small-k fast path: when k <= Tuning::small_k and B is untransposed,
//     B is never packed — a strided microkernel streams op(B) rows in
//     place. Packing B costs a full extra pass over B per (jc, pc) block,
//     which is pure overhead when the k loop is a handful of iterations.
//   - jr parallelization: when there are fewer A row blocks than threads
//     (panel updates: m <= mc means ONE block), threads cooperatively pack
//     the A block and then split the jr stripe loop, so small-m updates
//     still use the whole machine.
//
// Threading: the parallel loops are sched::TaskPool::parallel_for calls, at
// the width of the calling thread (1 inside pool work, so a gemm in a
// factorization task never forks). Per (jc, pc) block, one parallel_for
// packs the B micro-panels, then either one splits the ic loop (each thread
// packing A into its own buffer) or, when the ic loop is too short, two per
// A block pack a shared A block and then split the jr stripes; the end of
// each parallel_for is the barrier between phases. Every C element is
// accumulated in the same fixed pc-then-p order regardless of thread count
// or path, and every C tile is written by exactly one thread, so results
// are bitwise identical run to run and across thread counts — in both
// precisions.
#include <algorithm>
#include <vector>

#include "blas/blas.hpp"
#include "blas/microkernel.hpp"
#include "blas/tuning.hpp"
#include "sched/taskpool.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"

namespace conflux::xblas {

namespace {

inline index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }
inline index_t round_up(index_t a, index_t b) { return ceil_div(a, b) * b; }

// Measured data movement (DESIGN.md "Observability"): bytes written into
// the pack buffers, accumulated once per gemm call from the loop-nest trip
// counts (every (jc, pc) block packs nc*kc of B once and re-packs m*kc of
// A, per the Goto loop structure above) — no per-block work on the hot
// path beyond the registry's single-branch gate.
const metrics::Counter g_pack_a_bytes("dm.pack_a.bytes");
const metrics::Counter g_pack_b_bytes("dm.pack_b.bytes");

// Pack alpha*op(A)(ic:ic+mc, pc:pc+kc) as ceil(mc/MR) micro-panels, each
// kc slices of MR contiguous values, zero-padded in the last panel.
template <typename T>
void pack_a(Trans trans, T alpha, ConstMatrixView<T> a, index_t ic, index_t pc,
            index_t mc, index_t kc, index_t MR, T* buf) {
  for (index_t ir = 0; ir < mc; ir += MR) {
    const index_t mr = std::min(MR, mc - ir);
    T* dst = buf + (ir / MR) * (MR * kc);
    if (mr < MR) std::fill(dst, dst + MR * kc, T{});
    if (trans == Trans::None) {
      // Rows of A are contiguous: iterate i outer for streaming reads.
      for (index_t i = 0; i < mr; ++i) {
        const T* src = a.row(ic + ir + i) + pc;
        for (index_t p = 0; p < kc; ++p) dst[p * MR + i] = alpha * src[p];
      }
    } else {
      // op(A)(r, c) = A(c, r): a row of A supplies one k-slice.
      for (index_t p = 0; p < kc; ++p) {
        const T* src = a.row(pc + p) + ic + ir;
        for (index_t i = 0; i < mr; ++i) dst[p * MR + i] = alpha * src[i];
      }
    }
  }
}

// Pack one micro-panel (NR columns starting at jc+jr) of op(B)(pc:, jc:),
// kc slices of NR contiguous values, zero-padded past nr.
template <typename T>
void pack_b_panel(Trans trans, ConstMatrixView<T> b, index_t pc, index_t jc,
                  index_t jr, index_t nc, index_t kc, index_t NR, T* dst) {
  const index_t nr = std::min(NR, nc - jr);
  if (nr < NR) std::fill(dst, dst + NR * kc, T{});
  if (trans == Trans::None) {
    for (index_t p = 0; p < kc; ++p) {
      const T* src = b.row(pc + p) + jc + jr;
      for (index_t j = 0; j < nr; ++j) dst[p * NR + j] = src[j];
    }
  } else {
    // op(B)(r, c) = B(c, r): column j of the panel is a row of B.
    for (index_t j = 0; j < nr; ++j) {
      const T* src = b.row(jc + jr + j) + pc;
      for (index_t p = 0; p < kc; ++p) dst[p * NR + j] = src[p];
    }
  }
}

// Direct strided kernel for problems too small to amortize packing.
template <typename T>
void gemm_small(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                ConstMatrixView<T> b, MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (transa == Trans::None) ? a.cols() : a.rows();
  for (index_t i = 0; i < m; ++i) {
    T* crow = c.row(i);
    for (index_t p = 0; p < k; ++p) {
      const T aip = alpha * ((transa == Trans::None) ? a(i, p) : a(p, i));
      if (transb == Trans::None) {
        const T* brow = b.row(p);
        for (index_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
      } else {
        for (index_t j = 0; j < n; ++j) crow[j] += aip * b(j, p);
      }
    }
  }
}

// Per-thread packing buffers, persisting across gemm calls so medium-size
// factorization updates do not pay an allocation per call:
//   apack    packed A block of the thread running an ic block
//   bpack    packed B panel (up to nc*kc scalars), owned by the calling
//            thread: every thread of one call reads it, while concurrent
//            calls from different caller threads stay isolated
//   ashared  shared packed A block of the jr-split path (caller-owned)
//   bedge    zero-padded edge stripe of the strided-B path (nr < NR), where
//            the strided microkernel would over-read B (caller-owned)
template <typename T>
struct PackBufs {
  std::vector<T> apack, bpack, ashared, bedge;
};

template <typename T>
PackBufs<T>& pack_bufs() {
  thread_local PackBufs<T> bufs;
  return bufs;
}

template <typename T>
T* grown(std::vector<T>& buf, index_t size) {
  if (static_cast<index_t>(buf.size()) < size) {
    buf.resize(static_cast<std::size_t>(size));
  }
  return buf.data();
}

}  // namespace

template <typename T>
void gemm(Trans transa, Trans transb, std::type_identity_t<T> alpha,
          ConstMatrixView<T> a, ConstMatrixView<T> b,
          std::type_identity_t<T> beta, MatrixView<T> c) {
  // The active microkernel fixes the register-tile geometry this call packs
  // for; selection is per-process, so every concurrent call agrees.
  const MicroKernel<T>& mk = active_microkernel<T>();
  const index_t MR = mk.mr;
  const index_t NR = mk.nr;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (transa == Trans::None) ? a.cols() : a.rows();
  expects(((transa == Trans::None) ? a.rows() : a.cols()) == m, "gemm: A/C rows");
  expects(((transb == Trans::None) ? b.rows() : b.cols()) == k, "gemm: A/B inner dim");
  expects(((transb == Trans::None) ? b.cols() : b.rows()) == n, "gemm: B/C cols");

  // Scale C by beta first; the blocked path below only ever accumulates.
  if (beta == T{}) {
    for (index_t i = 0; i < m; ++i) {
      T* crow = c.row(i);
      for (index_t j = 0; j < n; ++j) crow[j] = T{};
    }
  } else if (beta != T{1}) {
    for (index_t i = 0; i < m; ++i) {
      T* crow = c.row(i);
      for (index_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  if (alpha == T{} || m == 0 || n == 0 || k == 0) return;

  // Work from a sanitized copy: tuning() is documented as mutable for
  // sweeps, and a degenerate value (kc = 0) must not hang the pc loop.
  Tuning tu = tuning();
  tu.sanitize();
  if (gemm_flops(m, n, k) <= tu.small_gemm_flops) {
    gemm_small<T>(transa, transb, alpha, a, b, c);
    return;
  }

  // fp32 takes its own tuned block sizes when the autotuner provided them,
  // else derives from the fp64 ones (same mc/nc, kc scaled to keep the
  // packed panels' byte footprint).
  index_t tu_mc = tu.mc;
  index_t tu_kc = tu.kc * kc_scale<T>();
  index_t tu_nc = tu.nc;
  if constexpr (std::is_same_v<T, float>) {
    if (tu.mc_f32 > 0) tu_mc = tu.mc_f32;
    if (tu.kc_f32 > 0) tu_kc = tu.kc_f32;
    if (tu.nc_f32 > 0) tu_nc = tu.nc_f32;
  }
  const index_t mc_blk = round_up(std::min(tu_mc, m), MR);
  const index_t kc_blk = std::min(tu_kc, k);
  const index_t nc_blk = round_up(std::min(tu_nc, n), NR);
  const index_t ni_blocks = ceil_div(m, mc_blk);

  // Small-k fast path: stream op(B) rows through the strided microkernel
  // instead of packing them (transb == None keeps rows contiguous).
  const bool strided_b =
      transb == Trans::None && tu.small_k > 0 && k <= tu.small_k;

  if (metrics::enabled()) {
    const double scalar_bytes = static_cast<double>(sizeof(T));
    g_pack_a_bytes.add(static_cast<double>(ceil_div(n, nc_blk)) *
                       static_cast<double>(m) * static_cast<double>(k) *
                       scalar_bytes);
    if (!strided_b) {
      g_pack_b_bytes.add(static_cast<double>(n) * static_cast<double>(k) *
                         scalar_bytes);
    }
  }

  PackBufs<T>& bufs = pack_bufs<T>();
  T* const bpack = strided_b ? nullptr : grown(bufs.bpack, nc_blk * kc_blk);
  T* const bedge = strided_b ? grown(bufs.bedge, NR * kc_blk) : nullptr;
  const index_t apack_size = mc_blk * kc_blk;

  // With fewer A row blocks than threads (panel updates: often exactly one
  // block), the ic loop cannot feed the machine; switch to a shared packed
  // A block and split the jr loop instead. Either way every C tile is
  // computed from the same packed/streamed values in the same order, so
  // the choice never changes results.
  sched::TaskPool& pool = sched::TaskPool::instance();
  const int width = pool.width();
  const bool shared_a = width > 1 && ni_blocks < width;
  T* const ashared = shared_a ? grown(bufs.ashared, apack_size) : nullptr;

  for (index_t jc = 0; jc < n; jc += nc_blk) {
    const index_t nc = std::min(nc_blk, n - jc);
    const index_t nb_panels = ceil_div(nc, NR);
    for (index_t pc = 0; pc < k; pc += kc_blk) {
      const index_t kc = std::min(kc_blk, k - pc);

      if (!strided_b) {
        pool.parallel_for(nb_panels, [&](index_t jp) {
          pack_b_panel<T>(transb, b, pc, jc, jp * NR, nc, kc, NR,
                          bpack + jp * (NR * kc));
        });
      } else if (nc % NR != 0) {
        // The strided path's edge stripe, zero-padded so the microkernel
        // can read full NR lanes.
        pack_b_panel<T>(transb, b, pc, jc, nc - nc % NR, nc, kc, NR, bedge);
      }

      // One NR-wide stripe of C micro-tiles from a packed A block. b_next
      // is the next packed B stripe (a software-prefetch hint for the
      // microkernel; null when streaming B in place or at the last stripe),
      // a_next likewise walks one A micro-panel ahead inside the stripe.
      const auto do_stripe = [&](const T* ap, index_t ic, index_t mc,
                                 index_t jr) {
        const index_t nr = std::min(NR, nc - jr);
        T* c0 = c.row(ic) + jc + jr;
        const T* bp = bedge;
        index_t bstride = NR;
        if (!strided_b) {
          bp = bpack + (jr / NR) * (NR * kc);
        } else if (nr == NR) {
          bp = b.row(pc) + jc + jr;
          bstride = b.ld();
        }
        const T* b_next = (!strided_b && jr + NR < nc) ? bp + NR * kc : nullptr;
        for (index_t ir = 0; ir < mc; ir += MR) {
          const T* a_cur = ap + (ir / MR) * (MR * kc);
          const T* a_next = (ir + MR < mc) ? a_cur + MR * kc : nullptr;
          mk.fn(kc, a_cur, bp, bstride, c0 + ir * c.ld(), c.ld(),
                std::min(MR, mc - ir), nr, a_next, b_next);
        }
      };

      if (!shared_a) {
        pool.parallel_for(ni_blocks, [&](index_t ib) {
          const index_t ic = ib * mc_blk;
          const index_t mc = std::min(mc_blk, m - ic);
          T* const apack = grown(pack_bufs<T>().apack, apack_size);
          pack_a<T>(transa, alpha, a, ic, pc, mc, kc, MR, apack);
          for (index_t jr = 0; jr < nc; jr += NR) do_stripe(apack, ic, mc, jr);
        });
      } else {
        for (index_t ib = 0; ib < ni_blocks; ++ib) {
          const index_t ic = ib * mc_blk;
          const index_t mc = std::min(mc_blk, m - ic);
          pool.parallel_for(ceil_div(mc, MR), [&](index_t ip) {
            pack_a<T>(transa, alpha, a, ic + ip * MR, pc,
                      std::min(MR, mc - ip * MR), kc, MR,
                      ashared + ip * (MR * kc));
          });
          pool.parallel_for(nb_panels, [&](index_t js) {
            do_stripe(ashared, ic, mc, js * NR);
          });
        }
      }
    }
  }
}

template void gemm<float>(Trans, Trans, float, ConstViewF, ConstViewF, float,
                          ViewF);
template void gemm<double>(Trans, Trans, double, ConstViewD, ConstViewD, double,
                           ViewD);

}  // namespace conflux::xblas
