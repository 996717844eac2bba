// Cache/register blocking parameters for the level-3 BLAS substrate.
//
// The gemm driver (src/blas/gemm.cpp) is a BLIS-style five-loop algorithm:
// the three cache-blocking sizes (nc, kc, mc) pick the footprint of the
// packed B panel (kc x nc, L3/L2 resident) and packed A block (mc x kc,
// L2/L1 resident); the register tile (MR x NR) is fixed at compile time so
// the microkernel's accumulator array lowers to vector registers.
//
// All runtime sizes live in one Tuning struct so benches can sweep them
// (bench/micro_blas_kernels.cpp --sweep, bench/ablation_block_size.cpp) and
// users can override them via environment variables without rebuilding:
//
//   XBLAS_MC, XBLAS_KC, XBLAS_NC   gemm cache block sizes
//   XBLAS_DB                       trsm/syrk/gemmt diagonal block size
//   XBLAS_LU_NB                    getrf/potrf panel width
//   XBLAS_SMALL_K                  small-k fast-path cutoff (0 disables)
//
// Thread count is not a tuning field: gemm runs its parallel loops on the
// task pool, whose width ScopedThreadCap (below) or CONFLUX_POOL_THREADS
// sets (src/sched/taskpool.hpp).
//
// Tuning::detect() runs once at first BLAS use: compiled-in defaults
// (below), then XBLAS_* environment overrides. tuning_source() reports
// whether any override was honoured.
#pragma once

#include "tensor/matrix.hpp"

namespace conflux::xblas {

/// Register tile shape of the gemm microkernel, per scalar type
/// (compile-time: the MR x NR accumulator must be a fixed-size array for the
/// compiler to keep it in vector registers). Both tiles hold MR scalars in
/// one 64-byte "register" (1 zmm on AVX-512, 2 ymm on AVX2), so fp32's
/// 16x8 tile has the identical register pressure and instruction count as
/// fp64's 8x8 while moving twice the scalars per FMA — the source of the
/// fp32 throughput doubling the mixed-precision drivers rely on.
template <typename T>
struct RegTile;
template <>
struct RegTile<double> {
  static constexpr index_t mr = 8;
  static constexpr index_t nr = 8;
};
template <>
struct RegTile<float> {
  static constexpr index_t mr = 16;
  static constexpr index_t nr = 8;
};

/// Legacy names for the fp64 tile (sweeps and tests key off these).
inline constexpr index_t kMR = RegTile<double>::mr;
inline constexpr index_t kNR = RegTile<double>::nr;

/// Runtime kc scaling per scalar: the Tuning::kc default is sized so a
/// kc x nc fp64 B panel fits the L2/L3 budget; narrower scalars double kc to
/// keep the same byte footprint (and halve the per-panel loop overhead).
template <typename T>
constexpr index_t kc_scale() {
  return static_cast<index_t>(sizeof(double) / sizeof(T));
}

struct Tuning {
  /// Rows of A packed per block (rounded up to a multiple of kMR).
  /// Defaults picked by `micro_blas_kernels --sweep` on AVX-512 hardware;
  /// override per machine via XBLAS_MC / XBLAS_KC / XBLAS_NC.
  index_t mc = 64;
  /// Inner (reduction) dimension of both packed panels.
  index_t kc = 512;
  /// Columns of B packed per panel (rounded up to a multiple of kNR).
  index_t nc = 2048;
  /// Diagonal block size for blocked trsm / syrk / gemmt: O(db^3) work runs
  /// in the small scalar kernels, everything else goes through gemm.
  index_t db = 64;
  /// Panel width for the blocked getrf / potrf in src/blas/lapack.cpp.
  index_t lu_nb = 32;
  /// Problems with 2*m*n*k at or below this skip packing entirely and use a
  /// direct strided kernel (packing overhead dominates for tiny blocks).
  double small_gemm_flops = 65536.0;
  /// k at or below this takes the small-k fast path: B is read through a
  /// strided microkernel instead of being packed (one saved pass over B per
  /// block, which dominates when k is far below kc — the factorizations'
  /// Schur updates run at k = v, typically 8..64). 0 disables the path.
  index_t small_k = 64;

  /// Clamp every field to a sane value (>= 1 sizes).
  void sanitize();

  /// Compiled-in defaults with XBLAS_* environment overrides applied. Updates
  /// the tuning_source() record as a side effect.
  static Tuning detect();
};

/// The process-wide tuning, initialized once via Tuning::detect(). Mutable
/// so sweeps can adjust it between (not during) BLAS calls.
Tuning& tuning();

/// Where the last Tuning::detect() got its settings: "default" (compiled in)
/// or "env" (at least one XBLAS_* override honoured). Recorded in every
/// BENCH_*.json row so perf numbers stay attributable.
const char* tuning_source();

/// Per-thread team-width override (0 = none): the one in-process width
/// setting. sched::TaskPool::width() returns it ahead of CONFLUX_POOL_THREADS
/// and the CPU count, so it raises the width as well as lowers it; gemm's
/// parallel loops and every parallel_for issued from this thread follow it.
/// The task pool sets it to 1 on its workers and on the master while it
/// runs its share of a call's indices, so BLAS calls inside pool work never
/// fork: the pool itself is the parallelism there.
int tls_thread_cap();
void set_tls_thread_cap(int cap);

/// RAII guard for tls_thread_cap: the width of this thread's work while it
/// lives (ScopedThreadCap(1) keeps a caller entirely off the pool).
class ScopedThreadCap {
 public:
  explicit ScopedThreadCap(int cap) : saved_(tls_thread_cap()) {
    set_tls_thread_cap(cap);
  }
  ~ScopedThreadCap() { set_tls_thread_cap(saved_); }
  ScopedThreadCap(const ScopedThreadCap&) = delete;
  ScopedThreadCap& operator=(const ScopedThreadCap&) = delete;

 private:
  int saved_;
};

}  // namespace conflux::xblas
