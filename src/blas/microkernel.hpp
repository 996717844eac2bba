// Runtime-dispatched gemm microkernel registry.
//
// The BLIS-style five-loop driver in src/blas/gemm.cpp is ISA-agnostic: it
// packs operands into micro-panels and calls one MR x NR register-tiled
// kernel per C tile. This header makes that kernel a runtime choice. Each
// entry pairs a kernel function with its register-tile shape, so the driver
// sizes its pack buffers, loop steps, and edge tiles from the *active*
// kernel — per-ISA tile shapes (AVX2 runs 8x6 fp64 where AVX-512 runs 8x8)
// never leak into the driver, trsm/syrk/gemmt, or the factor cores.
//
// Selection happens once, at first BLAS use:
//   1. XBLAS_ISA={portable,avx2,avx512,neon} forces a kernel (falling back
//      with a stderr warning if the host cannot run it), else
//   2. detect_isa() picks the best kernel the host supports, via
//      __builtin_cpu_supports (x86 cpuid) or getauxval (aarch64 hwcaps).
//
// Every kernel accumulates each C element in the identical fixed k-order
// (one multiply-accumulate per (element, p) step, fused exactly when the
// build's portable kernel fuses — see microkernel.cpp), so switching ISA
// never changes results: the conformance suite asserts bitwise equality
// between every registered kernel and the portable one.
#pragma once

#include <string_view>

#include "tensor/matrix.hpp"

namespace conflux::xblas {

enum class Isa : int { Portable = 0, Avx2 = 1, Avx512 = 2, Neon = 3 };
inline constexpr int kIsaCount = 4;

/// Lower-case name used by XBLAS_ISA and bench rows.
const char* isa_name(Isa isa);

/// Parse an XBLAS_ISA-style name; returns false (and leaves *out alone) on
/// unknown names.
bool parse_isa(std::string_view name, Isa* out);

/// C[mr x nr] += packed-A micro-panel * op(B) stripe, kc deep.
///   ap       kc slices of MR contiguous values (zero-padded past mr)
///   bp       kc rows of B lanes, `bstride` apart — NR for a packed panel
///            (zero-padded past nr), or the matrix leading dimension when
///            the small-k path streams op(B) rows in place (full stripes
///            only: the flop loop reads NR lanes unconditionally)
///   mr, nr   live extent of the C tile (<= the kernel's MR x NR)
///   a_next   first byte of the next packed A micro-panel this thread will
///            consume, or nullptr — software-prefetch hint only
///   b_next   first byte of the next packed B stripe, or nullptr — ditto
template <typename T>
using MicroKernelFn = void (*)(index_t kc, const T* ap, const T* bp,
                               index_t bstride, T* c, index_t ldc, index_t mr,
                               index_t nr, const T* a_next, const T* b_next);

template <typename T>
struct MicroKernel {
  Isa isa;
  index_t mr;  ///< register-tile rows: pack_a pads A micro-panels to this
  index_t nr;  ///< register-tile cols: pack_b pads B micro-panels to this
  MicroKernelFn<T> fn;
};

/// Kernel compiled into this binary for `isa`, or nullptr. Kernels register
/// in float/double pairs: the two specializations are null together.
template <typename T>
const MicroKernel<T>* registered_microkernel(Isa isa);

/// True when `isa` is both compiled in and runnable on this host.
bool isa_available(Isa isa);

/// Best available ISA for this host (ignores XBLAS_ISA).
Isa detect_isa();

/// What active_isa() would resolve to right now: the validated XBLAS_ISA
/// override if present and available, else detect_isa(). Split out so tests
/// can exercise the env parsing without re-initializing the process-wide
/// selection.
Isa resolve_isa_from_env();

/// The process-wide selection, resolved once at first use.
Isa active_isa();

/// Force the selection (benches / tests). Returns false — and changes
/// nothing — if `isa` is not available on this host. Not safe to call
/// concurrently with running BLAS calls.
bool set_active_isa(Isa isa);

template <typename T>
inline const MicroKernel<T>& active_microkernel() {
  return *registered_microkernel<T>(active_isa());
}

/// RAII forcing of the active kernel for a scope (benches / tests). If the
/// requested ISA is unavailable the scope runs with the previous selection.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : saved_(active_isa()) { set_active_isa(isa); }
  ~ScopedIsa() { set_active_isa(saved_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa saved_;
};

}  // namespace conflux::xblas
