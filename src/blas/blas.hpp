// From-scratch level-3 BLAS substrate used everywhere MKL was used in the
// paper. gemm is a BLIS-style packed, register-tiled implementation whose
// parallel loops run on the task pool (src/sched/taskpool.hpp); trsm/syrk/gemmt are blocked algorithms that confine
// O(db^3) work to small diagonal blocks and push all panel updates through
// gemm. Cache/block sizes are runtime-tunable via xblas::tuning()
// (src/blas/tuning.hpp; XBLAS_* environment overrides). Multi-threaded
// results are bitwise identical to single-threaded ones: threads partition
// the output, never a reduction.
//
// Every routine is a template over the scalar type (instantiated for float
// and double in the .cpp files — the schedules are precision-agnostic, so
// the whole stack is). The scalar parameters are non-deduced
// (std::type_identity_t), and the inline concrete overloads below let the
// pervasive existing call sites — which pass mutable views and double
// literals — keep compiling unchanged: template argument deduction never
// sees a MatrixView-to-ConstMatrixView conversion.
//
// All routines operate on row-major views. Conventions follow the BLAS:
//   gemm   C = alpha*op(A)*op(B) + beta*C
//   trsm   solve op(T)*X = alpha*B (Side::Left) or X*op(T) = alpha*B (Right),
//          overwriting B with X
//   syrk   C = alpha*A*A^T + beta*C, only the Uplo triangle referenced
//   gemmt  C = alpha*A*B + beta*C, only the Uplo triangle updated — this is
//          the "triangular gemm" the paper's Table 1 uses for the Cholesky
//          A11 (Schur complement) update.
#pragma once

#include <type_traits>

#include "tensor/matrix.hpp"

namespace conflux::xblas {

enum class Trans { None, Transpose };
enum class Side { Left, Right };
enum class UpLo { Lower, Upper };
enum class Diag { NonUnit, Unit };

/// General matrix-matrix multiply, cache-blocked.
template <typename T>
void gemm(Trans transa, Trans transb, std::type_identity_t<T> alpha,
          ConstMatrixView<T> a, ConstMatrixView<T> b,
          std::type_identity_t<T> beta, MatrixView<T> c);

/// Triangular solve with multiple right-hand sides (in-place in b).
template <typename T>
void trsm(Side side, UpLo uplo, Trans trans, Diag diag,
          std::type_identity_t<T> alpha, ConstMatrixView<T> t, MatrixView<T> b);

/// Symmetric rank-k update; only the `uplo` triangle of c is referenced.
template <typename T>
void syrk(UpLo uplo, Trans trans, std::type_identity_t<T> alpha,
          ConstMatrixView<T> a, std::type_identity_t<T> beta, MatrixView<T> c);

/// gemm restricted to the `uplo` triangle of the output.
template <typename T>
void gemmt(UpLo uplo, Trans transa, Trans transb, std::type_identity_t<T> alpha,
           ConstMatrixView<T> a, ConstMatrixView<T> b,
           std::type_identity_t<T> beta, MatrixView<T> c);

/// Triangular matrix-vector solve op(T) x = b, x overwrites b (length view).
template <typename T>
void trsv(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> t, T* b);

/// Frobenius norm (accumulated in double for either precision).
template <typename T>
double norm_frobenius(ConstMatrixView<T> a);

/// Max-abs-entry norm.
template <typename T>
double norm_max(ConstMatrixView<T> a);

// ---- concrete-type overloads ----------------------------------------------
// Deduction helpers: existing (and most new) call sites pass MatrixView where
// ConstMatrixView is expected, which template deduction cannot bridge. These
// exact-type overloads accept the conversion and forward to the templates.

inline void gemm(Trans transa, Trans transb, double alpha, ConstViewD a,
                 ConstViewD b, double beta, ViewD c) {
  gemm<double>(transa, transb, alpha, a, b, beta, c);
}
inline void gemm(Trans transa, Trans transb, float alpha, ConstViewF a,
                 ConstViewF b, float beta, ViewF c) {
  gemm<float>(transa, transb, alpha, a, b, beta, c);
}

inline void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
                 ConstViewD t, ViewD b) {
  trsm<double>(side, uplo, trans, diag, alpha, t, b);
}
inline void trsm(Side side, UpLo uplo, Trans trans, Diag diag, float alpha,
                 ConstViewF t, ViewF b) {
  trsm<float>(side, uplo, trans, diag, alpha, t, b);
}

inline void syrk(UpLo uplo, Trans trans, double alpha, ConstViewD a, double beta,
                 ViewD c) {
  syrk<double>(uplo, trans, alpha, a, beta, c);
}
inline void syrk(UpLo uplo, Trans trans, float alpha, ConstViewF a, float beta,
                 ViewF c) {
  syrk<float>(uplo, trans, alpha, a, beta, c);
}

inline void gemmt(UpLo uplo, Trans transa, Trans transb, double alpha,
                  ConstViewD a, ConstViewD b, double beta, ViewD c) {
  gemmt<double>(uplo, transa, transb, alpha, a, b, beta, c);
}
inline void gemmt(UpLo uplo, Trans transa, Trans transb, float alpha,
                  ConstViewF a, ConstViewF b, float beta, ViewF c) {
  gemmt<float>(uplo, transa, transb, alpha, a, b, beta, c);
}

inline void trsv(UpLo uplo, Trans trans, Diag diag, ConstViewD t, double* b) {
  trsv<double>(uplo, trans, diag, t, b);
}
inline void trsv(UpLo uplo, Trans trans, Diag diag, ConstViewF t, float* b) {
  trsv<float>(uplo, trans, diag, t, b);
}

inline double norm_frobenius(ConstViewD a) { return norm_frobenius<double>(a); }
inline double norm_frobenius(ConstViewF a) { return norm_frobenius<float>(a); }
inline double norm_max(ConstViewD a) { return norm_max<double>(a); }
inline double norm_max(ConstViewF a) { return norm_max<float>(a); }

/// Number of fused multiply-add flop pairs (counted as 2 flops each) a gemm
/// of these dimensions performs; used by the simulator's time model.
inline double gemm_flops(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

inline double trsm_flops(index_t m, index_t n, Side side) {
  // Left: n RHS columns, each m^2 flops; Right: m rows each n^2.
  return side == Side::Left
             ? static_cast<double>(n) * static_cast<double>(m) * static_cast<double>(m)
             : static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(n);
}

}  // namespace conflux::xblas
