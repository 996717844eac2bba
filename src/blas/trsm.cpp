// Blocked triangular solve: the triangle is processed in db x db diagonal
// blocks. Each diagonal block is solved by a small branch-free substitution
// kernel (O(db^2 n) work), and the remaining right-hand-side panel is
// updated with a rank-db gemm — so asymptotically all trsm flops run at
// gemm speed. Only the stored triangle of T is ever referenced. Templated
// over the scalar (instantiated for float and double below); the blocked
// structure is precision-agnostic, the panel gemms inherit the per-scalar
// register tile.
#include <algorithm>
#include <vector>

#include "blas/blas.hpp"
#include "blas/tuning.hpp"
#include "support/check.hpp"

namespace conflux::xblas {

namespace {

// ---- small diagonal-block kernels (unblocked substitution) ---------------
// The inner j/i loops are pure axpy/scale updates over the RHS with no
// data-dependent branches, so they auto-vectorize.

// Left, lower, no transpose: forward substitution.
template <typename T>
void trsm_lln(Diag diag, ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  for (index_t i = 0; i < m; ++i) {
    T* bi = b.row(i);
    for (index_t p = 0; p < i; ++p) {
      const T lip = t(i, p);
      const T* bp = b.row(p);
      for (index_t j = 0; j < n; ++j) bi[j] -= lip * bp[j];
    }
    if (diag == Diag::NonUnit) {
      const T inv = T{1} / t(i, i);
      for (index_t j = 0; j < n; ++j) bi[j] *= inv;
    }
  }
}

// Left, upper, no transpose: back substitution.
template <typename T>
void trsm_lun(Diag diag, ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  for (index_t i = m - 1; i >= 0; --i) {
    T* bi = b.row(i);
    for (index_t p = i + 1; p < m; ++p) {
      const T uip = t(i, p);
      const T* bp = b.row(p);
      for (index_t j = 0; j < n; ++j) bi[j] -= uip * bp[j];
    }
    if (diag == Diag::NonUnit) {
      const T inv = T{1} / t(i, i);
      for (index_t j = 0; j < n; ++j) bi[j] *= inv;
    }
  }
}

// Left, lower, transpose: L^T is upper triangular with entries t(p, i).
template <typename T>
void trsm_llt(Diag diag, ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  for (index_t i = m - 1; i >= 0; --i) {
    T* bi = b.row(i);
    for (index_t p = i + 1; p < m; ++p) {
      const T lpi = t(p, i);
      const T* bp = b.row(p);
      for (index_t j = 0; j < n; ++j) bi[j] -= lpi * bp[j];
    }
    if (diag == Diag::NonUnit) {
      const T inv = T{1} / t(i, i);
      for (index_t j = 0; j < n; ++j) bi[j] *= inv;
    }
  }
}

// Left, upper, transpose: U^T is lower triangular with entries t(p, i).
template <typename T>
void trsm_lut(Diag diag, ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  for (index_t i = 0; i < m; ++i) {
    T* bi = b.row(i);
    for (index_t p = 0; p < i; ++p) {
      const T upi = t(p, i);
      const T* bp = b.row(p);
      for (index_t j = 0; j < n; ++j) bi[j] -= upi * bp[j];
    }
    if (diag == Diag::NonUnit) {
      const T inv = T{1} / t(i, i);
      for (index_t j = 0; j < n; ++j) bi[j] *= inv;
    }
  }
}

// Right-side solves are independent per row of B, so all four kernels walk
// B row by row: every access to the B row is contiguous, which keeps a tall
// panel (e.g. potrf's n x nb L21 solve) streaming instead of striding
// column-wise through it. The transpose variants still read the triangle
// column-wise, but T is at most db x db and stays cache-resident across
// rows. Diagonal inverses are hoisted so each row does multiplies only.
// Per-scalar thread-local inverse-diagonal scratch, persisting across calls
// so per-step panel solves are allocation-free in steady state (the pool's
// workers and the master each get their own buffer, like gemm's pack
// buffers).
template <typename T>
std::vector<T>& tls_inv() {
  thread_local std::vector<T> inv;
  return inv;
}

template <typename T>
void fill_inv_diag(ConstMatrixView<T> t, std::vector<T>& inv) {
  inv.resize(static_cast<std::size_t>(t.rows()));
  for (index_t j = 0; j < t.rows(); ++j)
    inv[static_cast<std::size_t>(j)] = T{1} / t(j, j);
}

// Right, lower, no transpose: X * L = B, per row right-to-left.
template <typename T>
void trsm_rln(Diag diag, ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  std::vector<T>& inv = tls_inv<T>();
  if (diag == Diag::NonUnit) fill_inv_diag(t, inv);
  for (index_t i = 0; i < m; ++i) {
    T* bi = b.row(i);
    for (index_t j = n - 1; j >= 0; --j) {
      const T xj = (diag == Diag::NonUnit)
                       ? (bi[j] *= inv[static_cast<std::size_t>(j)])
                       : bi[j];
      const T* trow = t.row(j);
      for (index_t p = 0; p < j; ++p) bi[p] -= xj * trow[p];
    }
  }
}

// Right, upper, no transpose: X * U = B, per row left-to-right.
template <typename T>
void trsm_run(Diag diag, ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  std::vector<T>& inv = tls_inv<T>();
  if (diag == Diag::NonUnit) fill_inv_diag(t, inv);
  for (index_t i = 0; i < m; ++i) {
    T* bi = b.row(i);
    for (index_t j = 0; j < n; ++j) {
      const T xj = (diag == Diag::NonUnit)
                       ? (bi[j] *= inv[static_cast<std::size_t>(j)])
                       : bi[j];
      const T* trow = t.row(j);
      for (index_t p = j + 1; p < n; ++p) bi[p] -= xj * trow[p];
    }
  }
}

// Right, lower, transpose: X * L^T = B; L^T is upper, per row left-to-right.
template <typename T>
void trsm_rlt(Diag diag, ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  std::vector<T>& inv = tls_inv<T>();
  if (diag == Diag::NonUnit) fill_inv_diag(t, inv);
  for (index_t i = 0; i < m; ++i) {
    T* bi = b.row(i);
    for (index_t j = 0; j < n; ++j) {
      const T xj = (diag == Diag::NonUnit)
                       ? (bi[j] *= inv[static_cast<std::size_t>(j)])
                       : bi[j];
      for (index_t p = j + 1; p < n; ++p) bi[p] -= xj * t(p, j);
    }
  }
}

// Right, upper, transpose: X * U^T = B; U^T is lower, per row right-to-left.
template <typename T>
void trsm_rut(Diag diag, ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  std::vector<T>& inv = tls_inv<T>();
  if (diag == Diag::NonUnit) fill_inv_diag(t, inv);
  for (index_t i = 0; i < m; ++i) {
    T* bi = b.row(i);
    for (index_t j = n - 1; j >= 0; --j) {
      const T xj = (diag == Diag::NonUnit)
                       ? (bi[j] *= inv[static_cast<std::size_t>(j)])
                       : bi[j];
      for (index_t p = 0; p < j; ++p) bi[p] -= xj * t(p, j);
    }
  }
}

template <typename T>
void small_solve(Side side, UpLo uplo, Trans trans, Diag diag,
                 ConstMatrixView<T> t, MatrixView<T> b) {
  if (side == Side::Left) {
    if (uplo == UpLo::Lower) {
      (trans == Trans::None) ? trsm_lln(diag, t, b) : trsm_llt(diag, t, b);
    } else {
      (trans == Trans::None) ? trsm_lun(diag, t, b) : trsm_lut(diag, t, b);
    }
  } else {
    if (uplo == UpLo::Lower) {
      (trans == Trans::None) ? trsm_rln(diag, t, b) : trsm_rlt(diag, t, b);
    } else {
      (trans == Trans::None) ? trsm_run(diag, t, b) : trsm_rut(diag, t, b);
    }
  }
}

// ---- blocked drivers ------------------------------------------------------
// Right-looking: solve one db-wide diagonal block, then downdate every
// still-unsolved block of B with a single gemm against the corresponding
// off-diagonal panel of the stored triangle. The traversal direction per
// case matches the substitution order of the small kernels above.

template <typename T>
void blocked_left(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> t,
                  MatrixView<T> b, index_t db) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t nblocks = (m + db - 1) / db;
  // Forward traversal for LLN/LUT, backward for LUN/LLT.
  const bool forward =
      (uplo == UpLo::Lower) == (trans == Trans::None);
  for (index_t s = 0; s < nblocks; ++s) {
    const index_t bi = forward ? s : nblocks - 1 - s;
    const index_t k0 = bi * db;
    const index_t kb = std::min(db, m - k0);
    const index_t k1 = k0 + kb;
    MatrixView<T> bk = b.block(k0, 0, kb, n);
    small_solve<T>(Side::Left, uplo, trans, diag, t.block(k0, k0, kb, kb), bk);
    if (uplo == UpLo::Lower && trans == Trans::None && k1 < m) {
      gemm<T>(Trans::None, Trans::None, T{-1}, t.block(k1, k0, m - k1, kb), bk,
              T{1}, b.block(k1, 0, m - k1, n));
    } else if (uplo == UpLo::Upper && trans == Trans::None && k0 > 0) {
      gemm<T>(Trans::None, Trans::None, T{-1}, t.block(0, k0, k0, kb), bk, T{1},
              b.block(0, 0, k0, n));
    } else if (uplo == UpLo::Lower && trans == Trans::Transpose && k0 > 0) {
      gemm<T>(Trans::Transpose, Trans::None, T{-1}, t.block(k0, 0, kb, k0), bk,
              T{1}, b.block(0, 0, k0, n));
    } else if (uplo == UpLo::Upper && trans == Trans::Transpose && k1 < m) {
      gemm<T>(Trans::Transpose, Trans::None, T{-1}, t.block(k0, k1, kb, m - k1),
              bk, T{1}, b.block(k1, 0, m - k1, n));
    }
  }
}

template <typename T>
void blocked_right(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> t,
                   MatrixView<T> b, index_t db) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t nblocks = (n + db - 1) / db;
  // Forward traversal for RUN/RLT, backward for RLN/RUT.
  const bool forward =
      (uplo == UpLo::Upper) == (trans == Trans::None);
  for (index_t s = 0; s < nblocks; ++s) {
    const index_t bj = forward ? s : nblocks - 1 - s;
    const index_t j0 = bj * db;
    const index_t jb = std::min(db, n - j0);
    const index_t j1 = j0 + jb;
    MatrixView<T> bj_view = b.block(0, j0, m, jb);
    small_solve<T>(Side::Right, uplo, trans, diag, t.block(j0, j0, jb, jb),
                   bj_view);
    if (uplo == UpLo::Upper && trans == Trans::None && j1 < n) {
      gemm<T>(Trans::None, Trans::None, T{-1}, bj_view,
              t.block(j0, j1, jb, n - j1), T{1}, b.block(0, j1, m, n - j1));
    } else if (uplo == UpLo::Lower && trans == Trans::None && j0 > 0) {
      gemm<T>(Trans::None, Trans::None, T{-1}, bj_view, t.block(j0, 0, jb, j0),
              T{1}, b.block(0, 0, m, j0));
    } else if (uplo == UpLo::Lower && trans == Trans::Transpose && j1 < n) {
      gemm<T>(Trans::None, Trans::Transpose, T{-1}, bj_view,
              t.block(j1, j0, n - j1, jb), T{1}, b.block(0, j1, m, n - j1));
    } else if (uplo == UpLo::Upper && trans == Trans::Transpose && j0 > 0) {
      gemm<T>(Trans::None, Trans::Transpose, T{-1}, bj_view,
              t.block(0, j0, j0, jb), T{1}, b.block(0, 0, m, j0));
    }
  }
}

}  // namespace

template <typename T>
void trsm(Side side, UpLo uplo, Trans trans, Diag diag,
          std::type_identity_t<T> alpha, ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t dim = (side == Side::Left) ? b.rows() : b.cols();
  expects(t.rows() == dim && t.cols() == dim, "trsm: triangle must match B side");

  if (alpha != T{1}) {
    for (index_t i = 0; i < b.rows(); ++i) {
      T* bi = b.row(i);
      for (index_t j = 0; j < b.cols(); ++j) bi[j] *= alpha;
    }
  }
  if (b.rows() == 0 || b.cols() == 0) return;

  const index_t db = std::max<index_t>(1, tuning().db);
  if (dim <= db) {
    small_solve<T>(side, uplo, trans, diag, t, b);
  } else if (side == Side::Left) {
    blocked_left<T>(uplo, trans, diag, t, b, db);
  } else {
    blocked_right<T>(uplo, trans, diag, t, b, db);
  }
}

template <typename T>
void trsv(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> t, T* b) {
  MatrixView<T> bv(b, t.rows(), 1, 1);
  trsm<T>(Side::Left, uplo, trans, diag, T{1}, t, bv);
}

template void trsm<float>(Side, UpLo, Trans, Diag, float, ConstViewF, ViewF);
template void trsm<double>(Side, UpLo, Trans, Diag, double, ConstViewD, ViewD);
template void trsv<float>(UpLo, Trans, Diag, ConstViewF, float*);
template void trsv<double>(UpLo, Trans, Diag, ConstViewD, double*);

}  // namespace conflux::xblas
