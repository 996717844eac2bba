// Dense row-major matrices and non-owning strided views.
//
// The whole repository works in terms of these types: the from-scratch BLAS
// (src/blas) operates on views, the simulator's per-rank tiles are Matrix
// objects, and examples exchange Matrix values with the factorization API.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace conflux {

using index_t = std::ptrdiff_t;

template <typename T>
class MatrixView;
template <typename T>
class ConstMatrixView;

/// Tag for Matrix's uninitialized-storage constructor.
struct Uninitialized {};
inline constexpr Uninitialized uninitialized{};

/// std::allocator whose value-less construct() default-initializes: for a
/// scalar T the elements are left unwritten, so a fresh large buffer stays
/// untouched (no page is faulted in) until its first real write.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

/// Owning dense matrix, row-major, contiguous (leading dimension == cols).
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(index_t rows, index_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(checked_count(rows, cols), fill) {}

  /// Storage with indeterminate contents. Only for a buffer that a parallel
  /// pass writes in full before anything reads it: the pass's workers then
  /// fault the pages in (first touch), instead of a serial zero-fill.
  Matrix(index_t rows, index_t cols, Uninitialized)
      : rows_(rows), cols_(cols), data_(checked_count(rows, cols)) {}

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  T& operator()(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  const T& operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  MatrixView<T> view();
  ConstMatrixView<T> view() const;
  MatrixView<T> block(index_t i0, index_t j0, index_t nrows, index_t ncols);
  ConstMatrixView<T> block(index_t i0, index_t j0, index_t nrows, index_t ncols) const;

  void fill(T value) { data_.assign(data_.size(), value); }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  static std::size_t checked_count(index_t rows, index_t cols) {
    expects(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
    return static_cast<std::size_t>(rows * cols);
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<T, DefaultInitAllocator<T>> data_;
};

/// Non-owning mutable view with an explicit leading dimension (row stride).
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    CONFLUX_CHECK(rows >= 0 && cols >= 0 && ld >= cols, "invalid view geometry");
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }

  T& operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i * ld_ + j)];
  }

  T* data() const { return data_; }
  T* row(index_t i) const { return data_ + i * ld_; }

  MatrixView block(index_t i0, index_t j0, index_t nrows, index_t ncols) const {
    CONFLUX_CHECK(i0 >= 0 && j0 >= 0 && i0 + nrows <= rows_ && j0 + ncols <= cols_,
                  "block out of range");
    return MatrixView(data_ + i0 * ld_ + j0, nrows, ncols, ld_);
  }

  operator ConstMatrixView<T>() const;

 private:
  T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// Non-owning read-only view.
template <typename T>
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    CONFLUX_CHECK(rows >= 0 && cols >= 0 && ld >= cols, "invalid view geometry");
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }

  const T& operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i * ld_ + j)];
  }

  const T* data() const { return data_; }
  const T* row(index_t i) const { return data_ + i * ld_; }

  ConstMatrixView block(index_t i0, index_t j0, index_t nrows, index_t ncols) const {
    CONFLUX_CHECK(i0 >= 0 && j0 >= 0 && i0 + nrows <= rows_ && j0 + ncols <= cols_,
                  "block out of range");
    return ConstMatrixView(data_ + i0 * ld_ + j0, nrows, ncols, ld_);
  }

 private:
  const T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

template <typename T>
MatrixView<T>::operator ConstMatrixView<T>() const {
  return ConstMatrixView<T>(data_, rows_, cols_, ld_);
}

template <typename T>
MatrixView<T> Matrix<T>::view() {
  return MatrixView<T>(data(), rows_, cols_, cols_);
}

template <typename T>
ConstMatrixView<T> Matrix<T>::view() const {
  return ConstMatrixView<T>(data(), rows_, cols_, cols_);
}

template <typename T>
MatrixView<T> Matrix<T>::block(index_t i0, index_t j0, index_t nrows, index_t ncols) {
  return view().block(i0, j0, nrows, ncols);
}

template <typename T>
ConstMatrixView<T> Matrix<T>::block(index_t i0, index_t j0, index_t nrows,
                                    index_t ncols) const {
  return view().block(i0, j0, nrows, ncols);
}

/// Copy the contents of src into dst; shapes must match.
template <typename T>
void copy(ConstMatrixView<T> src, MatrixView<T> dst) {
  expects(src.rows() == dst.rows() && src.cols() == dst.cols(),
          "copy requires matching shapes");
  for (index_t i = 0; i < src.rows(); ++i) {
    for (index_t j = 0; j < src.cols(); ++j) dst(i, j) = src(i, j);
  }
}

/// Convert src into dst element by element (value-preserving widening, or
/// round-to-nearest narrowing); shapes must match. The mixed-precision
/// drivers use this to move panels between the fp32 factors and the fp64
/// refinement iterate.
template <typename S, typename D>
void convert(ConstMatrixView<S> src, MatrixView<D> dst) {
  expects(src.rows() == dst.rows() && src.cols() == dst.cols(),
          "convert requires matching shapes");
  for (index_t i = 0; i < src.rows(); ++i) {
    const S* s = src.row(i);
    D* d = dst.row(i);
    for (index_t j = 0; j < src.cols(); ++j) d[j] = static_cast<D>(s[j]);
  }
}

using MatrixD = Matrix<double>;
using ViewD = MatrixView<double>;
using ConstViewD = ConstMatrixView<double>;

using MatrixF = Matrix<float>;
using ViewF = MatrixView<float>;
using ConstViewF = ConstMatrixView<float>;

}  // namespace conflux
