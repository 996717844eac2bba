#include "factor/common.hpp"

#include <algorithm>
#include <set>

#include "sched/rank_parallel.hpp"
#include "support/check.hpp"

namespace conflux::factor {

index_t default_block_size(index_t n, const grid::Grid3D& g) {
  const auto c = static_cast<index_t>(g.pz());
  index_t v = std::max<index_t>(2 * c, 64);
  v = (v / c) * c;  // keep v a multiple of c for the k-slice split
  if (v > n) {
    // Tiny matrices: one block, still a multiple of c via padding upstream.
    v = ((n + c - 1) / c) * c;
  }
  return std::max<index_t>(v, c);
}

RowTracker::RowTracker(index_t num_rows, index_t block, int px)
    : block_(block), px_(px) {
  expects(num_rows >= 0 && block >= 1 && px >= 1, "bad tracker shape");
  eliminated_.assign(static_cast<std::size_t>(num_rows), false);
  active_.resize(static_cast<std::size_t>(num_rows));
  for (index_t r = 0; r < num_rows; ++r) active_[static_cast<std::size_t>(r)] = r;
  counts_x_.assign(static_cast<std::size_t>(px), 0);
  for (index_t r = 0; r < num_rows; ++r) {
    ++counts_x_[static_cast<std::size_t>(x_of_row(r))];
  }
}

std::vector<index_t> RowTracker::rows_for_x(int x) const {
  std::vector<index_t> out;
  out.reserve(static_cast<std::size_t>(count_for_x(x)));
  for (index_t r : active_) {
    if (x_of_row(r) == x) out.push_back(r);
  }
  return out;
}

void RowTracker::rows_for_x_into(int x, std::vector<index_t>& out) const {
  out.clear();
  for (index_t r : active_) {
    if (x_of_row(r) == x) out.push_back(r);
  }
}

void RowTracker::eliminate(const std::vector<index_t>& rows) {
  for (index_t r : rows) {
    expects(r >= 0 && r < static_cast<index_t>(eliminated_.size()), "row out of range");
    expects(!eliminated_[static_cast<std::size_t>(r)], "row eliminated twice");
    eliminated_[static_cast<std::size_t>(r)] = true;
    --counts_x_[static_cast<std::size_t>(x_of_row(r))];
  }
  std::erase_if(active_, [&](index_t r) {
    return eliminated_[static_cast<std::size_t>(r)];
  });
}

std::vector<index_t> RowTracker::sample_active(index_t count, Rng& rng) const {
  expects(count <= active_count(), "cannot sample more rows than are active");
  std::vector<index_t> out;
  out.reserve(static_cast<std::size_t>(count));
  if (count * 4 < active_count()) {
    // Sparse draw: rejection sampling avoids copying the whole active set
    // (Trace runs at N = 2^19 sample v rows out of hundreds of thousands).
    std::set<index_t> seen;
    while (static_cast<index_t>(seen.size()) < count) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(active_.size())));
      seen.insert(active_[idx]);
    }
    out.assign(seen.begin(), seen.end());
    return out;
  }
  // Dense draw: partial Fisher-Yates on a copy.
  std::vector<index_t> pool = active_;
  for (index_t k = 0; k < count; ++k) {
    const auto pick =
        k + static_cast<index_t>(rng.uniform_int(static_cast<std::uint64_t>(
                static_cast<std::size_t>(active_count() - k))));
    std::swap(pool[static_cast<std::size_t>(k)], pool[static_cast<std::size_t>(pick)]);
    out.push_back(pool[static_cast<std::size_t>(k)]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

index_t chunk_offset(index_t total, int parts, int r) {
  expects(total >= 0 && parts >= 1 && r >= 0 && r <= parts, "bad chunk split");
  return total * static_cast<index_t>(r) / static_cast<index_t>(parts);
}

template <typename T>
double fill_workspace(ConstMatrixView<T> a, index_t npad, bool lower,
                      Matrix<T>& w, Matrix<T>* zero) {
  const index_t n = a.rows();
  expects(a.cols() == n && npad >= n, "workspace must cover the square input");
  const auto reshape = [npad](Matrix<T>& m) {
    if (m.rows() == npad && m.cols() == npad) return;
    m = Matrix<T>();  // release first: the old and new buffers never coexist
    m = Matrix<T>(npad, npad, uninitialized);
  };
  reshape(w);
  if (zero != nullptr) reshape(*zero);
  // One scan per row block, each written only by that block's task.
  std::vector<MagnitudeScan> scans(
      static_cast<std::size_t>(sched::num_row_blocks(npad)));
  sched::parallel_rows(npad, [&](index_t i) {
    T* row = w.data() + i * npad;
    index_t copied = 0;
    if (i < n) {
      copied = lower ? i + 1 : n;
      std::copy(a.row(i), a.row(i) + copied, row);
      scans[static_cast<std::size_t>(i / sched::kRowBlock)].add(a.row(i), copied);
    }
    std::fill(row + copied, row + npad, T{});
    if (i >= n) row[i] = T{1};
    if (zero != nullptr) {
      T* zrow = zero->data() + i * npad;
      std::fill(zrow, zrow + npad, T{});
    }
  });
  MagnitudeScan total;
  for (const MagnitudeScan& s : scans) total.merge(s);
  if (!total.finite) {
    throw status_error(
        Status(StatusCode::kNonFinite, "input matrix contains a non-finite value"));
  }
  return total.amax;
}

template <typename T>
Matrix<T> hand_off_factors(Matrix<T>&& buf, index_t n) {
  expects(buf.rows() >= n && buf.cols() >= n, "factor buffer smaller than n");
  Matrix<T> out;
  if (buf.rows() == n && buf.cols() == n) {
    out = std::move(buf);
  } else {
    out = Matrix<T>(n, n, uninitialized);
    sched::parallel_rows(n, [&](index_t i) {
      const T* src = buf.data() + i * buf.cols();
      std::copy(src, src + n, out.data() + i * n);
    });
  }
  buf = Matrix<T>();
  return out;
}

template double fill_workspace<float>(ConstMatrixView<float>, index_t, bool,
                                      Matrix<float>&, Matrix<float>*);
template double fill_workspace<double>(ConstMatrixView<double>, index_t, bool,
                                       Matrix<double>&, Matrix<double>*);
template Matrix<float> hand_off_factors<float>(Matrix<float>&&, index_t);
template Matrix<double> hand_off_factors<double>(Matrix<double>&&, index_t);

}  // namespace conflux::factor
