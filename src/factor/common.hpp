// Shared infrastructure for the COnfLUX / COnfCHOX schedules: options,
// per-step cost recording (Table 1), and the row bookkeeping used by the
// row-masking pivot strategy (Section 7.3).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "grid/grid.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "tensor/matrix.hpp"
#include "xsim/machine.hpp"

namespace conflux::factor {

struct FactorOptions {
  /// Panel/block width v (Section 7.2). 0 = auto: a small multiple of the
  /// replication depth, clamped to the matrix size.
  index_t block_size = 0;
  /// Record the per-iteration cost breakdown (used by bench/table1).
  bool record_step_costs = false;
  /// Pivot-position seed for Trace mode, where the matrix values do not
  /// exist: pivots are drawn uniformly among active rows, matching the
  /// paper's "pivots evenly distributed w.h.p." assumption.
  std::uint64_t trace_pivot_seed = 42;
  /// Real-mode lookahead pipelining (DESIGN.md "Pipelined execution"):
  /// 1 = run the urgent/lazy Schur split on the persistent task pool with
  /// cross-step overlap, 0 = step-synchronous execution, -1 = follow the
  /// CONFLUX_LOOKAHEAD environment variable (off when unset). Either way
  /// the task decomposition — and therefore every factor bit — is
  /// identical; only the execution schedule changes.
  int lookahead = -1;
  /// Near-singular pivot threshold, relative to the input's max magnitude:
  /// a pivot |u_kk| < pivot_tolerance * max|A| after tournament selection
  /// flags the result kNearSingularPivot (health only — the factorization
  /// completes). 0 disables the relative check; exact zeros are always
  /// classified.
  double pivot_tolerance = 0.0;
  /// Pivot-growth limit: max|U| / max|A| beyond this flags kGrowthOverflow.
  /// 0 = auto, 1 / (8 * eps_T) — growth that wipes out all but ~3 bits of
  /// the working precision; partial pivoting keeps real inputs far below it.
  double growth_limit = 0.0;
};

/// Resolve FactorOptions::lookahead against CONFLUX_LOOKAHEAD.
bool lookahead_enabled(const FactorOptions& opt);

/// Cost categories of one outer iteration, mapped to Table 1's rows.
struct StepCosts {
  double pivoting_words = 0.0;   ///< TournPivot butterfly (LU) / none (Chol)
  double pivoting_flops = 0.0;
  double a00_words = 0.0;        ///< A00 + pivot-index broadcast
  double a00_flops = 0.0;        ///< getrf/potrf of the v x v block
  double panels_words = 0.0;     ///< A10/A01 layer reduction + 1D scatter
  double panels_flops = 0.0;     ///< the two panel trsms
  double a11_words = 0.0;        ///< 2.5D distribution of the panels
  double a11_flops = 0.0;        ///< local Schur-complement gemm/gemmt
};

/// Fraction of an 8-byte word one scalar of type T occupies. The results'
/// workspace accounting is in fp64-equivalent (8-byte) words — the same
/// unit as Workspace::words() — so an fp32 run reports half the fp64
/// footprint; both factor cores must scale element counts through this one
/// helper to stay comparable.
template <typename T>
constexpr double words_per_scalar() {
  return static_cast<double>(sizeof(T)) / static_cast<double>(sizeof(double));
}

/// Numerical-health report of one Real-mode factorization (DESIGN.md
/// "Failure model and degradation ladder"). Soft breakdowns — the factors
/// exist and are bitwise identical to an unchecked run, but their quality
/// is suspect — are recorded here rather than thrown: kSingularPivot (an
/// exactly zero pivot survived to the final step; earlier zeros throw,
/// since the panel trsm would divide by zero), kNearSingularPivot (below
/// FactorOptions::pivot_tolerance), kGrowthOverflow. Hard breakdowns
/// (non-finite values, mid-run zero pivots) throw status_error instead.
/// Detection is read-only: a healthy run's factors are bit-for-bit those
/// of a run with detection compiled out.
struct FactorHealth {
  StatusCode code = StatusCode::kOk;  ///< first (most severe) soft breakdown
  long long first_breakdown_step = -1;
  long long singular_pivots = 0;       ///< exactly zero pivots
  long long near_singular_pivots = 0;  ///< below pivot_tolerance
  double growth_factor = 0.0;          ///< max|U| / max|A| (LU only)
  double min_pivot = 0.0;              ///< smallest |u_kk| (or l_kk^2)

  bool ok() const { return code == StatusCode::kOk; }
  Status to_status() const {
    if (ok()) return Status();
    return Status(code,
                  "factorization completed with degraded factors"
                  " (min pivot " + std::to_string(min_pivot) +
                      ", growth " + std::to_string(growth_factor) + ")",
                  first_breakdown_step);
  }
};

/// LU factorization result, parameterized on the factor scalar (the
/// schedule is precision-agnostic; Real mode exists for float and double).
/// In Trace mode only `perm` (trace pivots) and the step costs are populated.
template <typename T>
struct LuResultT {
  /// Row permutation: output row i of the factored matrix corresponds to
  /// input row perm[i] (A[perm, :] = L U).
  std::vector<index_t> perm;
  /// Real mode: the in-place factors of A[perm, :] (unit-lower L below the
  /// diagonal, U on and above), exactly n x n. The run gathers them into
  /// its trailing workspace's buffer, which the result then takes over
  /// (hand_off_factors) — no separate result allocation.
  Matrix<T> factors;
  std::vector<StepCosts> step_costs;
  /// Real mode: peak resident size of the factorization's host-side data
  /// path (packed trailing workspace + factor store + scratch arena), in
  /// 8-byte words — fp32 runs report half the fp64 footprint. The per-layer
  /// dense scheme this replaced held (pz + 1) * npad^2 fp64 words.
  double workspace_words = 0.0;
  /// Real mode: soft-breakdown classification (empty/kOk in Trace mode).
  FactorHealth health;

  /// 8-byte words this handle keeps resident after the factorization
  /// returned (factor store + permutation) — what a factorization cache
  /// must budget per retained entry. Exact: the hand-off compacts a padded
  /// buffer, so `factors` holds n^2 scalars and nothing more. Distinct from
  /// workspace_words, the transient peak DURING the run.
  double resident_words() const {
    return static_cast<double>(factors.size()) * words_per_scalar<T>() +
           static_cast<double>(perm.size()) *
               (static_cast<double>(sizeof(index_t)) / sizeof(double));
  }
};

using LuResult = LuResultT<double>;
using LuResultF = LuResultT<float>;

/// Cholesky result (no pivoting).
template <typename T>
struct CholResultT {
  /// Real mode: lower-triangular L with A = L L^T (upper triangle zero),
  /// exactly n x n. This is the run's own factor buffer, taken over
  /// (hand_off_factors) rather than copied: nothing writes above its
  /// diagonal, so the set-up pass's zeros are the upper triangle.
  Matrix<T> factors;
  std::vector<StepCosts> step_costs;
  /// Real mode: peak resident 8-byte words of the data path (see LuResultT).
  double workspace_words = 0.0;
  /// Real mode: soft-breakdown classification (see LuResultT).
  FactorHealth health;

  /// Resident 8-byte words of the retained handle (see LuResultT).
  double resident_words() const {
    return static_cast<double>(factors.size()) * words_per_scalar<T>();
  }
};

using CholResult = CholResultT<double>;
using CholResultF = CholResultT<float>;

/// Read-only magnitude scan, accumulated over contiguous runs of values:
/// max |x| and whether every value was finite. Max is exact, so chunk scans
/// merged in any order reproduce a serial scan bitwise; parallel passes
/// keep one scan per chunk and merge them on the calling thread.
struct MagnitudeScan {
  double amax = 0.0;
  bool finite = true;

  template <typename T>
  void add(const T* x, index_t count) {
    for (index_t j = 0; j < count; ++j) {
      const double d = std::abs(static_cast<double>(x[j]));
      if (!std::isfinite(d)) finite = false;
      if (d > amax) amax = d;
    }
  }
  void merge(const MagnitudeScan& other) {
    finite = finite && other.finite;
    if (other.amax > amax) amax = other.amax;
  }
};

/// Parallel first-touch set-up of a factor core's packed workspace
/// (DESIGN.md "Packed trailing workspace"): one TaskPool::parallel_for over
/// kRowBlock row blocks writes every element of the npad x npad `w` — the
/// n x n input `a` (only its lower triangle when `lower`), zeros elsewhere,
/// and 1 on the padding diagonal — and zero-fills `zero` (same shape;
/// optional) in the same pass. `w` and `zero` are allocated uninitialized
/// unless they already have that shape, so the pool's workers are the first
/// to touch their pages. Each block scans its copied input for non-finite
/// values and keeps its own max|a|; the calling thread reduces the block
/// maxima (max is exact, so the result does not depend on the width) and
/// returns max|a|, or throws kNonFinite after the loop — never from inside
/// the pool. The caller's `a` is only read.
template <typename T>
double fill_workspace(ConstMatrixView<T> a, index_t npad, bool lower,
                      Matrix<T>& w, Matrix<T>* zero = nullptr);

/// Hand a finished factor buffer (its leading n x n block holds the
/// factors) to a result: moved as is when it is already n x n, otherwise
/// compacted into an exact n x n matrix by a parallel row-block copy, so
/// the result keeps exactly the n^2 scalars resident_words() reports.
template <typename T>
Matrix<T> hand_off_factors(Matrix<T>&& buf, index_t n);

/// Pick the block size: v = a * c for a small constant a (Section 7.2 uses
/// hardware-tuned multiples; we default to the largest of 2c and 64, rounded
/// to a multiple of c and clamped to n).
index_t default_block_size(index_t n, const grid::Grid3D& g);

/// Active-row bookkeeping for row masking. Rows are never moved; choosing a
/// row as a pivot eliminates it from the active set.
class RowTracker {
 public:
  RowTracker(index_t num_rows, index_t block, int px);

  index_t active_count() const { return static_cast<index_t>(active_.size()); }
  const std::vector<index_t>& active_rows() const { return active_; }
  bool is_active(index_t row) const { return !eliminated_[static_cast<std::size_t>(row)]; }

  /// Number of active rows whose tile row maps to grid column x.
  index_t count_for_x(int x) const { return counts_x_[static_cast<std::size_t>(x)]; }

  /// Active rows owned by grid x (ascending global order).
  std::vector<index_t> rows_for_x(int x) const;

  /// As rows_for_x, but filling a caller-owned buffer (clear + push_back):
  /// with a reserved buffer this is allocation-free, which is what lets the
  /// per-step tournament gathers run out of per-run scratch (DESIGN.md).
  void rows_for_x_into(int x, std::vector<index_t>& out) const;

  /// Eliminate the given rows (they become this step's pivots).
  void eliminate(const std::vector<index_t>& rows);

  /// Draw `count` distinct active rows uniformly (Trace-mode pivots).
  std::vector<index_t> sample_active(index_t count, Rng& rng) const;

  int x_of_row(index_t row) const {
    return static_cast<int>((row / block_) % static_cast<index_t>(px_));
  }

 private:
  index_t block_;
  int px_;
  std::vector<bool> eliminated_;
  std::vector<index_t> active_;  // sorted ascending
  std::vector<index_t> counts_x_;
};

/// Lazily-filled cache of grid communicator lines, keyed (a, b) over an
/// a_dim x b_dim index space. The schedules cycle through a bounded set of
/// z-lines / x-lines every step; caching them keeps the charge path free
/// of per-step allocations (the zero-steady-state-allocation guarantee
/// asserted in packed_factor_test). Lines are never empty, so an empty
/// entry means "not fetched yet".
class GridLineCache {
 public:
  GridLineCache() = default;
  GridLineCache(int a_dim, int b_dim)
      : b_dim_(b_dim),
        lines_(static_cast<std::size_t>(a_dim) * static_cast<std::size_t>(b_dim)) {}

  template <typename Fetch>
  const std::vector<int>& get(int a, int b, Fetch&& fetch) {
    auto& e = lines_[static_cast<std::size_t>(a) * static_cast<std::size_t>(b_dim_) +
                     static_cast<std::size_t>(b)];
    if (e.empty()) e = fetch(a, b);
    return e;
  }

 private:
  int b_dim_ = 1;
  std::vector<std::vector<int>> lines_;
};

/// Approximate peer count for the latency term of an aggregated charge:
/// `items` pieces spread over at most `peers` partners (DESIGN.md
/// "approx_msgs"; only the alpha cost, never the volume, depends on it).
inline long long approx_msgs(index_t items, int peers) {
  return std::min<long long>(static_cast<long long>(std::max<index_t>(items, 0)),
                             static_cast<long long>(peers));
}

/// Balanced 1D split of `total` items over `parts` chunks: chunk r covers
/// [offset(r), offset(r+1)).
index_t chunk_offset(index_t total, int parts, int r);
inline index_t chunk_size(index_t total, int parts, int r) {
  return chunk_offset(total, parts, r + 1) - chunk_offset(total, parts, r);
}

/// Snapshot-based recorder: measures machine-total word/flop deltas around
/// each phase and attributes them to a StepCosts field.
class StepCostRecorder {
 public:
  StepCostRecorder(xsim::Machine& m, bool enabled) : m_(m), enabled_(enabled) {}

  void begin_iteration() {
    if (enabled_) current_ = StepCosts{};
  }
  void end_iteration(std::vector<StepCosts>& out) {
    if (enabled_) out.push_back(current_);
  }

  /// Run `phase` and attribute its cost deltas to the given fields. All
  /// words are counted as received words (each transfer counted once).
  template <typename Phase>
  void measure(double StepCosts::* words_field, double StepCosts::* flops_field,
               Phase&& phase) {
    if (!enabled_) {
      phase();
      return;
    }
    const double w0 = m_.total_words_received();
    const double f0 = m_.total_flops();
    phase();
    current_.*words_field += m_.total_words_received() - w0;
    current_.*flops_field += m_.total_flops() - f0;
  }

 private:
  xsim::Machine& m_;
  bool enabled_;
  StepCosts current_;
};

}  // namespace conflux::factor
