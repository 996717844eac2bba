#include "factor/confchox.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>

#include "blas/blas.hpp"
#include "blas/lapack.hpp"
#include "recover/abft.hpp"
#include "recover/options.hpp"
#include "recover/snapshot.hpp"
#include "sched/rank_parallel.hpp"
#include "sched/taskpool.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "tensor/workspace.hpp"
#include "xsim/comm.hpp"

namespace conflux::factor {

namespace {

using xblas::Diag;
using xblas::Side;
using xblas::Trans;
using xblas::UpLo;

// Measured data movement (DESIGN.md "Observability"); same counter names
// as conflux_lu.cpp — registration is idempotent by name, so both factor
// cores feed one per-phase taxonomy. Read-only on the data path.
const metrics::Counter g_dm_panel_gather("dm.panel_gather.bytes");
const metrics::Counter g_dm_panel_solve("dm.panel_solve.bytes");
const metrics::Counter g_dm_schur_operand("dm.schur_operand.bytes");
const metrics::Counter g_dm_schur_update("dm.schur_update.bytes");

// Recovery counters (DESIGN.md "Recovery model"); shared by name with
// conflux_lu.cpp so both factor cores feed one recover.* ledger.
const metrics::Counter g_ckpt_seconds("recover.ckpt.seconds");
const metrics::Counter g_ckpt_restores("recover.ckpt.restores");
const metrics::Counter g_abft_verified("recover.abft.verified");
const metrics::Counter g_abft_detected("recover.abft.detected");
const metrics::Counter g_abft_reexec("recover.abft.reexec");

/// ABFT re-execution budget per run (see conflux_lu.cpp).
constexpr int kMaxAbftReexecs = 8;

/// Workspace slot ids (tensor/workspace.hpp arena).
enum WsSlot : std::size_t { kA00 = 0 };

/// The whole mutable state of one factorization run, templated on the
/// factor scalar.
///
/// Real-mode data path (DESIGN.md "Packed trailing workspace"): ONE
/// npad x npad buffer `fac` is both the trailing accumulator and the factor
/// store. Cholesky retires rows and columns in natural order, so the live
/// trailing workspace at step t is simply the block (t*v.., t*v..) — already
/// contiguous, no row index map needed — and everything to its left IS the
/// finished factor: the panel trsm solves in place and its output never
/// moves again. The pz layered partial sums of the simulated machine are
/// realized inside gemm/syrk's fixed k-order (one beta=1 update with k = v
/// accumulates the k-slices in ascending z), so per-layer buffers never
/// exist.
///
/// Execution (DESIGN.md "Pipelined execution"): each fixed kRowBlock row
/// block of the symmetric Schur update is split into an URGENT piece (its
/// contribution to the next panel — tile column t+1) and a LAZY remainder.
/// The decomposition is identical in both execution modes (bitwise-equal
/// factors); with lookahead the pieces run on the persistent TaskPool with
/// explicit dependencies (urgent/lazy after this step's panel trsm chunks
/// and the previous lazy remainder), so step t+1's potrf and panel solve
/// overlap step t's trailing update.
template <typename T>
struct CholRun {
  xsim::Machine& m;
  const grid::Grid3D& g;
  index_t n = 0;
  index_t npad = 0;
  index_t v = 0;
  index_t num_tiles = 0;
  bool real = false;
  bool la = false;
  std::vector<int> all_ranks;
  Matrix<T> fac;  // trailing accumulator left of the frontier, factor right
  Workspace ws;

  // Lookahead task handles (empty when la == false).
  std::vector<sched::TaskId> trsm_ids, urgent_ids, lazy_ids;
  std::vector<sched::TaskId> dep_scratch;

  // Breakdown monitoring (DESIGN.md "Failure model"; read-only on the data
  // path). Cholesky has no element growth, so only the input magnitude, the
  // diagonal pivots l_kk^2, and non-finite contamination are tracked; a
  // failed potrf is always a hard breakdown (the panel solve needs the full
  // factored diagonal block).
  double amax = 0.0;
  double pivot_tol = 0.0;
  FactorHealth health;

  // ABFT checksum state (DESIGN.md "Recovery model"): abft_sum[r] is the
  // PREDICTED sum of global row r's live lower-triangle cells, columns
  // [t*v, r], kept in double regardless of T. Cholesky never moves rows, so
  // the vector is indexed by global row and entries simply fall out of use
  // as the frontier passes them. Verification is read-only: healthy factors
  // are bitwise identical with ABFT on or off.
  bool abft = false;
  std::vector<double> abft_sum;    // predicted live row sums, global rows
  std::vector<double> abft_panel;  // this step's panel row sums, pre-trsm
  std::vector<double> abft_cum;    // prefix column-sum scratch, length v

  // Grid-line cache (common.hpp): at most px*py z-lines, fetched once each.
  GridLineCache zlines;

  CholRun(xsim::Machine& machine, const grid::Grid3D& grid, index_t size,
          index_t block)
      : m(machine), g(grid), n(size), v(block) {
    npad = (n + v - 1) / v * v;
    num_tiles = npad / v;
    real = m.real();
    all_ranks = g.all();
    zlines = GridLineCache(g.px(), g.py());
  }

  const std::vector<int>& z_line(int x, int y) {
    return zlines.get(x, y, [this](int a, int b) { return g.z_line(a, b); });
  }

  /// Active rows (>= tile `first`) whose tile row has grid residue q mod dim.
  index_t rows_with_residue(index_t first, int q, int dim) const {
    return grid::cyclic_local_count(first, num_tiles, q, dim) * v;
  }
};

long long approx_msgs(index_t items, int peers) {
  return std::min<long long>(static_cast<long long>(std::max<index_t>(items, 0)),
                             static_cast<long long>(peers));
}

// ---------------------------------------------------------------------------
// Checkpoint/restart (DESIGN.md "Recovery model"). Cholesky's entire mutable
// state is the one `fac` buffer plus the scalar trackers — rows never move,
// so unlike LU there are no maps or elimination records to capture, and the
// snapshot is the buffer in bulk at a drained step boundary. Restoring it
// and re-executing the remaining steps is bitwise identical to the
// uninterrupted run.
// ---------------------------------------------------------------------------

template <typename T>
recover::SnapshotKey chol_snapshot_key(const CholRun<T>& run) {
  recover::SnapshotKey key;
  key.kind = recover::FactorKind::kCholesky;
  key.scalar = sizeof(T) == sizeof(double) ? 'd' : 'f';
  key.n = static_cast<std::int64_t>(run.n);
  key.v = static_cast<std::int64_t>(run.v);
  key.px = run.g.px();
  key.py = run.g.py();
  key.pz = run.g.pz();
  return key;
}

template <typename T>
void save_chol_snapshot(CholRun<T>& run, index_t t) {
  recover::SnapshotWriter w(chol_snapshot_key(run),
                            static_cast<std::int64_t>(t));
  // Step 0 is a pure function of the input the resume entry point is handed
  // anyway: an empty marker proves resumability without serializing the
  // matrix (see save_lu_snapshot).
  if (t == 0) {
    recover::store_blob(chol_snapshot_key(run), std::move(w).seal());
    return;
  }
  w.put_f64(run.amax);
  w.put_i64(static_cast<std::int64_t>(run.health.code));
  w.put_i64(run.health.first_breakdown_step);
  w.put_i64(run.health.singular_pivots);
  w.put_i64(run.health.near_singular_pivots);
  w.put_f64(run.health.growth_factor);
  w.put_f64(run.health.min_pivot);
  // Only the lower triangle (diagonal included): init_state never fills the
  // strict upper triangle and no phase of the factorization reads or writes
  // it, so restoring the lower rows onto a freshly initialized `fac` is
  // bitwise complete — at half the serialization volume.
  for (index_t r = 0; r < run.npad; ++r) {
    w.put_bytes(&run.fac(r, 0), static_cast<std::size_t>(r + 1) * sizeof(T));
  }
  recover::store_blob(chol_snapshot_key(run), std::move(w).seal());
}

/// Restore the latest snapshot into `run` (whose `fac` was freshly
/// initialized from the input — the strict upper triangle is NOT in the
/// payload) and return the step to resume from; a corrupt or inconsistent
/// snapshot throws kCheckpointInvalid.
template <typename T>
index_t restore_chol_snapshot(CholRun<T>& run) {
  const recover::SnapshotKey key = chol_snapshot_key(run);
  const auto bad = [](const std::string& what) {
    throw status_error(Status(StatusCode::kCheckpointInvalid, what));
  };
  const recover::Blob blob = recover::latest_blob(key);
  if (blob.empty()) bad("no checkpoint to resume " + key.to_string() + " from");
  recover::SnapshotReader r(key, blob);
  const auto t = static_cast<index_t>(r.step());
  if (t >= run.num_tiles) bad("snapshot step past the end of the schedule");
  // A step-0 snapshot is an empty marker: the caller re-derives the state
  // from the input (see restore_lu_snapshot).
  if (t == 0) {
    if (r.remaining() != 0) bad("step-0 snapshot must be an empty marker");
    return 0;
  }
  run.amax = r.get_f64();
  const auto code = static_cast<StatusCode>(r.get_i64());
  // kNearSingularPivot is the only soft breakdown Cholesky ever records
  // (everything else is a hard throw that leaves no snapshot behind).
  if (code != StatusCode::kOk && code != StatusCode::kNearSingularPivot) {
    bad("snapshot health carries a code no factorization records");
  }
  run.health.code = code;
  run.health.first_breakdown_step = r.get_i64();
  run.health.singular_pivots = r.get_i64();
  run.health.near_singular_pivots = r.get_i64();
  run.health.growth_factor = r.get_f64();
  run.health.min_pivot = r.get_f64();
  for (index_t row = 0; row < run.npad; ++row) {
    r.get_bytes(&run.fac(row, 0), static_cast<std::size_t>(row + 1) * sizeof(T));
  }
  return t;
}

// ---------------------------------------------------------------------------
// ABFT maintenance. Invariant at the top of step t: abft_sum[r] equals the
// sum of fac(r, t*v .. r) — row r's live lower-triangle cells — up to the
// rounding drift between the double-precision prediction and the
// T-precision Schur arithmetic. One step advances it as
//   sum_{t+1}[r] = sum_t[r] - panel_t[r] - sum_{j in [off, r]} L(r,:)·L(j,:)
// where panel_t[r] is the pre-trsm panel row sum (those v columns leave the
// live region) and the last term is the symmetric Schur update restricted
// to row sums. Factoring out L(r,k) turns it into one dot with a running
// prefix of the panel's column sums — O(panel_rows * v), same as LU.
// ---------------------------------------------------------------------------

template <typename T>
void init_chol_abft(CholRun<T>& run, index_t t) {
  run.abft_sum.assign(static_cast<std::size_t>(run.npad), 0.0);
  run.abft_panel.assign(static_cast<std::size_t>(run.npad), 0.0);
  run.abft_cum.assign(static_cast<std::size_t>(run.v), 0.0);
  const index_t col0 = t * run.v;
  for (index_t r = col0; r < run.npad; ++r) {
    double s = 0.0;
    for (index_t j = col0; j <= r; ++j) {
      s += static_cast<double>(run.fac(r, j));
    }
    run.abft_sum[static_cast<std::size_t>(r)] = s;
  }
}

template <typename T>
void capture_chol_abft_panel(CholRun<T>& run, index_t t) {
  const index_t col0 = t * run.v;
  for (index_t r = col0 + run.v; r < run.npad; ++r) {
    const T* row = &run.fac(r, col0);
    double s = 0.0;
    for (index_t j = 0; j < run.v; ++j) s += static_cast<double>(row[j]);
    run.abft_panel[static_cast<std::size_t>(r)] = s;
  }
}

/// Roll the predicted sums forward across this step's Schur update. Must run
/// after the panel trsm (the panel columns now hold the solved L10 values).
template <typename T>
void apply_chol_abft_update(CholRun<T>& run, index_t t, index_t panel_rows) {
  const index_t off = (t + 1) * run.v;
  std::fill(run.abft_cum.begin(), run.abft_cum.end(), 0.0);
  for (index_t p = 0; p < panel_rows; ++p) {
    const T* lrow = &run.fac(off + p, t * run.v);
    double upd = 0.0;
    for (index_t k = 0; k < run.v; ++k) {
      const double lv = static_cast<double>(lrow[k]);
      // The prefix includes row p itself: the diagonal cell fac(r, r) is
      // part of the live lower triangle.
      run.abft_cum[static_cast<std::size_t>(k)] += lv;
      upd += lv * run.abft_cum[static_cast<std::size_t>(k)];
    }
    run.abft_sum[static_cast<std::size_t>(off + p)] -=
        run.abft_panel[static_cast<std::size_t>(off + p)] + upd;
  }
}

/// One row's verification scan; unrolled accumulators as in conflux_lu.cpp's
/// abft_row_ok (the comparison is tolerance-based, never bitwise).
template <typename T>
bool chol_abft_row_ok(const T* row, index_t width, double predicted) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  index_t j = 0;
  for (; j + 4 <= width; j += 4) {
    const double x0 = static_cast<double>(row[j]);
    const double x1 = static_cast<double>(row[j + 1]);
    const double x2 = static_cast<double>(row[j + 2]);
    const double x3 = static_cast<double>(row[j + 3]);
    a0 += x0;
    a1 += x1;
    a2 += x2;
    a3 += x3;
    m0 += std::abs(x0);
    m1 += std::abs(x1);
    m2 += std::abs(x2);
    m3 += std::abs(x3);
  }
  for (; j < width; ++j) {
    const double x = static_cast<double>(row[j]);
    a0 += x;
    m0 += std::abs(x);
  }
  const double actual = (a0 + a1) + (a2 + a3);
  const double mag = (m0 + m1) + (m2 + m3);
  return std::abs(actual - predicted) <= 0.05 * (mag + 1.0);
}

/// Read-only verification of the invariant (tolerance rationale in
/// conflux_lu.cpp's verify_abft). Parallel row chunks over the drained pool,
/// one task per row scan, so the verdict is thread-count independent; the
/// lowest bad row is reported.
template <typename T>
void verify_chol_abft(CholRun<T>& run, index_t t) {
  g_abft_verified.add(1.0);
  const index_t col0 = t * run.v;
  const index_t live = run.npad - col0;
  constexpr index_t kRowsPerChunk = 128;
  const index_t nchunks = (live + kRowsPerChunk - 1) / kRowsPerChunk;
  std::atomic<index_t> bad{run.npad};
  sched::TaskPool::instance().parallel_for(nchunks, [&](index_t c) {
    const index_t lo = col0 + c * kRowsPerChunk;
    const index_t hi = std::min(run.npad, lo + kRowsPerChunk);
    for (index_t r = lo; r < hi; ++r) {
      if (chol_abft_row_ok(&run.fac(r, col0), r - col0 + 1,
                           run.abft_sum[static_cast<std::size_t>(r)])) {
        continue;
      }
      index_t seen = bad.load(std::memory_order_relaxed);
      while (r < seen &&
             !bad.compare_exchange_weak(seen, r, std::memory_order_relaxed)) {
      }
      break;
    }
  });
  const index_t bad_row = bad.load(std::memory_order_relaxed);
  if (bad_row < run.npad) {
    g_abft_detected.add(1.0);
    throw status_error(Status(
        StatusCode::kDataCorruption,
        "ABFT row-sum mismatch in the trailing accumulator (row " +
            std::to_string(bad_row) + ")",
        static_cast<long long>(t)));
  }
}

// Step 1: reduce the trailing block column (rows t*v.., width v) onto layer
// l_t; charged per x-group like COnfLUX's column reduction. Real mode has
// nothing to execute: the trailing accumulator already holds the sums.
template <typename T>
void reduce_block_column(CholRun<T>& run, index_t t) {
  prof::ScopedSpan span("reduce-column", static_cast<long long>(t));
  run.m.annotate("reduce-column");
  const int pz = run.g.pz();
  const int y_t = static_cast<int>(t) % run.g.py();
  const int l_t = static_cast<int>(t) % pz;
  if (pz > 1) {
    for (int x = 0; x < run.g.px(); ++x) {
      const index_t rows_x = run.rows_with_residue(t, x, run.g.px());
      if (rows_x == 0) continue;
      xsim::comm::reduce(run.m, run.z_line(x, y_t), static_cast<std::size_t>(l_t),
                         static_cast<double>(rows_x * run.v));
    }
  }
  run.m.step_barrier();
}

// Steps 2-3: potrf of the diagonal block on its owner, broadcast to all.
// The factored block is written back into the trailing buffer: that slot is
// the finished factor from here on. With lookahead the previous step's
// urgent tasks — the producers of this diagonal block — are drained first;
// the previous lazy remainder keeps running on the pool.
template <typename T>
void factor_and_broadcast_a00(CholRun<T>& run, index_t t, MatrixView<T>* a00) {
  prof::ScopedSpan span("potrf-a00", static_cast<long long>(t));
  if (run.la) sched::TaskPool::instance().wait(run.urgent_ids);
  run.m.annotate("potrf-a00");
  const int x_t = static_cast<int>(t) % run.g.px();
  const int y_t = static_cast<int>(t) % run.g.py();
  const int l_t = static_cast<int>(t) % run.g.pz();
  const int owner = run.g.rank_of(x_t, y_t, l_t);
  const auto vv = static_cast<double>(run.v);
  run.m.charge_flops(owner, vv * vv * vv / 3.0);
  xsim::comm::broadcast(run.m, run.all_ranks, static_cast<std::size_t>(owner),
                        vv * vv);
  if (run.real) {
    const index_t o = t * run.v;
    *a00 = run.ws.template zeroed<T>(kA00, run.v, run.v);
    for (index_t i = 0; i < run.v; ++i) {
      for (index_t j = 0; j <= i; ++j) (*a00)(i, j) = run.fac(o + i, o + j);
    }
    if (fault::enabled()) {
      if (fault::should_inject(fault::Site::kPanelNaN)) {
        (*a00)(run.v - 1, 0) = std::numeric_limits<T>::quiet_NaN();
      }
      if (fault::should_inject(fault::Site::kZeroPivot)) {
        (*a00)(run.v - 1, run.v - 1) = T{};
      }
    }
    // Read-only scan of the accumulated diagonal block: every trailing row
    // passes through a diagonal block eventually, so non-finite Schur
    // contamination is caught here before potrf turns it into garbage.
    for (index_t i = 0; i < run.v; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        if (!std::isfinite(static_cast<double>((*a00)(i, j)))) {
          throw status_error(Status(
              StatusCode::kNonFinite,
              "non-finite value in the diagonal block entering potrf",
              static_cast<long long>(t)));
        }
      }
    }
    const index_t info = xblas::potrf<T>(*a00);
    if (info != 0) {
      throw status_error(Status(
          StatusCode::kNotPositiveDefinite,
          "diagonal block is not positive definite (potrf minor " +
              std::to_string(info) + ")",
          static_cast<long long>(t)));
    }
    for (index_t k = 0; k < run.v; ++k) {
      const double l_kk = static_cast<double>((*a00)(k, k));
      const double d = l_kk * l_kk;  // the elimination pivot
      if (d < run.health.min_pivot) run.health.min_pivot = d;
      if (run.pivot_tol > 0.0 && d < run.pivot_tol * run.amax) {
        ++run.health.near_singular_pivots;
        if (run.health.first_breakdown_step < 0) {
          run.health.first_breakdown_step = static_cast<long long>(t);
        }
        run.health.code = StatusCode::kNearSingularPivot;
      }
    }
    for (index_t i = 0; i < run.v; ++i) {
      for (index_t j = 0; j <= i; ++j) run.fac(o + i, o + j) = (*a00)(i, j);
    }
    // Diagonal triangle out of the accumulator and factored back in (two
    // read+write passes over v(v+1)/2 elements).
    g_dm_panel_gather.add(2.0 * static_cast<double>(run.v) *
                          static_cast<double>(run.v + 1) *
                          static_cast<double>(sizeof(T)));
  }
  run.m.step_barrier();
}

// Step 4: scatter the sub-diagonal panel into 1D row chunks over all ranks.
template <typename T>
void scatter_panel_1d(CholRun<T>& run, index_t t, index_t panel_rows) {
  prof::ScopedSpan span("scatter-panel", static_cast<long long>(t));
  run.m.annotate("scatter-panel");
  const int p = run.m.ranks();
  const int px = run.g.px();
  const int y_t = static_cast<int>(t) % run.g.py();
  const int l_t = static_cast<int>(t) % run.g.pz();
  for (int x = 0; x < px; ++x) {
    const index_t rows_x = run.rows_with_residue(t + 1, x, px);
    if (rows_x == 0) continue;
    run.m.charge_send(run.g.rank_of(x, y_t, l_t),
                      static_cast<double>(rows_x * run.v), approx_msgs(rows_x, p / px));
  }
  for (int r = 0; r < p; ++r) {
    const index_t mine = chunk_size(panel_rows, p, r);
    if (mine == 0) continue;
    run.m.charge_recv(r, static_cast<double>(mine * run.v), approx_msgs(mine, px));
  }
  run.m.step_barrier();
}

// Step 5: local trsm L10 = A10 * L00^{-T} on the 1D chunks, IN PLACE in the
// trailing buffer: the solved panel is simultaneously the factor's column
// block and the Schur update's operand. The chunk decomposition is one
// piece per simulated rank in both execution modes (Right-side solves are
// row-independent, so chunking is exact); with lookahead the chunks are
// pool tasks overlapping the previous step's lazy remainder, whose writes
// are disjoint from this panel's column block.
template <typename T>
void trsm_panel(CholRun<T>& run, index_t t, index_t panel_rows,
                ConstMatrixView<T> a00) {
  prof::ScopedSpan span("panel-trsm", static_cast<long long>(t));
  run.m.annotate("panel-trsm");
  const auto vv = static_cast<double>(run.v);
  const int p = run.m.ranks();
  for (int r = 0; r < p; ++r) {
    const double mine = static_cast<double>(chunk_size(panel_rows, p, r));
    if (mine > 0) run.m.charge_flops(r, mine * vv * vv);
  }
  run.trsm_ids.clear();
  if (run.real && panel_rows > 0) {
    MatrixView<T> panel = run.fac.block((t + 1) * run.v, t * run.v, panel_rows, run.v);
    const index_t v = run.v;
    const auto chunk = [panel, a00, panel_rows, p, v](index_t r) {
      const index_t lo = chunk_offset(panel_rows, p, static_cast<int>(r));
      const index_t cnt = chunk_size(panel_rows, p, static_cast<int>(r));
      if (cnt == 0) return;
      xblas::trsm<T>(Side::Right, UpLo::Lower, Trans::Transpose, Diag::NonUnit,
                     T{1}, a00, panel.block(lo, 0, cnt, v));
      // In-place trsm read+write of the chunk plus the L00 operand.
      g_dm_panel_solve.add(
          (2.0 * static_cast<double>(cnt) * static_cast<double>(v) +
           static_cast<double>(v) * static_cast<double>(v)) *
          static_cast<double>(sizeof(T)));
    };
    sched::TaskPool& pool = sched::TaskPool::instance();
    if (run.la) {
      for (int r = 0; r < p; ++r) {
        // Retryable: the injected transient fault fires before the body
        // runs, so the in-place solve has not happened on a retried attempt
        // and re-running it is exact (same for the Schur pieces below).
        run.trsm_ids.push_back(pool.submit(
            [chunk, r] { chunk(static_cast<index_t>(r)); }, "panel-trsm",
            sched::TaskCategory::Other, static_cast<long long>(t), nullptr, 0,
            /*retryable=*/true));
      }
    } else {
      pool.parallel_for(p, chunk);
    }
  }
  run.m.step_barrier();
}

// Step 6: distribute L10's k-slices to the 2.5D tile owners. Unlike LU each
// rank needs BOTH its tile rows' slices and its tile columns' slices (the
// update is L10_i * L10_j^T), which is why Cholesky communicates as much as
// LU here despite half the flops (Table 1).
template <typename T>
void distribute_panel_2p5d(CholRun<T>& run, index_t t, index_t panel_rows) {
  prof::ScopedSpan span("distribute-2.5d", static_cast<long long>(t));
  run.m.annotate("distribute-2.5d");
  const int p = run.m.ranks();
  const int px = run.g.px();
  const int py = run.g.py();
  const int pz = run.g.pz();
  const index_t slice = run.v / pz;
  for (int r = 0; r < p; ++r) {
    const index_t mine = chunk_size(panel_rows, p, r);
    if (mine == 0) continue;
    // Each row feeds the py*pz row-owners and the px*pz column-owners, a
    // v/pz slice each: (px + py) * v words per row.
    run.m.charge_send(r,
                      static_cast<double>(mine) * static_cast<double>(py + px) *
                          static_cast<double>(run.v),
                      static_cast<long long>(py + px) * pz);
  }
  for (int x = 0; x < px; ++x) {
    for (int y = 0; y < py; ++y) {
      const index_t rows_x = run.rows_with_residue(t + 1, x, px);
      const index_t cols_y = run.rows_with_residue(t + 1, y, py);
      if (rows_x + cols_y == 0) continue;
      for (int z = 0; z < pz; ++z) {
        run.m.charge_recv(run.g.rank_of(x, y, z),
                          static_cast<double>((rows_x + cols_y) * slice),
                          approx_msgs(rows_x + cols_y, px + py));
      }
    }
  }
  run.m.step_barrier();
}

// Step 7: symmetric Schur update of the trailing accumulator: layer z's
// k-slice contribution is realized inside the fixed k-order of the beta=1
// gemm/syrk calls (k = v spans the slices in ascending z).
//
// Decomposition (identical in both execution modes, so the factors agree
// bitwise): one URGENT and one LAZY piece per fixed kRowBlock row block.
// The urgent piece is the block's contribution to tile column t+1 — the
// next step's diagonal block and panel column — and the lazy piece is the
// rest; every lower-triangle element is written by exactly one piece with
// a fixed k-order (DESIGN.md). Requires v <= kRowBlock (enforced upstream
// by default_block_size; asserted here), so the urgent cut never lands
// inside a later block's diagonal.
template <typename T>
void update_a11(CholRun<T>& run, index_t t, index_t panel_rows) {
  prof::ScopedSpan span("schur-update", static_cast<long long>(t));
  const int px = run.g.px();
  const int py = run.g.py();
  const int pz = run.g.pz();
  const index_t slice = run.v / pz;
  const int y_u = static_cast<int>(t + 1) % py;  // owner of tile column t+1

  run.m.annotate("schur-update-urgent");
  if (panel_rows > 0) {
    for (int x = 0; x < px; ++x) {
      const auto rows_x = static_cast<double>(run.rows_with_residue(t + 1, x, px));
      if (rows_x == 0.0) continue;
      for (int z = 0; z < pz; ++z) {
        run.m.charge_flops(run.g.rank_of(x, y_u, z),
                           rows_x * static_cast<double>(run.v) *
                               static_cast<double>(slice));
      }
    }
  }
  run.m.annotate("schur-update-lazy");
  for (int x = 0; x < px; ++x) {
    const auto rows_x = static_cast<double>(run.rows_with_residue(t + 1, x, px));
    if (rows_x == 0.0) continue;
    for (int y = 0; y < py; ++y) {
      const index_t cols_y = run.rows_with_residue(t + 1, y, py);
      const index_t lazy_cols = cols_y - (y == y_u ? run.v : 0);
      if (lazy_cols <= 0) continue;
      for (int z = 0; z < pz; ++z) {
        run.m.charge_flops(run.g.rank_of(x, y, z),
                           rows_x * static_cast<double>(lazy_cols) *
                               static_cast<double>(slice));
      }
    }
  }

  std::vector<sched::TaskId> prev_lazy = std::move(run.lazy_ids);
  run.urgent_ids.clear();
  run.lazy_ids.clear();
  if (run.real && panel_rows > 0) {
    // The urgent cut at column v assumes v <= kRowBlock (true for
    // default_block_size and every practical configuration). For larger
    // hand-picked blocks the cut would land inside later blocks' diagonal
    // syrks, so each row block degrades to one unsplit urgent piece —
    // still a fixed decomposition, just with nothing to pipeline.
    const bool split = run.v <= sched::kRowBlock;
    const index_t off = (t + 1) * run.v;
    const index_t v = run.v;
    ConstMatrixView<T> panel = run.fac.block(off, t * run.v, panel_rows, v);
    const index_t nblocks = sched::num_row_blocks(panel_rows);

    // Measured Schur traffic per gemm/syrk call: operand reads (`a` and
    // `b` element counts; a syrk's single operand goes in `a`) and the
    // beta=1 read+write of the `c` output cells. Counted per call — the
    // re-reads of shared panel blocks across tasks are real traffic.
    const auto count_schur = [](double a_el, double b_el, double c_el) {
      if (!metrics::enabled()) return;
      const double sb = static_cast<double>(sizeof(T));
      g_dm_schur_operand.add((a_el + b_el) * sb);
      g_dm_schur_update.add(2.0 * c_el * sb);
    };
    const auto tri = [](index_t k) {
      return static_cast<double>(k) * static_cast<double>(k + 1) / 2.0;
    };
    const auto el = [](index_t r, index_t c) {
      return static_cast<double>(r) * static_cast<double>(c);
    };
    // Urgent piece of row block blk: its cells in columns [off, off + v)
    // (the whole block when the split is off).
    const auto urgent_block = [&run, panel, panel_rows, off, v, split,
                               count_schur, tri, el](index_t blk) {
      const index_t i0 = blk * sched::kRowBlock;
      const index_t bn = std::min(sched::kRowBlock, panel_rows - i0);
      if (!split) {
        if (i0 > 0) {
          count_schur(el(bn, v), el(i0, v), el(bn, i0));
          xblas::gemm<T>(Trans::None, Trans::Transpose, T{-1},
                         panel.block(i0, 0, bn, v), panel.block(0, 0, i0, v),
                         T{1}, run.fac.block(off + i0, off, bn, i0));
        }
        count_schur(el(bn, v), 0.0, tri(bn));
        xblas::syrk<T>(UpLo::Lower, Trans::None, T{-1},
                       panel.block(i0, 0, bn, v), T{1},
                       run.fac.block(off + i0, off + i0, bn, bn));
        return;
      }
      if (i0 == 0) {
        const index_t dn = std::min(v, bn);
        count_schur(el(dn, v), 0.0, tri(dn));
        xblas::syrk<T>(UpLo::Lower, Trans::None, T{-1},
                       panel.block(0, 0, dn, v), T{1},
                       run.fac.block(off, off, dn, dn));
        if (bn > v) {
          count_schur(el(bn - v, v), el(v, v), el(bn - v, v));
          xblas::gemm<T>(Trans::None, Trans::Transpose, T{-1},
                         panel.block(v, 0, bn - v, v), panel.block(0, 0, v, v),
                         T{1}, run.fac.block(off + v, off, bn - v, v));
        }
      } else {
        count_schur(el(bn, v), el(v, v), el(bn, v));
        xblas::gemm<T>(Trans::None, Trans::Transpose, T{-1},
                       panel.block(i0, 0, bn, v), panel.block(0, 0, v, v),
                       T{1}, run.fac.block(off + i0, off, bn, v));
      }
    };
    // Lazy piece of row block blk: everything right of the urgent cut —
    // the remaining sub-diagonal stripe plus the block's diagonal syrk.
    // Empty when the split is off.
    const auto lazy_block = [&run, panel, panel_rows, off, v, count_schur,
                             tri, el](index_t blk) {
      const index_t i0 = blk * sched::kRowBlock;
      const index_t bn = std::min(sched::kRowBlock, panel_rows - i0);
      if (i0 == 0) {
        if (bn > v) {
          count_schur(el(bn - v, v), 0.0, tri(bn - v));
          xblas::syrk<T>(UpLo::Lower, Trans::None, T{-1},
                         panel.block(v, 0, bn - v, v), T{1},
                         run.fac.block(off + v, off + v, bn - v, bn - v));
        }
      } else {
        if (i0 > v) {
          count_schur(el(bn, v), el(i0 - v, v), el(bn, i0 - v));
          xblas::gemm<T>(Trans::None, Trans::Transpose, T{-1},
                         panel.block(i0, 0, bn, v), panel.block(v, 0, i0 - v, v),
                         T{1}, run.fac.block(off + i0, off + v, bn, i0 - v));
        }
        count_schur(el(bn, v), 0.0, tri(bn));
        xblas::syrk<T>(UpLo::Lower, Trans::None, T{-1},
                       panel.block(i0, 0, bn, v), T{1},
                       run.fac.block(off + i0, off + i0, bn, bn));
      }
    };

    sched::TaskPool& pool = sched::TaskPool::instance();
    if (run.la) {
      // Dependencies: both pieces read this step's solved panel (all trsm
      // chunks) and write trailing cells the previous lazy remainder also
      // writes — express both instead of waiting.
      run.dep_scratch.assign(run.trsm_ids.begin(), run.trsm_ids.end());
      run.dep_scratch.insert(run.dep_scratch.end(), prev_lazy.begin(),
                             prev_lazy.end());
      for (index_t blk = 0; blk < nblocks; ++blk) {
        run.urgent_ids.push_back(
            pool.submit([urgent_block, blk] { urgent_block(blk); },
                        "schur-urgent", sched::TaskCategory::Urgent,
                        static_cast<long long>(t), run.dep_scratch,
                        /*retryable=*/true));
      }
      if (split) {
        for (index_t blk = 0; blk < nblocks; ++blk) {
          if (blk == 0 && panel_rows <= v) continue;  // empty lazy piece
          run.lazy_ids.push_back(
              pool.submit([lazy_block, blk] { lazy_block(blk); }, "schur-lazy",
                          sched::TaskCategory::Lazy, static_cast<long long>(t),
                          run.dep_scratch, /*retryable=*/true));
        }
      }
    } else {
      pool.parallel_for(nblocks, urgent_block);
      if (split) pool.parallel_for(nblocks, lazy_block);
    }
  }
  run.m.step_barrier();
}

template <typename T>
CholResultT<T> run_confchox(xsim::Machine& m, const grid::Grid3D& g, index_t n,
                            ConstMatrixView<T> a, const FactorOptions& opt,
                            bool resume = false) {
  expects(g.ranks() == m.ranks(), "grid must match the machine");
  expects(n >= 1, "matrix must be non-empty");
  index_t v = opt.block_size > 0 ? opt.block_size : default_block_size(n, g);
  expects(v % g.pz() == 0, "block size must be a multiple of the layer count");

  CholRun<T> run(m, g, n, v);
  run.la = run.real && lookahead_enabled(opt);
  const index_t npad = run.npad;
  const index_t num_tiles = run.num_tiles;
  sched::TaskPool& pool = sched::TaskPool::instance();

  const double tile_words =
      static_cast<double>(npad) * static_cast<double>(npad) /
      (2.0 * static_cast<double>(g.px()) * static_cast<double>(g.py()));
  const double panel_words =
      2.0 * static_cast<double>(npad * v) / static_cast<double>(m.ranks()) +
      static_cast<double>(v * v);
  for (int r = 0; r < m.ranks(); ++r) m.alloc(r, tile_words + panel_words);

  // Release the memory accounting on every exit path; on an error unwind
  // first drain the pool (in-flight lookahead tasks reference run.fac).
  struct MachineLease {
    xsim::Machine& m;
    double words;
    bool la;
    ~MachineLease() {
      if (la && std::uncaught_exceptions() > 0) {
        try {
          sched::TaskPool::instance().wait_all();
        } catch (...) {
        }
      }
      for (int r = 0; r < m.ranks(); ++r) m.release(r, words);
    }
  } lease{m, tile_words + panel_words, run.la};

  // (Re)initialize the factor buffer from the input: also the rollback of
  // last resort when ABFT detects corruption and no checkpoint exists — the
  // caller's view of `a` is untouched by the run.
  const auto init_state = [&] {
    run.amax = 0.0;
    run.health = FactorHealth{};
    run.health.min_pivot = std::numeric_limits<double>::infinity();
    run.fac = Matrix<T>(npad, npad, T{});
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        const T val = a(i, j);
        if (!std::isfinite(static_cast<double>(val))) {
          throw status_error(Status(
              StatusCode::kNonFinite, "input matrix contains a non-finite value"));
        }
        const double d = std::abs(static_cast<double>(val));
        if (d > run.amax) run.amax = d;
        run.fac(i, j) = val;
      }
    }
    for (index_t r = n; r < npad; ++r) run.fac(r, r) = T{1};
  };

  if (run.real) {
    expects(a.rows() == n && a.cols() == n, "matrix must be square");
    run.pivot_tol = opt.pivot_tolerance;
    init_state();
  }

  CholResultT<T> result;
  StepCostRecorder rec(m, opt.record_step_costs);

  // Recovery configuration (recover/options.hpp): resolved once per run.
  const recover::Options ropt = recover::options();
  const bool ckpt_on = run.real && ropt.ckpt_every > 0;
  run.abft = run.real && ropt.abft;

  index_t t0 = 0;
  if (resume) {
    expects(run.real, "resume requires Real mode");
    t0 = restore_chol_snapshot(run);
    g_ckpt_restores.add(1.0);
  }
  if (run.abft) init_chol_abft(run, t0);

  // Latency chain per iteration: one layer reduction, the A00 broadcast,
  // and the two panel hops (no pivoting chain at all).
  const double chain_per_step =
      std::ceil(std::log2(static_cast<double>(std::max(2, g.pz())))) +
      std::ceil(std::log2(static_cast<double>(std::max(2, m.ranks())))) + 3.0;

  // Step loop with in-run recovery (structure documented in
  // conflux_lu.cpp): ABFT-detected corruption rolls back to the last
  // checkpoint or the input, bounded by kMaxAbftReexecs; everything else
  // unwinds, and resume_confchox restarts a crashed run from its snapshot.
  index_t t = t0;
  int reexecs_left = kMaxAbftReexecs;
  while (t < num_tiles) {
  try {
    const index_t panel_rows = npad - (t + 1) * v;
    if (run.real) {
      const bool ckpt_due = ckpt_on && t % ropt.ckpt_every == 0;
      // Checksums are maintained every step; the full sweep over the live
      // triangle runs every abft_every steps (it re-reads everything, which
      // at bandwidth would blow the 10% overhead budget per-step).
      const bool verifying = run.abft && t > 0 && t % ropt.abft_every == 0;
      if ((ckpt_due || verifying) && run.la) {
        pool.wait(run.trsm_ids);
        pool.wait(run.urgent_ids);
        pool.wait(run.lazy_ids);
      } else if (run.abft && run.la) {
        // Maintenance-only step: capture_chol_abft_panel below reads tile
        // column t, which is exactly the urgent piece of the previous
        // step's Schur update; the lazy remainder keeps running behind it.
        pool.wait(run.trsm_ids);
        pool.wait(run.urgent_ids);
      }
      if (verifying) {
        if (fault::enabled() && fault::should_inject(fault::Site::kBitflip)) {
          run.fac(t * v, t * v) = recover::flip_high_bit(run.fac(t * v, t * v));
        }
        verify_chol_abft(run, t);
      }
      if (ckpt_due) {
        const auto c0 = std::chrono::steady_clock::now();
        save_chol_snapshot(run, t);
        g_ckpt_seconds.add(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - c0)
                               .count());
      }
      // Fires AFTER the save: with ckpt_every == 1 every crash is resumable.
      if (fault::enabled() && fault::should_inject(fault::Site::kCrashAtStep)) {
        throw status_error(Status(StatusCode::kCrashSimulated,
                                  "injected crash at a step boundary",
                                  static_cast<long long>(t)));
      }
      if (run.abft) capture_chol_abft_panel(run, t);
    }

    m.charge_chain(chain_per_step);
    rec.begin_iteration();

    rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops,
                [&] { reduce_block_column(run, t); });
    MatrixView<T> a00;
    rec.measure(&StepCosts::a00_words, &StepCosts::a00_flops,
                [&] { factor_and_broadcast_a00(run, t, &a00); });
    rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops,
                [&] { scatter_panel_1d(run, t, panel_rows); });
    rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops,
                [&] { trsm_panel<T>(run, t, panel_rows, a00); });
    if (run.abft && panel_rows > 0) {
      // Advance the checksums across this step's Schur update; the solved
      // panel is the only input, so only the trsm chunks must have landed
      // (the Schur tasks depend on them anyway).
      if (run.la) pool.wait(run.trsm_ids);
      apply_chol_abft_update(run, t, panel_rows);
    }
    rec.measure(&StepCosts::a11_words, &StepCosts::a11_flops,
                [&] { distribute_panel_2p5d(run, t, panel_rows); });
    rec.measure(&StepCosts::a11_words, &StepCosts::a11_flops,
                [&] { update_a11(run, t, panel_rows); });
    rec.end_iteration(result.step_costs);
    ++t;
  } catch (const status_error& e) {
    if (e.code() != StatusCode::kDataCorruption || reexecs_left-- <= 0) throw;
    g_abft_reexec.add(1.0);
    if (recover::has_latest(chol_snapshot_key(run))) {
      t = restore_chol_snapshot(run);
      g_ckpt_restores.add(1.0);
      // The step-0 snapshot is a marker: re-derive the state from the input.
      if (t == 0) init_state();
    } else {
      init_state();
      t = 0;
    }
    init_chol_abft(run, t);
  }
  }

  if (run.la) {
    pool.wait(run.trsm_ids);
    pool.wait(run.urgent_ids);
    pool.wait(run.lazy_ids);
  }

  if (run.real) {
    result.factors = Matrix<T>(n, n, T{});
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j <= i; ++j) result.factors(i, j) = run.fac(i, j);
    }
    result.workspace_words =
        static_cast<double>(run.fac.size()) * words_per_scalar<T>() +
        run.ws.words();
    if (!std::isfinite(run.health.min_pivot)) run.health.min_pivot = 0.0;
    result.health = run.health;
  }
  return result;
}

/// Shared body of the try_* entry points (see conflux_lu.cpp's try_lu).
template <typename T>
Result<CholResultT<T>> try_chol(xsim::Machine& m, const grid::Grid3D& g,
                                ConstMatrixView<T> a, const FactorOptions& opt,
                                bool resume = false) {
  try {
    expects(m.real(), "try_confchox requires Real mode");
    CholResultT<T> r = run_confchox<T>(m, g, a.rows(), a, opt, resume);
    if (!r.health.ok()) {
      Status st = r.health.to_status();
      return Result<CholResultT<T>>(std::move(st), std::move(r));
    }
    return std::move(r);
  } catch (const status_error& e) {
    return e.status();
  } catch (const contract_error& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  }
}

}  // namespace

CholResult confchox(xsim::Machine& m, const grid::Grid3D& g, ConstViewD a,
                    const FactorOptions& opt) {
  expects(m.real(), "confchox with a matrix requires Real mode");
  return run_confchox<double>(m, g, a.rows(), a, opt);
}

CholResultF confchox(xsim::Machine& m, const grid::Grid3D& g, ConstViewF a,
                     const FactorOptions& opt) {
  expects(m.real(), "confchox with a matrix requires Real mode");
  return run_confchox<float>(m, g, a.rows(), a, opt);
}

Result<CholResult> try_confchox(xsim::Machine& m, const grid::Grid3D& g,
                                ConstViewD a, const FactorOptions& opt) {
  return try_chol<double>(m, g, a, opt);
}

Result<CholResultF> try_confchox(xsim::Machine& m, const grid::Grid3D& g,
                                 ConstViewF a, const FactorOptions& opt) {
  return try_chol<float>(m, g, a, opt);
}

CholResult resume_confchox(xsim::Machine& m, const grid::Grid3D& g, ConstViewD a,
                           const FactorOptions& opt) {
  expects(m.real(), "resume_confchox requires Real mode");
  return run_confchox<double>(m, g, a.rows(), a, opt, /*resume=*/true);
}

CholResultF resume_confchox(xsim::Machine& m, const grid::Grid3D& g,
                            ConstViewF a, const FactorOptions& opt) {
  expects(m.real(), "resume_confchox requires Real mode");
  return run_confchox<float>(m, g, a.rows(), a, opt, /*resume=*/true);
}

Result<CholResult> try_resume_confchox(xsim::Machine& m, const grid::Grid3D& g,
                                       ConstViewD a, const FactorOptions& opt) {
  return try_chol<double>(m, g, a, opt, /*resume=*/true);
}

Result<CholResultF> try_resume_confchox(xsim::Machine& m, const grid::Grid3D& g,
                                        ConstViewF a, const FactorOptions& opt) {
  return try_chol<float>(m, g, a, opt, /*resume=*/true);
}

CholResult confchox_trace(xsim::Machine& m, const grid::Grid3D& g, index_t n,
                          const FactorOptions& opt) {
  expects(!m.real(), "confchox_trace requires Trace mode");
  return run_confchox<double>(m, g, n, ConstViewD(), opt);
}

template <typename T>
void confchox_solve(const CholResultT<T>& chol, MatrixView<T> b) {
  const index_t n = chol.factors.rows();
  expects(n > 0, "solve requires Real-mode factors");
  expects(b.rows() == n, "right-hand side must match the matrix");
  // One pair of blocked trsm panel solves over the whole multi-RHS panel.
  xblas::trsm<T>(Side::Left, UpLo::Lower, Trans::None, Diag::NonUnit, T{1},
                 chol.factors.view(), b);
  xblas::trsm<T>(Side::Left, UpLo::Lower, Trans::Transpose, Diag::NonUnit, T{1},
                 chol.factors.view(), b);
}

template void confchox_solve<float>(const CholResultF&, ViewF);
template void confchox_solve<double>(const CholResult&, ViewD);

}  // namespace conflux::factor
