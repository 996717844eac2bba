#include "factor/confchox.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "blas/blas.hpp"
#include "blas/lapack.hpp"
#include "factor/step_loop.hpp"
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

/// Workspace slot ids (tensor/workspace.hpp arena).
enum WsSlot : std::size_t { kA00 = 0 };

/// The whole mutable state of one factorization run, templated on the
/// factor scalar; the step loop's `Core` (factor/step_loop.hpp).
///
/// Real-mode data path (DESIGN.md "Packed trailing workspace"): ONE
/// npad x npad buffer `fac` is both the trailing accumulator and the factor
/// store. Cholesky retires rows and columns in natural order, so the live
/// trailing workspace at step t is simply the block (t*v.., t*v..) — already
/// contiguous, no row index map needed — and everything to its left IS the
/// finished factor: the panel trsm solves in place and its output never
/// moves again; after the loop the buffer itself becomes the result. The
/// pz layered partial sums of the simulated machine are realized inside
/// gemm/syrk's fixed k-order (one beta=1 update with k = v accumulates the
/// k-slices in ascending z), so per-layer buffers never exist.
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
  using Scalar = T;
  static constexpr recover::FactorKind kKind = recover::FactorKind::kCholesky;

  xsim::Machine& m;
  const grid::Grid3D& g;
  ConstMatrixView<T> a;  // the input (Real mode); only its lower triangle is read
  index_t n = 0;
  index_t npad = 0;
  index_t v = 0;
  index_t num_tiles = 0;
  bool real = false;
  std::vector<int> all_ranks;
  Matrix<T> fac;  // trailing accumulator left of the frontier, factor right
  Workspace ws;

  // Lookahead task handles (panel = this step's trsm chunks).
  StepTasks tasks;
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
          index_t block, ConstMatrixView<T> input)
      : m(machine), g(grid), a(input), n(size), v(block) {
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

  // Step-loop hooks (factor/step_loop.hpp).
  void init_state();
  void save_payload(recover::SnapshotWriter& w, index_t t);
  void restore_payload(recover::SnapshotReader& r, index_t t);
  void abft_init(index_t t);
  /// Pre-trsm panel sums of the rows below the diagonal block.
  void abft_capture(index_t t) {
    abft_row_sums<T>((t + 1) * v, npad, abft_panel,
                     [&](index_t r) { return live_row(t, r).first(static_cast<std::size_t>(v)); });
  }
  void abft_verify(index_t t) {
    verify_abft_rows<T>(t, t * v, npad, abft_sum,
                        [&](index_t r) { return live_row(t, r); }, "row");
  }
  T* bitflip_target(index_t t) { return &fac(t * v, t * v); }
  void step(index_t t, StepCostRecorder& rec);

  /// Row r's live lower-triangle cells at step t: fac(r, t*v .. r).
  std::span<const T> live_row(index_t t, index_t r) const {
    return {&fac(r, t * v), static_cast<std::size_t>(r - t * v + 1)};
  }
};

/// (Re)initialize the factor buffer from the input: also the rollback of
/// last resort when ABFT detects corruption and no checkpoint exists.
template <typename T>
void CholRun<T>::init_state() {
  health = FactorHealth{};
  health.min_pivot = std::numeric_limits<double>::infinity();
  // One parallel first-touch pass writes all of fac; only the input's
  // lower triangle is read, the upper triangle is zero from here on.
  amax = fill_workspace<T>(a, npad, /*lower=*/true, fac);
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
void CholRun<T>::save_payload(recover::SnapshotWriter& w, index_t) {
  w.put_f64(amax);
  put_health(w, health);
  // Only the lower triangle (diagonal included): init_state zeroes the
  // strict upper triangle and no phase of the factorization reads or writes
  // it, so restoring the lower rows onto a freshly initialized `fac` is
  // bitwise complete — at half the serialization volume. Row r lands at
  // element offset r(r+1)/2, so the rows are copied in parallel.
  const auto np = static_cast<std::size_t>(npad);
  std::uint8_t* tri = w.put_space(np * (np + 1) / 2 * sizeof(T));
  sched::parallel_rows(npad, [&](index_t r) {
    const auto ri = static_cast<std::size_t>(r);
    std::memcpy(tri + ri * (ri + 1) / 2 * sizeof(T), &fac(r, 0),
                (ri + 1) * sizeof(T));
  });
}

/// `fac` was freshly initialized from the input: the strict upper triangle
/// is NOT in the payload.
template <typename T>
void CholRun<T>::restore_payload(recover::SnapshotReader& r, index_t) {
  amax = r.get_f64();
  // kNearSingularPivot is the only soft breakdown Cholesky ever records
  // (everything else is a hard throw that leaves no snapshot behind).
  health = get_health(r, {StatusCode::kNearSingularPivot});
  for (index_t row = 0; row < npad; ++row) {
    r.get_bytes(&fac(row, 0), static_cast<std::size_t>(row + 1) * sizeof(T));
  }
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
void CholRun<T>::abft_init(index_t t) {
  abft_sum.assign(static_cast<std::size_t>(npad), 0.0);
  abft_panel.assign(static_cast<std::size_t>(npad), 0.0);
  abft_cum.assign(static_cast<std::size_t>(v), 0.0);
  abft_row_sums<T>(t * v, npad, abft_sum, [&](index_t r) { return live_row(t, r); });
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
  run.tasks.wait_urgent();
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
  run.tasks.panel.clear();
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
    run.tasks.launch(run.tasks.panel, 0, p, chunk, "panel-trsm",
                     sched::TaskCategory::Other, t, {});
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

  std::vector<sched::TaskId> prev_lazy = std::move(run.tasks.lazy);
  run.tasks.urgent.clear();
  run.tasks.lazy.clear();
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

    // Pipelined dependencies: both pieces read this step's solved panel
    // (all trsm chunks) and write trailing cells the previous lazy
    // remainder also writes — express both instead of waiting.
    run.dep_scratch.assign(run.tasks.panel.begin(), run.tasks.panel.end());
    run.dep_scratch.insert(run.dep_scratch.end(), prev_lazy.begin(), prev_lazy.end());
    run.tasks.launch(run.tasks.urgent, 0, nblocks, urgent_block, "schur-urgent",
                     sched::TaskCategory::Urgent, t, run.dep_scratch);
    if (split) {
      // Block 0's lazy piece is empty when the panel fits in the urgent cut.
      run.tasks.launch(run.tasks.lazy, panel_rows <= v ? 1 : 0, nblocks, lazy_block,
                       "schur-lazy", sched::TaskCategory::Lazy, t, run.dep_scratch);
    }
  }
  run.m.step_barrier();
}

// The step body: the paper's Cholesky step, run by the step loop after
// its boundary hook.
template <typename T>
void CholRun<T>::step(index_t t, StepCostRecorder& rec) {
  const index_t panel_rows = npad - (t + 1) * v;
  rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops,
              [&] { reduce_block_column(*this, t); });
  MatrixView<T> a00;
  rec.measure(&StepCosts::a00_words, &StepCosts::a00_flops,
              [&] { factor_and_broadcast_a00(*this, t, &a00); });
  rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops,
              [&] { scatter_panel_1d(*this, t, panel_rows); });
  rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops,
              [&] { trsm_panel<T>(*this, t, panel_rows, a00); });
  if (abft && panel_rows > 0) {
    // Advance the checksums across this step's Schur update; the solved
    // panel is the only input, so only the trsm chunks must have landed
    // (the Schur tasks depend on them anyway).
    tasks.wait_panel();
    apply_chol_abft_update(*this, t, panel_rows);
  }
  rec.measure(&StepCosts::a11_words, &StepCosts::a11_flops,
              [&] { distribute_panel_2p5d(*this, t, panel_rows); });
  rec.measure(&StepCosts::a11_words, &StepCosts::a11_flops,
              [&] { update_a11(*this, t, panel_rows); });
}

template <typename T>
CholResultT<T> run_confchox(xsim::Machine& m, const grid::Grid3D& g, index_t n,
                            ConstMatrixView<T> a, const FactorOptions& opt,
                            bool resume = false) {
  expects(g.ranks() == m.ranks(), "grid must match the machine");
  expects(n >= 1, "matrix must be non-empty");
  index_t v = opt.block_size > 0 ? opt.block_size : default_block_size(n, g);
  expects(v % g.pz() == 0, "block size must be a multiple of the layer count");

  CholRun<T> run(m, g, n, v, a);
  const index_t npad = run.npad;

  const double tile_words =
      static_cast<double>(npad) * static_cast<double>(npad) /
      (2.0 * static_cast<double>(g.px()) * static_cast<double>(g.py()));
  const double panel_words =
      2.0 * static_cast<double>(npad * v) / static_cast<double>(m.ranks()) +
      static_cast<double>(v * v);
  StepLoop loop(m, opt, run.real, tile_words + panel_words, run.tasks);

  if (run.real) {
    prof::ScopedSpan span("factor-setup");
    expects(a.rows() == n && a.cols() == n, "matrix must be square");
    run.pivot_tol = opt.pivot_tolerance;
    run.init_state();
  }
  run.abft = loop.abft();

  // Latency chain per iteration: one layer reduction, the A00 broadcast,
  // and the two panel hops (no pivoting chain at all).
  const double chain_per_step =
      std::ceil(std::log2(static_cast<double>(std::max(2, g.pz())))) +
      std::ceil(std::log2(static_cast<double>(std::max(2, m.ranks())))) + 3.0;

  CholResultT<T> result;
  loop.run(run, resume, chain_per_step, result.step_costs);

  if (run.real) {
    prof::ScopedSpan span("factor-handoff");
    result.workspace_words =
        static_cast<double>(run.fac.size()) * words_per_scalar<T>() +
        run.ws.words();
    // fac's upper triangle is still the zeros of the set-up pass (nothing
    // writes above the diagonal), so its buffer IS the result.
    result.factors = hand_off_factors(std::move(run.fac), n);
    if (!std::isfinite(run.health.min_pivot)) run.health.min_pivot = 0.0;
    result.health = run.health;
  }
  return result;
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
  return try_factor("try_confchox", run_confchox<double>, m, g, a, opt);
}

Result<CholResultF> try_confchox(xsim::Machine& m, const grid::Grid3D& g,
                                 ConstViewF a, const FactorOptions& opt) {
  return try_factor("try_confchox", run_confchox<float>, m, g, a, opt);
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
  return try_factor("try_confchox", run_confchox<double>, m, g, a, opt, /*resume=*/true);
}

Result<CholResultF> try_resume_confchox(xsim::Machine& m, const grid::Grid3D& g,
                                        ConstViewF a, const FactorOptions& opt) {
  return try_factor("try_confchox", run_confchox<float>, m, g, a, opt, /*resume=*/true);
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
