#include "factor/conflux_lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

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

bool is_pow2(int n) { return std::has_single_bit(static_cast<unsigned>(n)); }

// Measured data movement of LU's pivoting phases (DESIGN.md
// "Observability"; the phases both cores share count into step_loop.hpp's
// g_dm_* counters).
const metrics::Counter g_dm_pivot_merge("dm.pivot_merge.bytes");
const metrics::Counter g_dm_pivot_rows_gather("dm.pivot_rows_gather.bytes");
const metrics::Counter g_dm_pivot_retire("dm.pivot_retire.bytes");

/// Soft-breakdown severity order for FactorHealth::code (the health report
/// keeps the most severe classification; counts keep the full story).
int breakdown_severity(StatusCode code) {
  switch (code) {
    case StatusCode::kSingularPivot: return 3;
    case StatusCode::kGrowthOverflow: return 2;
    case StatusCode::kNearSingularPivot: return 1;
    default: return 0;
  }
}

/// Auto pivot-growth limit: growth that wipes out all but ~3 bits of the
/// working precision. Partial pivoting keeps real inputs far below this
/// (its worst case 2^(n-1) is pathological), so crossing it means the
/// factors carry no accuracy.
template <typename T>
double default_growth_limit() {
  return 1.0 / (8.0 * static_cast<double>(std::numeric_limits<T>::epsilon()));
}

/// Candidate set carried through the tournament: row indices plus their
/// original (reduced) panel values. Buffers are sized once per run (rows
/// capacity v, values a fixed v x v matrix with rows.size() live rows), so
/// the per-step tournament rounds allocate nothing.
template <typename T>
struct CandSet {
  std::vector<index_t> rows;
  Matrix<T> values;  // v x v buffer; rows.size() x v live
};

/// Per-run tournament scratch (DESIGN.md: the per-x candidate gathers used
/// to be the last per-step allocations of the schedule; they now live in
/// per-run buffers reserved at their step-0 high-water sizes, and
/// packed_factor_test asserts the steady state allocates nothing).
template <typename T>
struct PivotScratch {
  // Per-x gather + local selection buffers (selection runs one task per
  // simulated column owner, so each x owns its scratch).
  std::vector<std::vector<index_t>> xrows;
  std::vector<Matrix<T>> gather;    // rows_x x v panel values
  std::vector<std::uint8_t> finite;  // per x: its gathered values are finite
  std::vector<Matrix<T>> rankwork;  // getrf copy (the ranking destroys it)
  std::vector<std::vector<index_t>> xipiv;
  std::vector<std::vector<index_t>> xperm;
  std::vector<CandSet<T>> sets;
  // Butterfly-merge scratch, shared across rounds (master-side, serial).
  std::vector<index_t> mrows;
  Matrix<T> stacked;  // 2v x v
  Matrix<T> ranked;   // 2v x v getrf copy
  std::vector<index_t> mipiv;
  std::vector<index_t> mperm;
  // Final ranking scratch.
  std::vector<index_t> fipiv;
  std::vector<index_t> fperm;
};

/// Rank the candidate rows in `gather` (nrows x v live) by partial-pivoting
/// LU and keep the top `keep` in `out`: the standard CALU local selection.
template <typename T>
void select_candidates(const std::vector<index_t>& rows, index_t nrows,
                       index_t v, index_t keep, Matrix<T>& gather,
                       Matrix<T>& work, std::vector<index_t>& ipiv,
                       std::vector<index_t>& perm, CandSet<T>& out) {
  out.rows.clear();
  if (nrows == 0) return;
  copy<T>(gather.block(0, 0, nrows, v), work.block(0, 0, nrows, v));
  xblas::getrf<T>(work.block(0, 0, nrows, v), ipiv);  // singular: natural order
  xblas::ipiv_to_permutation(ipiv, nrows, perm);
  const index_t take = std::min(keep, nrows);
  for (index_t i = 0; i < take; ++i) {
    const auto src = perm[static_cast<std::size_t>(i)];
    out.rows.push_back(rows[static_cast<std::size_t>(src)]);
    for (index_t j = 0; j < v; ++j) out.values(i, j) = gather(src, j);
  }
}

/// One tournament round: stack `b` under `a`, re-rank, keep the top `keep`
/// rows in `a`. All buffers persist across rounds and steps.
template <typename T>
void merge_candidates(CandSet<T>& a, const CandSet<T>& b, index_t v,
                      index_t keep, PivotScratch<T>& s) {
  const auto na = static_cast<index_t>(a.rows.size());
  const auto nb = static_cast<index_t>(b.rows.size());
  if (na == 0) {
    a.rows.assign(b.rows.begin(), b.rows.end());
    copy<T>(b.values.block(0, 0, nb, v), a.values.block(0, 0, nb, v));
    g_dm_pivot_merge.add(static_cast<double>(nb * v) *
                         static_cast<double>(sizeof(T)));
    return;
  }
  if (nb == 0) return;
  s.mrows.assign(a.rows.begin(), a.rows.end());
  s.mrows.insert(s.mrows.end(), b.rows.begin(), b.rows.end());
  copy<T>(a.values.block(0, 0, na, v), s.stacked.block(0, 0, na, v));
  copy<T>(b.values.block(0, 0, nb, v), s.stacked.block(na, 0, nb, v));
  // Re-rank a copy of the stacked block (getrf destroys it).
  MatrixView<T> ranked = s.ranked.block(0, 0, na + nb, v);
  copy<T>(s.stacked.block(0, 0, na + nb, v), ranked);
  xblas::getrf<T>(ranked, s.mipiv);
  xblas::ipiv_to_permutation(s.mipiv, na + nb, s.mperm);
  const index_t take = std::min(keep, na + nb);
  // Stack (na+nb rows), re-rank copy (na+nb rows), keep-back (take rows).
  g_dm_pivot_merge.add(static_cast<double>((2 * (na + nb) + take) * v) *
                       static_cast<double>(sizeof(T)));
  a.rows.resize(static_cast<std::size_t>(take));
  for (index_t i = 0; i < take; ++i) {
    const auto src = s.mperm[static_cast<std::size_t>(i)];
    a.rows[static_cast<std::size_t>(i)] = s.mrows[static_cast<std::size_t>(src)];
    for (index_t j = 0; j < v; ++j) a.values(i, j) = s.stacked(src, j);
  }
}

/// Workspace slot ids (tensor/workspace.hpp arena).
enum WsSlot : std::size_t { kPivotRows = 0 };

/// The whole mutable state of one factorization run, templated on the
/// factor scalar (the Trace entry point instantiates the double core with
/// no data; Real mode exists for float and double); the step loop's `Core`
/// (factor/step_loop.hpp).
///
/// Real-mode data path (DESIGN.md "Packed trailing workspace"): instead of
/// pz + 1 full npad x npad matrices, the run keeps
///   - `trail`, ONE row-compacted trailing accumulator: packed row i holds
///     global row rowmap[i], live columns are [t*v, npad) at step t. The
///     layered partial sums of the simulated machine are realized inside
///     gemm's fixed k-order: the Schur update accumulates with beta = 1 and
///     k = v, realizing the pz k-slices in ascending z exactly as an
///     ordered layer reduction would, so the per-layer buffers never exist.
///   - `lstore`, the final factors keyed by global row (Section 7.3's row
///     masking writes results in place, never moving rows). After the step
///     loop its rows are gathered in pivot order into `trail`, whose
///     buffer becomes the result (DESIGN.md "Packed trailing workspace").
/// Eliminated rows retire once per step by swapping the tail row into their
/// slot, in two passes: an urgent pass on the panel's columns right after
/// the tournament, and a lazy pass replaying the same swaps on the
/// remaining columns after the pivot-row gather has read them.
///
/// Execution (DESIGN.md "The urgent/lazy Schur split"): the Schur update is
/// decomposed into an URGENT stripe (the next panel's v columns) and a LAZY
/// remainder, both in fixed kRowBlock row blocks, each phase one
/// parallel_for over the persistent TaskPool — the fixed decomposition is
/// what makes every factor bit identical at every width.
template <typename T>
struct LuRun {
  using Scalar = T;
  static constexpr recover::FactorKind kKind = recover::FactorKind::kLu;

  xsim::Machine& m;
  const grid::Grid3D& g;
  ConstMatrixView<T> a;  // the input (Real mode)
  index_t n = 0;     // original size
  index_t npad = 0;  // padded size (multiple of v)
  index_t v = 0;
  index_t num_tiles = 0;  // npad / v
  bool real = false;

  RowTracker tracker;
  std::vector<index_t> perm_pad;  // elimination order so far
  Rng trace_rng;
  std::vector<int> all_ranks;

  // Real-mode packed trailing workspace + factor store.
  Matrix<T> trail;
  Matrix<T> lstore;
  std::vector<index_t> rowmap;  // packed index -> global row
  std::vector<index_t> rowpos;  // global row -> packed index (-1 = retired)
  index_t nact = 0;             // live packed rows
  Workspace ws;

  // Per-step results and scratch, all sized once per run.
  std::vector<index_t> winners;       // this step's pivots, pivot order
  Matrix<T> a00;                      // v x v in-place LU of the winner rows
  std::vector<index_t> winner_slots;  // packed slots captured pre-retirement
  std::vector<std::pair<index_t, index_t>> retire_pairs;  // (dst, src) swaps
  std::vector<index_t> pivots_per_x;
  PivotScratch<T> scr;

  // Breakdown monitoring (DESIGN.md "Failure model"): strictly read-only on
  // the data path — a healthy run's factors are bitwise those of a run with
  // monitoring removed. amax/umax feed the growth factor; thresholds are
  // resolved once from FactorOptions.
  double amax = 0.0;  // max|A| over the (finite) input
  double umax = 0.0;  // running max|U| over factored pivot rows
  std::vector<MagnitudeScan> uscan;  // per-A01-chunk U scans, one per rank
  double pivot_tol = 0.0;
  double growth_lim = 0.0;
  FactorHealth health;

  // ABFT checksum state (DESIGN.md "Recovery model"): abft_sum[i] is the
  // PREDICTED row sum of packed row i's live trailing region, maintained in
  // double regardless of T (float-precision accumulation would drift past
  // any usable verification threshold within a few dozen steps) through the
  // same algebra the Schur update applies. Verification recomputes the
  // actual sums read-only, so healthy factors are bitwise identical with
  // ABFT on or off.
  bool abft = false;
  std::vector<double> abft_sum;    // predicted live-region row sums
  std::vector<double> abft_panel;  // this step's panel row sums, pre-trsm
  std::vector<double> abft_urow;   // solved pivot-row sums, scratch

  /// Record a soft breakdown: the factorization continues, the result's
  /// health carries the most severe code and the first affected step.
  void soft_breakdown(StatusCode code, index_t step) {
    if (health.first_breakdown_step < 0) {
      health.first_breakdown_step = static_cast<long long>(step);
    }
    if (breakdown_severity(code) > breakdown_severity(health.code)) {
      health.code = code;
    }
  }

  // Grid-line caches (common.hpp): at most px*py z-lines and py*pz
  // x-lines, fetched once each.
  GridLineCache zlines;
  GridLineCache xlines;

  LuRun(xsim::Machine& machine, const grid::Grid3D& grid, index_t size,
        index_t block, ConstMatrixView<T> input)
      : m(machine),
        g(grid),
        a(input),
        n(size),
        v(block),
        tracker(0, 1, 1),
        trace_rng(0) {
    npad = (n + v - 1) / v * v;
    num_tiles = npad / v;
    real = m.real();
    tracker = RowTracker(npad, v, g.px());
    all_ranks = g.all();
    zlines = GridLineCache(g.px(), g.py());
    xlines = GridLineCache(g.py(), g.pz());
  }

  const std::vector<int>& z_line(int x, int y) {
    return zlines.get(x, y, [this](int a, int b) { return g.z_line(a, b); });
  }
  const std::vector<int>& x_line(int y, int l) {
    return xlines.get(y, l, [this](int a, int b) { return g.x_line(a, b); });
  }

  /// Retirement pass 1 (urgent columns [col0, col0 + v)): move the tail row
  /// into each winner's slot, update the maps, and record the swap sequence
  /// so pass 2 can replay it on the lazy columns. Winners' urgent values
  /// must have been consumed (tournament gather) before this runs.
  void retire_rows_urgent(index_t col0) {
    retire_pairs.clear();
    for (index_t w : winners) {
      const index_t i = rowpos[static_cast<std::size_t>(w)];
      const index_t last = --nact;
      if (i != last) {
        const index_t moved = rowmap[static_cast<std::size_t>(last)];
        const T* src = &trail(last, col0);
        std::copy(src, src + v, &trail(i, col0));
        rowmap[static_cast<std::size_t>(i)] = moved;
        rowpos[static_cast<std::size_t>(moved)] = i;
        retire_pairs.emplace_back(i, last);
        if (abft) {
          // The checksum state travels with its row (the lazy columns follow
          // in retire_rows_lazy, but the sums describe the whole row).
          abft_sum[static_cast<std::size_t>(i)] =
              abft_sum[static_cast<std::size_t>(last)];
          abft_panel[static_cast<std::size_t>(i)] =
              abft_panel[static_cast<std::size_t>(last)];
        }
      }
      rowpos[static_cast<std::size_t>(w)] = -1;
      rowmap[static_cast<std::size_t>(last)] = -1;
    }
    g_dm_pivot_retire.add(static_cast<double>(retire_pairs.size()) * 2.0 *
                          static_cast<double>(v) *
                          static_cast<double>(sizeof(T)));
  }

  /// Retirement pass 2: replay the recorded swaps, in order, on the lazy
  /// columns [col1, npad). Must run after the pivot-row gather (which reads
  /// the winners' lazy values from their original slots).
  void retire_rows_lazy(index_t col1) {
    for (const auto& [dst, src] : retire_pairs) {
      const T* s = &trail(src, col1);
      std::copy(s, s + (npad - col1), &trail(dst, col1));
    }
    g_dm_pivot_retire.add(static_cast<double>(retire_pairs.size()) * 2.0 *
                          static_cast<double>(npad - col1) *
                          static_cast<double>(sizeof(T)));
  }

  // Step-loop hooks (factor/step_loop.hpp).
  void init_state();
  void save_payload(recover::SnapshotWriter& w, index_t t);
  void restore_payload(recover::SnapshotReader& r, index_t t);
  void abft_init(index_t t);
  void abft_capture(index_t t) {
    abft_row_sums<T>(0, nact, abft_panel,
                     [&](index_t i) { return live_row(t, i).first(static_cast<std::size_t>(v)); });
  }
  void abft_verify(index_t t) {
    verify_abft_rows<T>(t, 0, nact, abft_sum,
                        [&](index_t i) { return live_row(t, i); }, "packed row");
  }
  T* bitflip_target(index_t t) { return nact > 0 ? &trail(0, t * v) : nullptr; }
  void step(index_t t, StepCostRecorder& rec);

  /// Packed row i's live trailing cells at step t: trail(i, t*v .. npad).
  std::span<const T> live_row(index_t t, index_t i) const {
    return {&trail(i, t * v), static_cast<std::size_t>(npad - t * v)};
  }
};

/// (Re)initialize the whole packed data path from the input: also the
/// rollback of last resort when ABFT detects corruption and no checkpoint
/// exists.
template <typename T>
void LuRun<T>::init_state() {
  umax = 0.0;
  health = FactorHealth{};
  health.min_pivot = std::numeric_limits<double>::infinity();
  // One parallel first-touch pass writes all of trail and lstore.
  amax = fill_workspace<T>(a, npad, /*lower=*/false, trail, &lstore);
  nact = npad;
  rowmap.resize(static_cast<std::size_t>(npad));
  rowpos.resize(static_cast<std::size_t>(npad));
  for (index_t i = 0; i < npad; ++i) {
    rowmap[static_cast<std::size_t>(i)] = i;
    rowpos[static_cast<std::size_t>(i)] = i;
  }
  tracker = RowTracker(npad, v, g.px());
  perm_pad.clear();
}

// ---------------------------------------------------------------------------
// Checkpoint/restart (DESIGN.md "Recovery model"). A snapshot captures the
// complete mid-run state at a drained step boundary: the scalar trackers,
// the health ledger, the elimination order so far (perm_pad — the row maps
// and the tracker are functions of it, but the maps are stored outright and
// the tracker replayed), the live region of the trailing accumulator, and
// the factor rows written so far. Restoring it and re-executing the
// remaining steps is bitwise identical to the uninterrupted run.
// ---------------------------------------------------------------------------

template <typename T>
void LuRun<T>::save_payload(recover::SnapshotWriter& w, index_t t) {
  w.put_i64(static_cast<std::int64_t>(nact));
  w.put_f64(amax);
  w.put_f64(umax);
  put_health(w, health);
  w.put_indices(perm_pad);
  w.put_indices(rowmap);
  w.put_indices(rowpos);
  // Trailing accumulator: only the live region (packed rows 0..nact, columns
  // t*v..npad) is ever read again. Rows are copied in parallel into their
  // fixed places in the payload (the byte order is the serial one).
  const index_t col0 = t * v;
  const auto live_bytes = static_cast<std::size_t>(npad - col0) * sizeof(T);
  std::uint8_t* live = w.put_space(static_cast<std::size_t>(nact) * live_bytes);
  sched::parallel_rows(nact, [&](index_t i) {
    std::memcpy(live + static_cast<std::size_t>(i) * live_bytes, &trail(i, col0),
                live_bytes);
  });
  // Factor store: an eliminated row (rowpos < 0) carries its full final row
  // (L left of its pivot block, U from it rightwards); a surviving row has
  // only its first t*v columns written (the L panels of past steps).
  std::vector<std::size_t> offset(static_cast<std::size_t>(npad) + 1, 0);
  for (index_t r = 0; r < npad; ++r) {
    const bool eliminated = rowpos[static_cast<std::size_t>(r)] < 0;
    const index_t cols = eliminated ? npad : col0;
    offset[static_cast<std::size_t>(r) + 1] =
        offset[static_cast<std::size_t>(r)] + static_cast<std::size_t>(cols) * sizeof(T);
  }
  std::uint8_t* store = w.put_space(offset.back());
  sched::parallel_rows(npad, [&](index_t r) {
    const auto ri = static_cast<std::size_t>(r);
    std::memcpy(store + offset[ri], &lstore(r, 0), offset[ri + 1] - offset[ri]);
  });
}

/// Every structural invariant of the payload is validated: a semantically
/// inconsistent snapshot is as invalid as a corrupt one.
template <typename T>
void LuRun<T>::restore_payload(recover::SnapshotReader& r, index_t t) {
  nact = static_cast<index_t>(r.get_i64());
  if (nact != npad - t * v) {
    snapshot_invalid("snapshot active-row count inconsistent with its step");
  }
  amax = r.get_f64();
  umax = r.get_f64();
  health = get_health(r, {StatusCode::kSingularPivot, StatusCode::kGrowthOverflow,
                          StatusCode::kNearSingularPivot});
  perm_pad = r.get_indices();
  if (static_cast<index_t>(perm_pad.size()) != t * v) {
    snapshot_invalid("snapshot elimination record does not match its step");
  }
  for (index_t row : perm_pad) {
    if (row < 0 || row >= npad) snapshot_invalid("snapshot pivot row out of range");
  }
  rowmap = r.get_indices();
  rowpos = r.get_indices();
  if (static_cast<index_t>(rowmap.size()) != npad ||
      static_cast<index_t>(rowpos.size()) != npad) {
    snapshot_invalid("snapshot row maps have the wrong shape");
  }
  for (index_t i = 0; i < nact; ++i) {
    const index_t row = rowmap[static_cast<std::size_t>(i)];
    if (row < 0 || row >= npad || rowpos[static_cast<std::size_t>(row)] != i) {
      snapshot_invalid("snapshot row maps are not a consistent bijection");
    }
  }
  for (index_t row = 0; row < npad; ++row) {
    const index_t pos = rowpos[static_cast<std::size_t>(row)];
    if (pos >= nact) snapshot_invalid("snapshot row position outside the live region");
  }
  const index_t col0 = t * v;
  const auto live_bytes = static_cast<std::size_t>(npad - col0) * sizeof(T);
  for (index_t i = 0; i < nact; ++i) {
    r.get_bytes(&trail(i, col0), live_bytes);
  }
  for (index_t row = 0; row < npad; ++row) {
    const bool eliminated = rowpos[static_cast<std::size_t>(row)] < 0;
    const index_t cols = eliminated ? npad : col0;
    if (cols > 0) {
      r.get_bytes(&lstore(row, 0), static_cast<std::size_t>(cols) * sizeof(T));
    }
  }
  // The tracker is a pure function of the elimination order: replay it in
  // the recorded v-row steps.
  tracker = RowTracker(npad, v, g.px());
  std::vector<index_t> chunk;
  chunk.reserve(static_cast<std::size_t>(v));
  for (index_t s = 0; s < t; ++s) {
    chunk.assign(perm_pad.begin() + s * v, perm_pad.begin() + (s + 1) * v);
    tracker.eliminate(chunk);
  }
  if (tracker.active_count() != nact) {
    snapshot_invalid("snapshot elimination record inconsistent with its row maps");
  }
}

// ---------------------------------------------------------------------------
// ABFT maintenance. Invariant at the top of step t: abft_sum[i] equals the
// row sum of packed row i's live region (columns [t*v, npad)) up to the
// rounding drift between the double-precision prediction and the
// T-precision Schur arithmetic. One step advances the invariant as
//   sum_{t+1}[i] = sum_t[i] - panel_t[i] - (A10_solved row i) . urow
// where panel_t[i] is the pre-trsm panel row sum (those columns leave the
// live region) and urow[k] sums the SOLVED pivot row k — the exact algebra
// of trail -= A10_solved * U_panel restricted to row sums.
// ---------------------------------------------------------------------------

// The per-row passes below run as sched::parallel_rows: each row's sum is
// still accumulated by one task in column order, so the predictions are
// the same bits at any width.

template <typename T>
void LuRun<T>::abft_init(index_t t) {
  abft_sum.assign(static_cast<std::size_t>(npad), 0.0);
  abft_panel.assign(static_cast<std::size_t>(npad), 0.0);
  abft_urow.assign(static_cast<std::size_t>(v), 0.0);
  abft_row_sums<T>(0, nact, abft_sum, [&](index_t i) { return live_row(t, i); });
}


/// Roll the predicted sums forward across this step's Schur update. Must run
/// after the A10 trsm (the live panel columns now hold the solved L values)
/// and after the pivot rows were solved; before the Schur tasks are REQUIRED
/// would be wrong — they only touch columns the prediction already models.
template <typename T>
void apply_abft_update(LuRun<T>& run, index_t t, ConstMatrixView<T> pivotrows,
                       index_t ncols) {
  if (ncols <= 0) return;
  sched::TaskPool::instance().parallel_for(run.v, [&](index_t k) {
    const T* row = pivotrows.row(k);
    double s = 0.0;
    for (index_t j = 0; j < ncols; ++j) s += static_cast<double>(row[j]);
    run.abft_urow[static_cast<std::size_t>(k)] = s;
  });
  const index_t col0 = t * run.v;
  sched::parallel_rows(run.nact, [&](index_t i) {
    const T* a10row = &run.trail(i, col0);
    double upd = 0.0;
    for (index_t k = 0; k < run.v; ++k) {
      upd += static_cast<double>(a10row[k]) *
             run.abft_urow[static_cast<std::size_t>(k)];
    }
    run.abft_sum[static_cast<std::size_t>(i)] -=
        run.abft_panel[static_cast<std::size_t>(i)] + upd;
  });
}

// ---------------------------------------------------------------------------
// Step 1: reduce the current block column across the Pz layers onto layer
// l_t. Per x-group the payload is that group's active rows times v.
// ---------------------------------------------------------------------------
template <typename T>
void reduce_block_column(LuRun<T>& run, index_t t) {
  prof::ScopedSpan span("reduce-column", static_cast<long long>(t));
  run.m.annotate("reduce-column");
  const int py = run.g.py();
  const int pz = run.g.pz();
  const int y_t = static_cast<int>(t) % py;
  const int l_t = static_cast<int>(t) % pz;
  if (pz > 1) {
    for (int x = 0; x < run.g.px(); ++x) {
      const index_t rows_x = run.tracker.count_for_x(x);
      if (rows_x == 0) continue;
      xsim::comm::reduce(run.m, run.z_line(x, y_t), static_cast<std::size_t>(l_t),
                         static_cast<double>(rows_x * run.v));
    }
  }
  // Real mode: nothing to execute — the packed workspace already holds the
  // reduced sums (the layer reduction is fused into the Schur update's
  // k-order), so the block column is simply trail columns [t*v, t*v + v).
  run.m.step_barrier();
}

// ---------------------------------------------------------------------------
// Step 2: tournament pivoting (butterfly over the Px column owners). Fills
// run.winners (pivot order) and, in Real mode, run.a00 with the factored
// leading block.
// ---------------------------------------------------------------------------
template <typename T>
void tournament_pivot(LuRun<T>& run, index_t t) {
  prof::ScopedSpan span("tournament-pivot", static_cast<long long>(t));
  run.m.annotate("tournament-pivot");
  const int px = run.g.px();
  const int py = run.g.py();
  const int pz = run.g.pz();
  const int y_t = static_cast<int>(t) % py;
  const int l_t = static_cast<int>(t) % pz;
  const auto& group = run.x_line(y_t, l_t);

  // Communication: log2(Px) butterfly rounds of the v x v candidate block
  // plus the v row indices; non-powers of two finish with a broadcast of the
  // root's winners (rank 0 always accumulates full information).
  const double payload = static_cast<double>(run.v * (run.v + 1));
  xsim::comm::butterfly(run.m, group, payload);
  if (!is_pow2(px) && px > 1) {
    xsim::comm::broadcast(run.m, group, 0, payload);
  }
  // Computation: the initial local ranking plus one 2v x v re-ranking per
  // butterfly round on every participant.
  const double rounds = px > 1 ? std::ceil(std::log2(static_cast<double>(px))) : 0.0;
  for (int x = 0; x < px; ++x) {
    const auto rows_x = static_cast<double>(run.tracker.count_for_x(x));
    const auto vv = static_cast<double>(run.v);
    run.m.charge_flops(group[static_cast<std::size_t>(x)],
                       rows_x * vv * vv + rounds * 2.0 * vv * vv * vv / 3.0);
  }

  run.winners.clear();
  if (!run.real) {
    run.winners = run.tracker.sample_active(run.v, run.trace_rng);
    run.m.step_barrier();
    return;
  }

  // Local candidate selection per x-group: one simulated column owner per
  // task, each ranking its own rows out of its per-run scratch (disjoint
  // outputs, zero steady-state allocations). Panel values are read straight
  // out of the packed workspace, and each task flags a non-finite one.
  PivotScratch<T>& s = run.scr;
  for (int x = 0; x < px; ++x) {
    run.tracker.rows_for_x_into(x, s.xrows[static_cast<std::size_t>(x)]);
  }
  sched::TaskPool::instance().parallel_for(px, [&](index_t x) {
    const auto xi = static_cast<std::size_t>(x);
    const auto& rows = s.xrows[xi];
    const auto nrows = static_cast<index_t>(rows.size());
    s.finite[xi] = 1;
    if (nrows == 0) {
      s.sets[xi].rows.clear();
      return;
    }
    Matrix<T>& gather = s.gather[xi];
    bool finite = true;
    for (index_t i = 0; i < nrows; ++i) {
      const index_t pi = run.rowpos[static_cast<std::size_t>(rows[static_cast<std::size_t>(i)])];
      for (index_t j = 0; j < run.v; ++j) {
        gather(i, j) = run.trail(pi, t * run.v + j);
        finite = finite && std::isfinite(static_cast<double>(gather(i, j)));
      }
    }
    s.finite[xi] = finite ? 1 : 0;
    // Panel columns read out of the trailing accumulator + gather write.
    g_dm_panel_gather.add(static_cast<double>(nrows) * 2.0 *
                          static_cast<double>(run.v) *
                          static_cast<double>(sizeof(T)));
    select_candidates<T>(rows, nrows, run.v, run.v, gather, s.rankwork[xi],
                         s.xipiv[xi], s.xperm[xi], s.sets[xi]);
  });
  // Hard breakdown, thrown here on the calling thread (never from inside
  // the pool). A non-finite value in the panel — an overflowed Schur
  // accumulation, a contaminated input that survived to this column, or an
  // injected poison — would otherwise rank arbitrarily and propagate
  // silently into the factors.
  if (std::find(s.finite.begin(), s.finite.end(), 0) != s.finite.end()) {
    throw status_error(Status(StatusCode::kNonFinite,
                              "non-finite value in the panel entering tournament pivoting",
                              static_cast<long long>(t)));
  }
  // Merge rounds along the accumulation tree of rank 0. The full butterfly
  // computes px/2 merges per round on every rank, but only the binomial
  // tree rooted at rank 0 ever reaches the final candidate set, and each
  // kept merge consumes exactly the sub-merges the butterfly would have fed
  // it — so the winners are identical and the dead merges are skipped.
  for (int mask = 1; mask < px; mask <<= 1) {
    for (int x = 0; x + mask < px; x += 2 * mask) {
      merge_candidates<T>(s.sets[static_cast<std::size_t>(x)],
                          s.sets[static_cast<std::size_t>(x + mask)], run.v,
                          run.v, s);
    }
  }
  CandSet<T>& final_set = s.sets[0];
  check(static_cast<index_t>(final_set.rows.size()) == run.v,
        "tournament must produce exactly v pivots");
  // Final ranking doubles as the A00 factorization (Table 1: A00's getrf is
  // free, it happens during TournPivot).
  copy<T>(final_set.values.block(0, 0, run.v, run.v), run.a00.view());
  xblas::getrf<T>(run.a00.view(), s.fipiv);
  if (fault::enabled() && fault::should_inject(fault::Site::kZeroPivot)) {
    run.a00(run.v - 1, run.v - 1) = T{};
  }
  // Pivot classification on U00's diagonal. An exactly-zero pivot before
  // the final tile is a HARD breakdown: getrf skipped that elimination and
  // the panel trsms below would divide by zero, poisoning the trailing
  // matrix. At the final tile no trsm follows — the zero stays on U's
  // diagonal (LAPACK info > 0 semantics) and the run degrades softly.
  for (index_t k = 0; k < run.v; ++k) {
    const double d = std::abs(static_cast<double>(run.a00(k, k)));
    if (d == 0.0) {
      ++run.health.singular_pivots;
      run.health.min_pivot = 0.0;
      run.soft_breakdown(StatusCode::kSingularPivot, t);
      if (t + 1 < run.num_tiles) {
        throw status_error(Status(
            StatusCode::kSingularPivot,
            "exactly singular pivot after tournament selection; the panel "
            "solves would divide by zero",
            static_cast<long long>(t)));
      }
      continue;
    }
    if (d < run.health.min_pivot) run.health.min_pivot = d;
    if (run.pivot_tol > 0.0 && d < run.pivot_tol * run.amax) {
      ++run.health.near_singular_pivots;
      run.soft_breakdown(StatusCode::kNearSingularPivot, t);
    }
  }
  xblas::ipiv_to_permutation(s.fipiv, run.v, s.fperm);
  for (index_t i = 0; i < run.v; ++i) {
    run.winners.push_back(
        final_set.rows[static_cast<std::size_t>(s.fperm[static_cast<std::size_t>(i)])]);
  }
  run.m.step_barrier();
}

// ---------------------------------------------------------------------------
// Step 3: broadcast A00 (v^2 words) and the pivot indices (v words) to all.
// ---------------------------------------------------------------------------
template <typename T>
void broadcast_a00(LuRun<T>& run, index_t t) {
  prof::ScopedSpan span("bcast-a00", static_cast<long long>(t));
  run.m.annotate("bcast-a00");
  const int y_t = static_cast<int>(t) % run.g.py();
  const int l_t = static_cast<int>(t) % run.g.pz();
  const int root = run.g.rank_of(0, y_t, l_t);
  xsim::comm::broadcast(run.m, run.all_ranks, static_cast<std::size_t>(root),
                        static_cast<double>(run.v * run.v + run.v));
  run.m.step_barrier();
}

// ---------------------------------------------------------------------------
// Steps 4 and 6: scatter the reduced panels into 1D distributions across all
// P ranks. Senders are the layer-l_t owners; aggregate charges keep this
// O(P) per step.
// ---------------------------------------------------------------------------
template <typename T>
void scatter_panel_1d(LuRun<T>& run, index_t t, bool row_panel, index_t items,
                      const std::vector<index_t>& pivots_per_x) {
  prof::ScopedSpan span(row_panel ? "scatter-a10" : "scatter-a01",
                        static_cast<long long>(t));
  run.m.annotate(row_panel ? "scatter-a10" : "scatter-a01");
  const int p = run.m.ranks();
  const int px = run.g.px();
  const int py = run.g.py();
  const int pz = run.g.pz();
  const int y_t = static_cast<int>(t) % py;
  const int l_t = static_cast<int>(t) % pz;
  if (row_panel) {
    // A10: items = active non-pivot rows, each of width v, leaving the
    // column-owner ranks (x, y_t, l_t).
    for (int x = 0; x < px; ++x) {
      const index_t rows_x = run.tracker.count_for_x(x);
      if (rows_x == 0) continue;
      run.m.charge_send(run.g.rank_of(x, y_t, l_t),
                        static_cast<double>(rows_x * run.v), approx_msgs(rows_x, p / px));
    }
  } else {
    // A01: items = trailing columns of the v pivot rows, leaving the tile
    // owners (x_piv, y, l_t): each pivot row's trailing segment lives on the
    // rank whose x matches the pivot row's tile residue.
    for (int x = 0; x < px; ++x) {
      const index_t npiv_x = pivots_per_x[static_cast<std::size_t>(x)];
      if (npiv_x == 0) continue;
      for (int y = 0; y < py; ++y) {
        const index_t cols_y =
            grid::cyclic_local_count(t + 1, run.num_tiles, y, py) * run.v;
        if (cols_y == 0) continue;
        run.m.charge_send(run.g.rank_of(x, y, l_t),
                          static_cast<double>(cols_y * npiv_x),
                          approx_msgs(cols_y, p / py));
      }
    }
  }
  for (int r = 0; r < p; ++r) {
    const index_t mine = chunk_size(items, p, r);
    if (mine == 0) continue;
    run.m.charge_recv(r, static_cast<double>(mine * run.v),
                      approx_msgs(mine, row_panel ? px : py));
  }
  run.m.step_barrier();
}

// ---------------------------------------------------------------------------
// Step 5: reduce the v pivot rows' trailing columns across the layers. In
// Real mode this gathers the winners' packed rows into this step's
// pivot-row workspace (the last read of those rows before they retire).
// ---------------------------------------------------------------------------
template <typename T>
void reduce_pivot_rows(LuRun<T>& run, index_t t, MatrixView<T>* pivotrows) {
  prof::ScopedSpan span("reduce-pivot-rows", static_cast<long long>(t));
  run.m.annotate("reduce-pivot-rows");
  const int py = run.g.py();
  const int pz = run.g.pz();
  const int l_t = static_cast<int>(t) % pz;
  const index_t ncols = (run.num_tiles - t - 1) * run.v;
  if (pz > 1 && ncols > 0) {
    // Pivot rows grouped by their tile-row owner x.
    for (int x = 0; x < run.g.px(); ++x) {
      const index_t nrows = run.pivots_per_x[static_cast<std::size_t>(x)];
      if (nrows == 0) continue;
      for (int y = 0; y < py; ++y) {
        const index_t cols_y =
            grid::cyclic_local_count(t + 1, run.num_tiles, y, py) * run.v;
        if (cols_y == 0) continue;
        xsim::comm::reduce(run.m, run.z_line(x, y), static_cast<std::size_t>(l_t),
                           static_cast<double>(nrows * cols_y));
      }
    }
  }
  if (run.real && ncols > 0) {
    *pivotrows = run.ws.template mat<T>(kPivotRows, run.v, ncols);
    sched::TaskPool::instance().parallel_for(
        run.v,
        [&](index_t l) {
          const index_t pi = run.winner_slots[static_cast<std::size_t>(l)];
          const T* src = &run.trail(pi, (t + 1) * run.v);
          std::copy(src, src + ncols, pivotrows->row(l));
        },
        "pivot-rows-gather", static_cast<long long>(t));
    // Winners' trailing rows read from the accumulator + workspace write.
    g_dm_pivot_rows_gather.add(static_cast<double>(run.v) * 2.0 *
                               static_cast<double>(ncols) *
                               static_cast<double>(sizeof(T)));
  }
  run.m.step_barrier();
}

// ---------------------------------------------------------------------------
// Steps 8 and 10: distribute the factored panels' k-slices to the 2.5D tile
// owners (aggregate charges; the dominant communication of the algorithm).
// ---------------------------------------------------------------------------
template <typename T>
void distribute_panels_2p5d(LuRun<T>& run, index_t t, index_t a10_rows) {
  prof::ScopedSpan span("distribute-2.5d", static_cast<long long>(t));
  run.m.annotate("distribute-2.5d");
  const int p = run.m.ranks();
  const int px = run.g.px();
  const int py = run.g.py();
  const int pz = run.g.pz();
  const index_t slice = run.v / pz;
  const index_t ncols = (run.num_tiles - t - 1) * run.v;

  // A10 (step 8): every row travels to the py*pz owners of its tile row,
  // each taking a v/pz slice.
  for (int r = 0; r < p; ++r) {
    const index_t mine = chunk_size(a10_rows, p, r);
    if (mine == 0) continue;
    run.m.charge_send(r, static_cast<double>(mine * run.v * py),
                      static_cast<long long>(py) * pz);
  }
  for (int x = 0; x < px; ++x) {
    const index_t rows_x = run.tracker.count_for_x(x);
    if (rows_x == 0) continue;
    for (int y = 0; y < py; ++y) {
      for (int z = 0; z < pz; ++z) {
        run.m.charge_recv(run.g.rank_of(x, y, z),
                          static_cast<double>(rows_x * slice), approx_msgs(rows_x, px));
      }
    }
  }
  // A01 (step 10): every trailing column travels to the px*pz owners of its
  // tile column.
  for (int r = 0; r < p; ++r) {
    const index_t mine = chunk_size(ncols, p, r);
    if (mine == 0) continue;
    run.m.charge_send(r, static_cast<double>(mine * run.v * px),
                      static_cast<long long>(px) * pz);
  }
  for (int y = 0; y < py; ++y) {
    const index_t cols_y = grid::cyclic_local_count(t + 1, run.num_tiles, y, py) * run.v;
    if (cols_y == 0) continue;
    for (int x = 0; x < px; ++x) {
      for (int z = 0; z < pz; ++z) {
        run.m.charge_recv(run.g.rank_of(x, y, z),
                          static_cast<double>(cols_y * slice), approx_msgs(cols_y, py));
      }
    }
  }
  run.m.step_barrier();
}

// ---------------------------------------------------------------------------
// Step 11: local Schur-complement update of each layer's partial sums.
// Layer z applies only its k-slice of A10 * A01 (the reduction-dimension
// parallelism of Figure 7). Real mode accumulates straight into the packed
// trailing workspace (beta = 1, alpha = -1 on strided views): gemm's
// ordered k loop realizes the pz k-slices in ascending z, which is exactly
// the layered partial-sum arithmetic.
//
// The update is decomposed — in the charges AND in the executed work —
// into the URGENT stripe (the next panel's v columns, the only data step
// t+1's tournament needs) and the LAZY remainder, each in fixed kRowBlock
// row blocks, so the factors agree bitwise at every width.
// ---------------------------------------------------------------------------
template <typename T>
void update_a11(LuRun<T>& run, index_t t, ConstMatrixView<T> pivotrows) {
  prof::ScopedSpan span("schur-update", static_cast<long long>(t));
  const int px = run.g.px();
  const int py = run.g.py();
  const int pz = run.g.pz();
  const index_t slice = run.v / pz;
  const index_t ncols = (run.num_tiles - t - 1) * run.v;
  const int y_u = static_cast<int>(t + 1) % py;  // owner of tile column t+1

  run.m.annotate("schur-update-urgent");
  if (ncols > 0) {
    for (int x = 0; x < px; ++x) {
      const auto rows_x = static_cast<double>(run.tracker.count_for_x(x));
      if (rows_x == 0.0) continue;
      for (int z = 0; z < pz; ++z) {
        run.m.charge_flops(run.g.rank_of(x, y_u, z),
                           2.0 * rows_x * static_cast<double>(run.v) *
                               static_cast<double>(slice));
      }
    }
  }
  run.m.annotate("schur-update-lazy");
  for (int x = 0; x < px; ++x) {
    const auto rows_x = static_cast<double>(run.tracker.count_for_x(x));
    if (rows_x == 0.0) continue;
    for (int y = 0; y < py; ++y) {
      const index_t cols_y =
          grid::cyclic_local_count(t + 1, run.num_tiles, y, py) * run.v;
      const index_t lazy_cols = cols_y - (y == y_u ? run.v : 0);
      if (lazy_cols <= 0) continue;
      for (int z = 0; z < pz; ++z) {
        run.m.charge_flops(run.g.rank_of(x, y, z),
                           2.0 * rows_x * static_cast<double>(lazy_cols) *
                               static_cast<double>(slice));
      }
    }
  }

  if (run.real && ncols > 0 && run.nact > 0) {
    const index_t nact = run.nact;
    ConstMatrixView<T> a10 = run.trail.block(0, t * run.v, nact, run.v);
    const index_t nblocks = sched::num_row_blocks(nact);
    const index_t lcols = ncols - run.v;
    // Measured Schur traffic per row-block task: each task reads its A10
    // block and the full right operand, and reads + writes its accumulator
    // block (beta = 1). The re-read of the shared right operand by every
    // block is real traffic, so it is counted per task, not once.
    const auto count_schur = [](index_t bn, index_t v, index_t cols) {
      if (!metrics::enabled()) return;
      const double sb = static_cast<double>(sizeof(T));
      g_dm_schur_operand.add(
          (static_cast<double>(bn) * static_cast<double>(v) +
           static_cast<double>(v) * static_cast<double>(cols)) * sb);
      g_dm_schur_update.add(2.0 * static_cast<double>(bn) *
                            static_cast<double>(cols) * sb);
    };
    const auto urgent_block = [&run, t, a10, pivotrows, nact,
                               count_schur](index_t blk) {
      const index_t i0 = blk * sched::kRowBlock;
      const index_t bn = std::min(sched::kRowBlock, nact - i0);
      count_schur(bn, run.v, run.v);
      xblas::gemm<T>(Trans::None, Trans::None, T{-1},
                     a10.block(i0, 0, bn, run.v),
                     pivotrows.block(0, 0, run.v, run.v), T{1},
                     run.trail.block(i0, (t + 1) * run.v, bn, run.v));
    };
    const auto lazy_block = [&run, t, a10, pivotrows, nact, lcols,
                             count_schur](index_t blk) {
      const index_t i0 = blk * sched::kRowBlock;
      const index_t bn = std::min(sched::kRowBlock, nact - i0);
      count_schur(bn, run.v, lcols);
      xblas::gemm<T>(Trans::None, Trans::None, T{-1},
                     a10.block(i0, 0, bn, run.v),
                     pivotrows.block(0, run.v, run.v, lcols), T{1},
                     run.trail.block(i0, (t + 1) * run.v + run.v, bn, lcols));
    };
    sched::TaskPool& pool = sched::TaskPool::instance();
    const auto step = static_cast<long long>(t);
    pool.parallel_for(nblocks, urgent_block, "schur-urgent", step);
    if (lcols > 0) pool.parallel_for(nblocks, lazy_block, "schur-lazy", step);
  }
  run.m.step_barrier();
}

// The step body (sub-steps 1-11 above), run by the step loop after its
// boundary hook.
template <typename T>
void LuRun<T>::step(index_t t, StepCostRecorder& rec) {
  rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops,
              [&] { reduce_block_column(*this, t); });

  if (real && nact > 0 && fault::enabled() &&
      fault::should_inject(fault::Site::kPanelNaN)) {
    trail(0, t * v) = std::numeric_limits<T>::quiet_NaN();
  }
  rec.measure(&StepCosts::pivoting_words, &StepCosts::pivoting_flops,
              [&] { tournament_pivot(*this, t); });
  rec.measure(&StepCosts::a00_words, &StepCosts::a00_flops,
              [&] { broadcast_a00(*this, t); });

  if (real) {
    // The winner rows' leading block is final: L below the diagonal and
    // U on/above, both stored by global row (row masking, no swaps).
    for (index_t l = 0; l < v; ++l) {
      const index_t row = winners[static_cast<std::size_t>(l)];
      for (index_t j = 0; j < v; ++j) lstore(row, t * v + j) = a00(l, j);
    }
    g_dm_panel_solve.add(2.0 * static_cast<double>(v) *
                         static_cast<double>(v) *
                         static_cast<double>(sizeof(T)));
    for (index_t l = 0; l < v; ++l) {
      for (index_t j = l; j < v; ++j) {
        const double d = std::abs(static_cast<double>(a00(l, j)));
        if (d > umax) umax = d;
      }
    }
    // Capture the winners' packed slots (the pivot-row gather reads their
    // lazy columns from here), then run the urgent retirement pass on the
    // panel's columns.
    winner_slots.clear();
    for (index_t w : winners) {
      winner_slots.push_back(rowpos[static_cast<std::size_t>(w)]);
    }
    retire_rows_urgent(t * v);
  }
  tracker.eliminate(winners);
  perm_pad.insert(perm_pad.end(), winners.begin(), winners.end());

  const index_t a10_rows = tracker.active_count();
  const index_t ncols = (num_tiles - t - 1) * v;
  std::fill(pivots_per_x.begin(), pivots_per_x.end(), 0);
  for (index_t w : winners) {
    ++pivots_per_x[static_cast<std::size_t>(tracker.x_of_row(w))];
  }
  if (real) {
    check(nact == a10_rows, "packed workspace out of sync with tracker");
  }

  // Steps 7 and 9 (real work): the 1D panel trsms, decomposed the way the
  // schedule distributes them — one chunk of A10 rows and one chunk of
  // A01 columns per simulated rank (row/column chunks of a triangular
  // solve are exact: Right-side solves are row-independent, Left-side
  // column-independent). A10 is solved IN PLACE in the packed workspace:
  // the solved values are both this step's L columns (copied to lstore)
  // and the Schur update's left operand.
  sched::TaskPool& pool = sched::TaskPool::instance();
  const int p = m.ranks();
  MatrixView<T> a10 = real ? trail.block(0, t * v, nact, v) : MatrixView<T>();
  const auto a10_chunk = [this, a10, a10_rows, p, t](index_t r) {
    const index_t lo = chunk_offset(a10_rows, p, static_cast<int>(r));
    const index_t cnt = chunk_size(a10_rows, p, static_cast<int>(r));
    if (cnt == 0) return;
    // A10 <- A10 * U00^{-1}: final L columns of the surviving rows.
    xblas::trsm<T>(Side::Right, UpLo::Upper, Trans::None, Diag::NonUnit,
                   T{1}, a00.view(), a10.block(lo, 0, cnt, v));
    for (index_t i = lo; i < lo + cnt; ++i) {
      const index_t row = rowmap[static_cast<std::size_t>(i)];
      for (index_t j = 0; j < v; ++j) lstore(row, t * v + j) = a10(i, j);
    }
    // trsm read+write of the chunk, the U00 operand, and the lstore copy.
    g_dm_panel_solve.add(
        (4.0 * static_cast<double>(cnt) * static_cast<double>(v) +
         static_cast<double>(v) * static_cast<double>(v)) *
        static_cast<double>(sizeof(T)));
  };

  // Step 4: scatter A10; step 5: reduce pivot rows; step 6: scatter A01.
  rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops, [&] {
    scatter_panel_1d(*this, t, /*row_panel=*/true, a10_rows, pivots_per_x);
  });
  MatrixView<T> pivotrows;
  rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops,
              [&] { reduce_pivot_rows(*this, t, &pivotrows); });
  if (real && ncols > 0) {
    // The winners' packed rows are fully consumed (a00 via the
    // tournament, trailing columns via the gather above): replay the
    // retirement swaps on the lazy columns (the last step has none), so
    // the Schur update below sees one contiguous block of survivor rows.
    retire_rows_lazy((t + 1) * v);
  }
  rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops, [&] {
    scatter_panel_1d(*this, t, /*row_panel=*/false, ncols, pivots_per_x);
  });

  // Steps 7 and 9 (charges): the two panel trsms.
  rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops, [&] {
    prof::ScopedSpan span("panel-trsm", static_cast<long long>(t));
    m.annotate("panel-trsm");
    for (int r = 0; r < p; ++r) {
      const double rows_r = static_cast<double>(chunk_size(a10_rows, p, r));
      const double cols_r = static_cast<double>(chunk_size(ncols, p, r));
      const auto vv = static_cast<double>(v);
      if (rows_r > 0) m.charge_flops(r, rows_r * vv * vv);
      if (cols_r > 0) m.charge_flops(r, cols_r * vv * vv);
    }
    if (real) {
      const auto step = static_cast<long long>(t);
      if (a10_rows > 0) pool.parallel_for(p, a10_chunk, "panel-trsm-a10", step);
      if (ncols > 0) {
        // A01 <- L00^{-1} * A01: final U rows of the pivots. Each chunk
        // then scans its solved columns read-only (non-finite flag and
        // max|U| for the growth factor) while they are still in cache.
        pool.parallel_for(
            p,
            [&](index_t r) {
              const index_t lo = chunk_offset(ncols, p, static_cast<int>(r));
              const index_t cnt = chunk_size(ncols, p, static_cast<int>(r));
              MagnitudeScan scan;
              if (cnt > 0) {
                xblas::trsm<T>(Side::Left, UpLo::Lower, Trans::None, Diag::Unit,
                               T{1}, a00.view(), pivotrows.block(0, lo, v, cnt));
                for (index_t l = 0; l < v; ++l) scan.add(pivotrows.row(l) + lo, cnt);
              }
              uscan[static_cast<std::size_t>(r)] = scan;
            },
            "panel-trsm-a01", step);
        pool.parallel_for(
            v,
            [&](index_t l) {
              const index_t row = winners[static_cast<std::size_t>(l)];
              for (index_t j = 0; j < ncols; ++j) {
                lstore(row, (t + 1) * v + j) = pivotrows(l, j);
              }
            },
            "store-u-rows", step);
        // A01 trsm read+write, the L00 operand, and the lstore copy.
        g_dm_panel_solve.add(
            (4.0 * static_cast<double>(v) * static_cast<double>(ncols) +
             static_cast<double>(v) * static_cast<double>(v)) *
            static_cast<double>(sizeof(T)));
        // Reduce the chunk scans on the master: hard error on a
        // non-finite value, running max|U| for the growth factor.
        MagnitudeScan total;
        for (const MagnitudeScan& c : uscan) total.merge(c);
        if (!total.finite) {
          throw status_error(Status(StatusCode::kNonFinite,
                                    "non-finite value in the factored pivot rows",
                                    static_cast<long long>(t)));
        }
        if (total.amax > umax) umax = total.amax;
      }
    }
    m.step_barrier();
  });
  if (real && amax > 0.0 && umax > growth_lim * amax &&
      health.code != StatusCode::kGrowthOverflow) {
    soft_breakdown(StatusCode::kGrowthOverflow, t);
  }
  if (abft) {
    // Advance the row-sum checksums to cover the post-update trailing
    // accumulator: sum'[i] = sum[i] - panel[i] - (solved A10 row i)·urow.
    apply_abft_update<T>(*this, t, pivotrows, ncols);
  }

  // Steps 8 and 10: 2.5D distribution; step 11: the Schur update.
  rec.measure(&StepCosts::a11_words, &StepCosts::a11_flops,
              [&] { distribute_panels_2p5d(*this, t, a10_rows); });
  rec.measure(&StepCosts::a11_words, &StepCosts::a11_flops,
              [&] { update_a11<T>(*this, t, pivotrows); });
}

template <typename T>
LuResultT<T> run_conflux_lu(xsim::Machine& m, const grid::Grid3D& g, index_t n,
                            ConstMatrixView<T> a, const FactorOptions& opt,
                            bool resume = false) {
  expects(g.ranks() == m.ranks(), "grid must match the machine");
  expects(n >= 1, "matrix must be non-empty");
  index_t v = opt.block_size > 0 ? opt.block_size : default_block_size(n, g);
  expects(v % g.pz() == 0, "block size must be a multiple of the layer count");

  LuRun<T> run(m, g, n, v, a);
  run.trace_rng.reseed(opt.trace_pivot_seed);
  const index_t npad = run.npad;

  // Memory accounting: every rank holds its layer's share of the tile grid
  // (npad^2 * c / P words total across layers) plus panel buffers.
  const double tile_words =
      static_cast<double>(npad) * static_cast<double>(npad) /
      (static_cast<double>(g.px()) * static_cast<double>(g.py()));
  const double panel_words = 3.0 * static_cast<double>(npad * v) /
                                 static_cast<double>(m.ranks()) +
                             static_cast<double>(v * v);
  StepLoop loop(m, opt, run.real, tile_words + panel_words);

  run.perm_pad.reserve(static_cast<std::size_t>(npad));
  if (run.real) {
    prof::ScopedSpan span("factor-setup");
    expects(a.rows() == n && a.cols() == n, "matrix must be square");
    run.pivot_tol = opt.pivot_tolerance;
    run.growth_lim =
        opt.growth_limit > 0.0 ? opt.growth_limit : default_growth_limit<T>();
    run.init_state();
    // Size every per-step scratch buffer at its step-0 high-water mark:
    // the steady state of the factorization allocates nothing (asserted in
    // packed_factor_test).
    run.winners.reserve(static_cast<std::size_t>(v));
    run.winner_slots.reserve(static_cast<std::size_t>(v));
    run.retire_pairs.reserve(static_cast<std::size_t>(v));
    run.a00 = Matrix<T>(v, v);
    const auto px = static_cast<std::size_t>(g.px());
    PivotScratch<T>& s = run.scr;
    s.xrows.resize(px);
    s.gather.resize(px);
    s.finite.resize(px);
    s.rankwork.resize(px);
    s.xipiv.resize(px);
    s.xperm.resize(px);
    s.sets.resize(px);
    for (std::size_t x = 0; x < px; ++x) {
      const index_t cap =
          std::max<index_t>(run.tracker.count_for_x(static_cast<int>(x)), 1);
      s.xrows[x].reserve(static_cast<std::size_t>(cap));
      s.gather[x] = Matrix<T>(cap, v);
      s.rankwork[x] = Matrix<T>(cap, v);
      s.xipiv[x].reserve(static_cast<std::size_t>(v));
      s.xperm[x].reserve(static_cast<std::size_t>(cap));
      s.sets[x].rows.reserve(static_cast<std::size_t>(v));
      s.sets[x].values = Matrix<T>(v, v);
    }
    s.mrows.reserve(static_cast<std::size_t>(2 * v));
    s.stacked = Matrix<T>(2 * v, v);
    s.ranked = Matrix<T>(2 * v, v);
    s.mipiv.reserve(static_cast<std::size_t>(v));
    s.mperm.reserve(static_cast<std::size_t>(2 * v));
    s.fipiv.reserve(static_cast<std::size_t>(v));
    s.fperm.reserve(static_cast<std::size_t>(v));
    run.uscan.resize(static_cast<std::size_t>(m.ranks()));
  }
  run.pivots_per_x.assign(static_cast<std::size_t>(g.px()), 0);
  run.abft = loop.abft();

  // Dependency-chain rounds per outer iteration (latency model): two layer
  // reductions, the tournament butterfly, the A00 broadcast, and the four
  // panel scatter/distribute hops. O(N/v) total chain depth — the latency
  // win of tournament pivoting over per-column partial pivoting.
  const double chain_per_step =
      2.0 * std::ceil(std::log2(static_cast<double>(std::max(2, g.pz())))) +
      2.0 * std::ceil(std::log2(static_cast<double>(std::max(2, g.px())))) +
      std::ceil(std::log2(static_cast<double>(std::max(2, m.ranks())))) + 4.0;

  LuResultT<T> result;
  loop.run(run, resume, chain_per_step, result.step_costs);

  // Assemble the user-facing permutation and factors (drop the padding).
  result.perm.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < npad; ++i) {
    const index_t row = run.perm_pad[static_cast<std::size_t>(i)];
    if (row < n) result.perm.push_back(row);
  }
  check(static_cast<index_t>(result.perm.size()) == n, "permutation must cover all rows");
  if (run.real) {
    prof::ScopedSpan span("factor-handoff");
    check(std::all_of(run.perm_pad.begin(), run.perm_pad.begin() + n,
                      [&](index_t r) { return r < n; }),
          "real rows must be eliminated before padding rows");
    result.workspace_words =
        (static_cast<double>(run.trail.size()) +
         static_cast<double>(run.lstore.size())) * words_per_scalar<T>() +
        run.ws.words();
    // trail is dead after the step loop: gather the factor rows into its
    // leading rows in output order, drop lstore, and hand trail's buffer
    // to the result.
    sched::parallel_rows(n, [&](index_t i) {
      const T* src = &run.lstore(result.perm[static_cast<std::size_t>(i)], 0);
      std::copy(src, src + n, &run.trail(i, 0));
    });
    run.lstore = Matrix<T>();
    result.factors = hand_off_factors(std::move(run.trail), n);
    run.health.growth_factor = run.amax > 0.0 ? run.umax / run.amax : 0.0;
    if (!std::isfinite(run.health.min_pivot)) run.health.min_pivot = 0.0;
    result.health = run.health;
  }
  return result;
}

}  // namespace

LuResult conflux_lu(xsim::Machine& m, const grid::Grid3D& g, ConstViewD a,
                    const FactorOptions& opt) {
  expects(m.real(), "conflux_lu with a matrix requires Real mode");
  return run_conflux_lu<double>(m, g, a.rows(), a, opt);
}

LuResultF conflux_lu(xsim::Machine& m, const grid::Grid3D& g, ConstViewF a,
                     const FactorOptions& opt) {
  expects(m.real(), "conflux_lu with a matrix requires Real mode");
  return run_conflux_lu<float>(m, g, a.rows(), a, opt);
}

Result<LuResult> try_conflux_lu(xsim::Machine& m, const grid::Grid3D& g,
                                ConstViewD a, const FactorOptions& opt) {
  return try_factor("try_conflux_lu", run_conflux_lu<double>, m, g, a, opt);
}

Result<LuResultF> try_conflux_lu(xsim::Machine& m, const grid::Grid3D& g,
                                 ConstViewF a, const FactorOptions& opt) {
  return try_factor("try_conflux_lu", run_conflux_lu<float>, m, g, a, opt);
}

LuResult resume_conflux_lu(xsim::Machine& m, const grid::Grid3D& g, ConstViewD a,
                           const FactorOptions& opt) {
  expects(m.real(), "resume_conflux_lu requires Real mode");
  return run_conflux_lu<double>(m, g, a.rows(), a, opt, /*resume=*/true);
}

LuResultF resume_conflux_lu(xsim::Machine& m, const grid::Grid3D& g,
                            ConstViewF a, const FactorOptions& opt) {
  expects(m.real(), "resume_conflux_lu requires Real mode");
  return run_conflux_lu<float>(m, g, a.rows(), a, opt, /*resume=*/true);
}

Result<LuResult> try_resume_conflux_lu(xsim::Machine& m, const grid::Grid3D& g,
                                       ConstViewD a, const FactorOptions& opt) {
  return try_factor("try_conflux_lu", run_conflux_lu<double>, m, g, a, opt, /*resume=*/true);
}

Result<LuResultF> try_resume_conflux_lu(xsim::Machine& m, const grid::Grid3D& g,
                                        ConstViewF a, const FactorOptions& opt) {
  return try_factor("try_conflux_lu", run_conflux_lu<float>, m, g, a, opt, /*resume=*/true);
}

LuResult conflux_lu_trace(xsim::Machine& m, const grid::Grid3D& g, index_t n,
                          const FactorOptions& opt) {
  expects(!m.real(), "conflux_lu_trace requires Trace mode");
  return run_conflux_lu<double>(m, g, n, ConstViewD(), opt);
}

template <typename T>
void conflux_lu_solve(const LuResultT<T>& lu, MatrixView<T> b) {
  const index_t n = lu.factors.rows();
  expects(n > 0, "solve requires Real-mode factors");
  expects(b.rows() == n, "right-hand side must match the matrix");
  // Apply the permutation, then one pair of blocked trsm panel solves over
  // the whole multi-RHS panel.
  Matrix<T> pb(n, b.cols());
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < b.cols(); ++j) {
      pb(i, j) = b(lu.perm[static_cast<std::size_t>(i)], j);
    }
  }
  xblas::trsm<T>(Side::Left, UpLo::Lower, Trans::None, Diag::Unit, T{1},
                 lu.factors.view(), pb.view());
  xblas::trsm<T>(Side::Left, UpLo::Upper, Trans::None, Diag::NonUnit, T{1},
                 lu.factors.view(), pb.view());
  copy<T>(pb.view(), b);
}

template void conflux_lu_solve<float>(const LuResultF&, ViewF);
template void conflux_lu_solve<double>(const LuResult&, ViewD);

}  // namespace conflux::factor
