#include "factor/conflux_lu.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

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

bool is_pow2(int n) { return std::has_single_bit(static_cast<unsigned>(n)); }

// Measured data movement at the Real-path hot spots (DESIGN.md
// "Observability"): bytes actually moved by this schedule's workspace
// machinery, each operand touch counted once per use. The Schur gemm's
// pack-buffer traffic is counted inside xblas::gemm; these cover the
// copies around it. Every add is strictly read-only on the data path —
// a healthy run's factors are bitwise those of a metrics-disabled run.
const metrics::Counter g_dm_panel_gather("dm.panel_gather.bytes");
const metrics::Counter g_dm_pivot_merge("dm.pivot_merge.bytes");
const metrics::Counter g_dm_pivot_rows_gather("dm.pivot_rows_gather.bytes");
const metrics::Counter g_dm_pivot_retire("dm.pivot_retire.bytes");
const metrics::Counter g_dm_panel_solve("dm.panel_solve.bytes");
const metrics::Counter g_dm_schur_operand("dm.schur_operand.bytes");
const metrics::Counter g_dm_schur_update("dm.schur_update.bytes");

// Recovery instrumentation (DESIGN.md "Recovery model"): checkpoint
// serialization time and restore count, plus the ABFT verification ledger.
// recover_test reconciles detected/reexec against the injected bitflips.
// Registration is idempotent by name, so the Cholesky core declaring the
// same counters shares the cells.
const metrics::Counter g_ckpt_seconds("recover.ckpt.seconds");
const metrics::Counter g_ckpt_restores("recover.ckpt.restores");
const metrics::Counter g_abft_verified("recover.abft.verified");
const metrics::Counter g_abft_detected("recover.abft.detected");
const metrics::Counter g_abft_reexec("recover.abft.reexec");

/// In-run re-execution budget for ABFT-detected corruption: enough to ride
/// out a noisy soak (each re-execution re-verifies everything it replays),
/// small enough that persistent corruption — a genuinely broken machine —
/// still surfaces as kDataCorruption instead of looping forever.
constexpr int kMaxAbftReexecs = 8;

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

/// Workspace slot ids (tensor/workspace.hpp arena). The pivot-row panel is
/// double-buffered: with lookahead, step t's lazy Schur tasks still read
/// slot t%2 while step t+1 gathers into the other slot.
enum WsSlot : std::size_t { kPivotRows0 = 0, kPivotRows1 = 1 };

/// The whole mutable state of one factorization run, templated on the
/// factor scalar (the Trace entry point instantiates the double core with
/// no data; Real mode exists for float and double).
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
///     masking writes results in place, never moving rows).
/// Eliminated rows retire once per step by swapping the tail row into their
/// slot; with lookahead the retirement is split into an urgent pass (the
/// next panel's columns, unblocked by the previous step's urgent stripe)
/// and a lazy pass replaying the same swaps on the remaining columns once
/// the previous step's lazy remainder has landed.
///
/// Execution (DESIGN.md "Pipelined execution"): the Schur update is always
/// decomposed into an URGENT stripe (the next panel's v columns) and a LAZY
/// remainder, both in fixed kRowBlock row-block tasks — the decomposition,
/// and therefore every factor bit, is identical whether the tasks run
/// step-synchronously (parallel_for) or pipelined on the persistent
/// TaskPool with cross-step dependencies (lookahead_enabled).
template <typename T>
struct LuRun {
  xsim::Machine& m;
  const grid::Grid3D& g;
  index_t n = 0;     // original size
  index_t npad = 0;  // padded size (multiple of v)
  index_t v = 0;
  index_t num_tiles = 0;  // npad / v
  bool real = false;
  bool la = false;  // lookahead pipelining on the task pool

  RowTracker tracker;
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

  // Lookahead task handles (empty when la == false).
  std::vector<sched::TaskId> a10_ids, urgent_ids, lazy_ids;

  // Breakdown monitoring (DESIGN.md "Failure model"): strictly read-only on
  // the data path — a healthy run's factors are bitwise those of a run with
  // monitoring removed. amax/umax feed the growth factor; thresholds are
  // resolved once from FactorOptions.
  double amax = 0.0;  // max|A| over the (finite) input
  double umax = 0.0;  // running max|U| over factored pivot rows
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

  LuRun(xsim::Machine& machine, const grid::Grid3D& grid, index_t size, index_t block)
      : m(machine),
        g(grid),
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
  /// columns [col1, npad). Must run after the previous step's lazy Schur
  /// tasks (which write those columns) and after the pivot-row gather
  /// (which reads the winners' lazy values from their original slots).
  void retire_rows_lazy(index_t col1) {
    for (const auto& [dst, src] : retire_pairs) {
      const T* s = &trail(src, col1);
      std::copy(s, s + (npad - col1), &trail(dst, col1));
    }
    g_dm_pivot_retire.add(static_cast<double>(retire_pairs.size()) * 2.0 *
                          static_cast<double>(npad - col1) *
                          static_cast<double>(sizeof(T)));
  }
};

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
recover::SnapshotKey lu_snapshot_key(const LuRun<T>& run) {
  recover::SnapshotKey key;
  key.kind = recover::FactorKind::kLu;
  key.scalar = sizeof(T) == sizeof(double) ? 'd' : 'f';
  key.n = static_cast<std::int64_t>(run.n);
  key.v = static_cast<std::int64_t>(run.v);
  key.px = run.g.px();
  key.py = run.g.py();
  key.pz = run.g.pz();
  return key;
}

template <typename T>
void save_lu_snapshot(LuRun<T>& run, index_t t,
                      const std::vector<index_t>& perm_pad) {
  recover::SnapshotWriter w(lu_snapshot_key(run), static_cast<std::int64_t>(t));
  // At step 0 every byte of the state is a pure function of the input the
  // resume entry point is handed anyway, so the snapshot is an empty marker
  // — it proves "a resumable point exists" without serializing the full
  // trailing matrix (the largest snapshot of the whole run, for free).
  if (t == 0) {
    recover::store_blob(lu_snapshot_key(run), std::move(w).seal());
    return;
  }
  w.put_i64(static_cast<std::int64_t>(run.nact));
  w.put_f64(run.amax);
  w.put_f64(run.umax);
  w.put_i64(static_cast<std::int64_t>(run.health.code));
  w.put_i64(run.health.first_breakdown_step);
  w.put_i64(run.health.singular_pivots);
  w.put_i64(run.health.near_singular_pivots);
  w.put_f64(run.health.growth_factor);
  w.put_f64(run.health.min_pivot);
  w.put_indices(perm_pad);
  w.put_indices(run.rowmap);
  w.put_indices(run.rowpos);
  // Trailing accumulator: only the live region (packed rows 0..nact, columns
  // t*v..npad) is ever read again.
  const index_t col0 = t * run.v;
  const auto live_bytes = static_cast<std::size_t>(run.npad - col0) * sizeof(T);
  for (index_t i = 0; i < run.nact; ++i) {
    w.put_bytes(&run.trail(i, col0), live_bytes);
  }
  // Factor store: an eliminated row (rowpos < 0) carries its full final row
  // (L left of its pivot block, U from it rightwards); a surviving row has
  // only its first t*v columns written (the L panels of past steps).
  for (index_t r = 0; r < run.npad; ++r) {
    const bool eliminated = run.rowpos[static_cast<std::size_t>(r)] < 0;
    const index_t cols = eliminated ? run.npad : col0;
    if (cols > 0) {
      w.put_bytes(&run.lstore(r, 0), static_cast<std::size_t>(cols) * sizeof(T));
    }
  }
  recover::store_blob(lu_snapshot_key(run), std::move(w).seal());
}

/// Restore the latest snapshot into `run` (whose buffers were freshly
/// initialized from the input) and return the step to resume from. Every
/// structural invariant of the payload is validated — a corrupt or
/// semantically inconsistent snapshot throws kCheckpointInvalid rather than
/// walking out of bounds later.
template <typename T>
index_t restore_lu_snapshot(LuRun<T>& run, std::vector<index_t>& perm_pad) {
  const recover::SnapshotKey key = lu_snapshot_key(run);
  const auto bad = [](const std::string& what) {
    throw status_error(Status(StatusCode::kCheckpointInvalid, what));
  };
  const recover::Blob blob = recover::latest_blob(key);
  if (blob.empty()) bad("no checkpoint to resume " + key.to_string() + " from");
  recover::SnapshotReader r(key, blob);
  const auto t = static_cast<index_t>(r.step());
  if (t >= run.num_tiles) bad("snapshot step past the end of the schedule");
  // A step-0 snapshot is an empty marker: the caller owns re-deriving the
  // state from the input (the resume entry already initialized it; the
  // in-run rollback path re-runs its init explicitly).
  if (t == 0) {
    if (r.remaining() != 0) bad("step-0 snapshot must be an empty marker");
    return 0;
  }
  run.nact = static_cast<index_t>(r.get_i64());
  if (run.nact != run.npad - t * run.v) {
    bad("snapshot active-row count inconsistent with its step");
  }
  run.amax = r.get_f64();
  run.umax = r.get_f64();
  const auto code = static_cast<StatusCode>(r.get_i64());
  if (code != StatusCode::kOk && breakdown_severity(code) == 0) {
    bad("snapshot health carries a code no factorization records");
  }
  run.health.code = code;
  run.health.first_breakdown_step = r.get_i64();
  run.health.singular_pivots = r.get_i64();
  run.health.near_singular_pivots = r.get_i64();
  run.health.growth_factor = r.get_f64();
  run.health.min_pivot = r.get_f64();
  perm_pad = r.get_indices();
  if (static_cast<index_t>(perm_pad.size()) != t * run.v) {
    bad("snapshot elimination record does not match its step");
  }
  for (index_t row : perm_pad) {
    if (row < 0 || row >= run.npad) bad("snapshot pivot row out of range");
  }
  run.rowmap = r.get_indices();
  run.rowpos = r.get_indices();
  if (static_cast<index_t>(run.rowmap.size()) != run.npad ||
      static_cast<index_t>(run.rowpos.size()) != run.npad) {
    bad("snapshot row maps have the wrong shape");
  }
  for (index_t i = 0; i < run.nact; ++i) {
    const index_t row = run.rowmap[static_cast<std::size_t>(i)];
    if (row < 0 || row >= run.npad ||
        run.rowpos[static_cast<std::size_t>(row)] != i) {
      bad("snapshot row maps are not a consistent bijection");
    }
  }
  for (index_t row = 0; row < run.npad; ++row) {
    const index_t pos = run.rowpos[static_cast<std::size_t>(row)];
    if (pos >= run.nact) bad("snapshot row position outside the live region");
  }
  const index_t col0 = t * run.v;
  const auto live_bytes = static_cast<std::size_t>(run.npad - col0) * sizeof(T);
  for (index_t i = 0; i < run.nact; ++i) {
    r.get_bytes(&run.trail(i, col0), live_bytes);
  }
  for (index_t row = 0; row < run.npad; ++row) {
    const bool eliminated = run.rowpos[static_cast<std::size_t>(row)] < 0;
    const index_t cols = eliminated ? run.npad : col0;
    if (cols > 0) {
      r.get_bytes(&run.lstore(row, 0), static_cast<std::size_t>(cols) * sizeof(T));
    }
  }
  // The tracker is a pure function of the elimination order: replay it in
  // the recorded v-row steps.
  run.tracker = RowTracker(run.npad, run.v, run.g.px());
  std::vector<index_t> chunk;
  chunk.reserve(static_cast<std::size_t>(run.v));
  for (index_t s = 0; s < t; ++s) {
    chunk.assign(perm_pad.begin() + s * run.v,
                 perm_pad.begin() + (s + 1) * run.v);
    run.tracker.eliminate(chunk);
  }
  if (run.tracker.active_count() != run.nact) {
    bad("snapshot elimination record inconsistent with its row maps");
  }
  return t;
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

template <typename T>
void init_abft_sums(LuRun<T>& run, index_t t) {
  run.abft_sum.assign(static_cast<std::size_t>(run.npad), 0.0);
  run.abft_panel.assign(static_cast<std::size_t>(run.npad), 0.0);
  run.abft_urow.assign(static_cast<std::size_t>(run.v), 0.0);
  const index_t col0 = t * run.v;
  const index_t width = run.npad - col0;
  for (index_t i = 0; i < run.nact; ++i) {
    const T* row = &run.trail(i, col0);
    double s = 0.0;
    for (index_t j = 0; j < width; ++j) s += static_cast<double>(row[j]);
    run.abft_sum[static_cast<std::size_t>(i)] = s;
  }
}

template <typename T>
void capture_abft_panel(LuRun<T>& run, index_t t) {
  const index_t col0 = t * run.v;
  for (index_t i = 0; i < run.nact; ++i) {
    const T* row = &run.trail(i, col0);
    double s = 0.0;
    for (index_t j = 0; j < run.v; ++j) s += static_cast<double>(row[j]);
    run.abft_panel[static_cast<std::size_t>(i)] = s;
  }
}

/// Roll the predicted sums forward across this step's Schur update. Must run
/// after the A10 trsm (the live panel columns now hold the solved L values)
/// and after the pivot rows were solved; before the Schur tasks are REQUIRED
/// would be wrong — they only touch columns the prediction already models.
template <typename T>
void apply_abft_update(LuRun<T>& run, index_t t, ConstMatrixView<T> pivotrows,
                       index_t ncols) {
  if (ncols <= 0) return;
  for (index_t k = 0; k < run.v; ++k) {
    const T* row = pivotrows.row(k);
    double s = 0.0;
    for (index_t j = 0; j < ncols; ++j) s += static_cast<double>(row[j]);
    run.abft_urow[static_cast<std::size_t>(k)] = s;
  }
  const index_t col0 = t * run.v;
  for (index_t i = 0; i < run.nact; ++i) {
    const T* a10row = &run.trail(i, col0);
    double upd = 0.0;
    for (index_t k = 0; k < run.v; ++k) {
      upd += static_cast<double>(a10row[k]) *
             run.abft_urow[static_cast<std::size_t>(k)];
    }
    run.abft_sum[static_cast<std::size_t>(i)] -=
        run.abft_panel[static_cast<std::size_t>(i)] + upd;
  }
}

/// Read-only verification of the invariant. The tolerance is deliberately
/// loose — 5% of the row's absolute mass — because it only needs to separate
/// rounding drift (orders of magnitude below it) from real corruption (the
/// kBitflip site produces non-finite or grossly out-of-range values, which
/// no tolerance admits; the negated comparison catches NaN).
/// One row's verification scan. Four independent accumulator pairs break the
/// add-latency dependency chain (the scan is bandwidth-bound, not
/// order-sensitive: the comparison is against a 5% tolerance, never bitwise).
template <typename T>
bool abft_row_ok(const T* row, index_t width, double predicted) {
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

template <typename T>
void verify_abft(LuRun<T>& run, index_t t) {
  g_abft_verified.add(1.0);
  const index_t col0 = t * run.v;
  const index_t width = run.npad - col0;
  // The scan reads the whole live region every step — serial it alone would
  // eat the bench's ABFT overhead budget at n=2048. The pool is drained at
  // this point (the hook waits before verifying), so row chunks fan out
  // across it; each row is scanned by exactly one task, so the verdict is
  // identical at any thread count. The lowest bad packed row is reported.
  constexpr index_t kRowsPerChunk = 128;
  const index_t nchunks = (run.nact + kRowsPerChunk - 1) / kRowsPerChunk;
  std::atomic<index_t> bad{run.nact};
  sched::TaskPool::instance().parallel_for(nchunks, [&](index_t c) {
    const index_t lo = c * kRowsPerChunk;
    const index_t hi = std::min(run.nact, lo + kRowsPerChunk);
    for (index_t i = lo; i < hi; ++i) {
      if (abft_row_ok(&run.trail(i, col0), width,
                      run.abft_sum[static_cast<std::size_t>(i)])) {
        continue;
      }
      index_t seen = bad.load(std::memory_order_relaxed);
      while (i < seen &&
             !bad.compare_exchange_weak(seen, i, std::memory_order_relaxed)) {
      }
      break;
    }
  });
  const index_t bad_row = bad.load(std::memory_order_relaxed);
  if (bad_row < run.nact) {
    g_abft_detected.add(1.0);
    throw status_error(Status(
        StatusCode::kDataCorruption,
        "ABFT row-sum mismatch in the trailing accumulator (packed row " +
            std::to_string(bad_row) + ")",
        static_cast<long long>(t)));
  }
}

// Approximate peer counts for the latency term of aggregated charges
// (documented in DESIGN.md; only alpha-cost, not volume, depends on these).
long long approx_msgs(index_t items, int peers) {
  return std::min<long long>(static_cast<long long>(std::max<index_t>(items, 0)),
                             static_cast<long long>(peers));
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
// leading block. With lookahead the caller has already waited for the
// previous step's urgent stripe — the only data this step reads — so this
// runs while the previous lazy remainder is still in flight.
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
  // out of the packed workspace.
  PivotScratch<T>& s = run.scr;
  for (int x = 0; x < px; ++x) {
    run.tracker.rows_for_x_into(x, s.xrows[static_cast<std::size_t>(x)]);
  }
  sched::TaskPool::instance().parallel_for(px, [&](index_t x) {
    const auto xi = static_cast<std::size_t>(x);
    const auto& rows = s.xrows[xi];
    const auto nrows = static_cast<index_t>(rows.size());
    if (nrows == 0) {
      s.sets[xi].rows.clear();
      return;
    }
    Matrix<T>& gather = s.gather[xi];
    for (index_t i = 0; i < nrows; ++i) {
      const index_t pi = run.rowpos[static_cast<std::size_t>(rows[static_cast<std::size_t>(i)])];
      for (index_t j = 0; j < run.v; ++j) {
        gather(i, j) = run.trail(pi, t * run.v + j);
      }
    }
    // Panel columns read out of the trailing accumulator + gather write.
    g_dm_panel_gather.add(static_cast<double>(nrows) * 2.0 *
                          static_cast<double>(run.v) *
                          static_cast<double>(sizeof(T)));
    select_candidates<T>(rows, nrows, run.v, run.v, gather, s.rankwork[xi],
                         s.xipiv[xi], s.xperm[xi], s.sets[xi]);
  });
  // Hard-breakdown scan of the gathered panel (read-only; the gathers are
  // preserved — selection ranks a copy). A non-finite value here — an
  // overflowed Schur accumulation, a contaminated input that survived to
  // this column, or an injected poison — would otherwise rank arbitrarily
  // and propagate silently into the factors.
  for (int x = 0; x < px; ++x) {
    const auto xi = static_cast<std::size_t>(x);
    const auto nrows = static_cast<index_t>(s.xrows[xi].size());
    const Matrix<T>& gather = s.gather[xi];
    for (index_t i = 0; i < nrows; ++i) {
      for (index_t j = 0; j < run.v; ++j) {
        if (!std::isfinite(static_cast<double>(gather(i, j)))) {
          throw status_error(Status(
              StatusCode::kNonFinite,
              "non-finite value in the panel entering tournament pivoting",
              static_cast<long long>(t)));
        }
      }
    }
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
// pivot-row workspace (the last read of those rows before they retire);
// with lookahead it first drains the previous step's lazy Schur tasks,
// which are the producers of those trailing values.
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
    if (run.la) sched::TaskPool::instance().wait(run.lazy_ids);
    *pivotrows = run.ws.template mat<T>(
        (t & 1) != 0 ? kPivotRows1 : kPivotRows0, run.v, ncols);
    sched::TaskPool::instance().parallel_for(run.v, [&](index_t l) {
      const index_t pi = run.winner_slots[static_cast<std::size_t>(l)];
      const T* src = &run.trail(pi, (t + 1) * run.v);
      std::copy(src, src + ncols, pivotrows->row(l));
    });
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
// The update is decomposed — in the charges AND in the executed tasks, in
// both execution modes — into the URGENT stripe (the next panel's v
// columns, the only data step t+1's tournament needs) and the LAZY
// remainder, each in fixed kRowBlock row-block tasks. With lookahead the
// tasks go to the pool, depending only on this step's A10 solve; without,
// the identical tasks run synchronously, so the factors agree bitwise.
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

  run.urgent_ids.clear();
  run.lazy_ids.clear();
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
    if (run.la) {
      for (index_t blk = 0; blk < nblocks; ++blk) {
        // Retryable: the injected transient fault fires before the body
        // runs, so the beta=1 accumulation has not happened on a retried
        // attempt and re-running it is exact.
        run.urgent_ids.push_back(pool.submit([urgent_block, blk] { urgent_block(blk); },
                                             "schur-urgent",
                                             sched::TaskCategory::Urgent,
                                             static_cast<long long>(t),
                                             run.a10_ids, /*retryable=*/true));
      }
      if (lcols > 0) {
        for (index_t blk = 0; blk < nblocks; ++blk) {
          run.lazy_ids.push_back(pool.submit([lazy_block, blk] { lazy_block(blk); },
                                             "schur-lazy",
                                             sched::TaskCategory::Lazy,
                                             static_cast<long long>(t),
                                             run.a10_ids, /*retryable=*/true));
        }
      }
    } else {
      pool.parallel_for(nblocks, urgent_block);
      if (lcols > 0) pool.parallel_for(nblocks, lazy_block);
    }
  }
  run.m.step_barrier();
}

template <typename T>
LuResultT<T> run_conflux_lu(xsim::Machine& m, const grid::Grid3D& g, index_t n,
                            ConstMatrixView<T> a, const FactorOptions& opt,
                            bool resume = false) {
  expects(g.ranks() == m.ranks(), "grid must match the machine");
  expects(n >= 1, "matrix must be non-empty");
  index_t v = opt.block_size > 0 ? opt.block_size : default_block_size(n, g);
  expects(v % g.pz() == 0, "block size must be a multiple of the layer count");

  LuRun<T> run(m, g, n, v);
  run.trace_rng.reseed(opt.trace_pivot_seed);
  run.la = run.real && lookahead_enabled(opt);
  const index_t npad = run.npad;
  const index_t num_tiles = run.num_tiles;
  sched::TaskPool& pool = sched::TaskPool::instance();

  // Memory accounting: every rank holds its layer's share of the tile grid
  // (npad^2 * c / P words total across layers) plus panel buffers.
  const double tile_words =
      static_cast<double>(npad) * static_cast<double>(npad) /
      (static_cast<double>(g.px()) * static_cast<double>(g.py()));
  const double panel_words = 3.0 * static_cast<double>(npad * v) /
                                 static_cast<double>(m.ranks()) +
                             static_cast<double>(v * v);
  for (int r = 0; r < m.ranks(); ++r) m.alloc(r, tile_words + panel_words);

  // Release the machine's memory accounting on every exit path, and on an
  // error unwind first drain the pool: in-flight lookahead tasks reference
  // run state (trail, a00, pivot-row workspace) that is about to be
  // destroyed. Declared after `run`, so it drains before run's teardown.
  struct MachineLease {
    xsim::Machine& m;
    double words;
    bool la;
    ~MachineLease() {
      if (la && std::uncaught_exceptions() > 0) {
        try {
          sched::TaskPool::instance().wait_all();
        } catch (...) {
          // The primary error is already unwinding; pool errors were either
          // it or its cascade.
        }
      }
      for (int r = 0; r < m.ranks(); ++r) m.release(r, words);
    }
  } lease{m, tile_words + panel_words, run.la};

  std::vector<index_t> perm_pad;
  perm_pad.reserve(static_cast<std::size_t>(npad));

  // (Re)initialize the whole packed data path from the input: also the
  // rollback of last resort when ABFT detects corruption and no checkpoint
  // exists — the caller's view of `a` is untouched by the run.
  const auto init_packed_state = [&] {
    run.amax = 0.0;
    run.umax = 0.0;
    run.health = FactorHealth{};
    run.health.min_pivot = std::numeric_limits<double>::infinity();
    run.trail = Matrix<T>(npad, npad, T{});
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        const T val = a(i, j);
        if (!std::isfinite(static_cast<double>(val))) {
          throw status_error(Status(
              StatusCode::kNonFinite, "input matrix contains a non-finite value"));
        }
        const double d = std::abs(static_cast<double>(val));
        if (d > run.amax) run.amax = d;
        run.trail(i, j) = val;
      }
    }
    for (index_t r = n; r < npad; ++r) run.trail(r, r) = T{1};
    run.lstore = Matrix<T>(npad, npad, T{});
    run.nact = npad;
    run.rowmap.resize(static_cast<std::size_t>(npad));
    run.rowpos.resize(static_cast<std::size_t>(npad));
    for (index_t i = 0; i < npad; ++i) {
      run.rowmap[static_cast<std::size_t>(i)] = i;
      run.rowpos[static_cast<std::size_t>(i)] = i;
    }
    run.tracker = RowTracker(npad, v, g.px());
    perm_pad.clear();
  };

  if (run.real) {
    expects(a.rows() == n && a.cols() == n, "matrix must be square");
    run.pivot_tol = opt.pivot_tolerance;
    run.growth_lim =
        opt.growth_limit > 0.0 ? opt.growth_limit : default_growth_limit<T>();
    init_packed_state();
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
  }
  run.pivots_per_x.assign(static_cast<std::size_t>(g.px()), 0);

  LuResultT<T> result;
  StepCostRecorder rec(m, opt.record_step_costs);

  // Recovery configuration (recover/options.hpp): resolved once per run, so
  // a mid-run configure() cannot tear the checkpoint cadence.
  const recover::Options ropt = recover::options();
  const bool ckpt_on = run.real && ropt.ckpt_every > 0;
  run.abft = run.real && ropt.abft;

  index_t t0 = 0;
  if (resume) {
    expects(run.real, "resume requires Real mode");
    t0 = restore_lu_snapshot(run, perm_pad);
    g_ckpt_restores.add(1.0);
  }
  if (run.abft) init_abft_sums(run, t0);

  // Dependency-chain rounds per outer iteration (latency model): two layer
  // reductions, the tournament butterfly, the A00 broadcast, and the four
  // panel scatter/distribute hops. O(N/v) total chain depth — the latency
  // win of tournament pivoting over per-column partial pivoting.
  const double chain_per_step =
      2.0 * std::ceil(std::log2(static_cast<double>(std::max(2, g.pz())))) +
      2.0 * std::ceil(std::log2(static_cast<double>(std::max(2, g.px())))) +
      std::ceil(std::log2(static_cast<double>(std::max(2, m.ranks())))) + 4.0;

  // Step loop with in-run recovery: ABFT-detected corruption rolls back to
  // the last checkpoint (or to the input) and re-executes — bounded by
  // kMaxAbftReexecs so persistent corruption still surfaces. Every other
  // error, including the injected kCrashSimulated, unwinds normally; the
  // resume_* entry points restart a crashed run from its snapshot.
  index_t t = t0;
  int reexecs_left = kMaxAbftReexecs;
  while (t < num_tiles) {
  try {
    if (run.real) {
      // Step-boundary recovery hook. Checkpoint and verification both need
      // the state they read to be quiescent, so with lookahead the pipeline
      // drains first — the one scheduling difference ABFT/checkpointing
      // introduce; the computed values are untouched, so healthy factors
      // stay bitwise identical with either feature on or off.
      const bool ckpt_due = ckpt_on && t % ropt.ckpt_every == 0;
      // Checksums are maintained every step, but the full sweep re-reads the
      // whole live region — at bandwidth that alone can cost more than the
      // 10% overhead budget — so verification runs every abft_every steps.
      const bool verifying = run.abft && t > 0 && t % ropt.abft_every == 0;
      if ((ckpt_due || verifying) && run.la) {
        pool.wait(run.a10_ids);
        pool.wait(run.urgent_ids);
        pool.wait(run.lazy_ids);
      } else if (run.abft && run.la) {
        // Maintenance-only step: capture_abft_panel below reads just the
        // urgent stripe, produced by the previous step's urgent tasks; the
        // lazy remainder and A10 solves keep running behind it.
        pool.wait(run.urgent_ids);
      }
      if (verifying) {
        if (fault::enabled() && run.nact > 0 &&
            fault::should_inject(fault::Site::kBitflip)) {
          run.trail(0, t * v) = recover::flip_high_bit(run.trail(0, t * v));
        }
        verify_abft(run, t);
      }
      if (ckpt_due) {
        const auto c0 = std::chrono::steady_clock::now();
        save_lu_snapshot(run, t, perm_pad);
        g_ckpt_seconds.add(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - c0)
                               .count());
      }
      // The crash fires AFTER the save, so with ckpt_every == 1 every crash
      // step is resumable — the save->kill->resume loop of recover_test.
      if (fault::enabled() && fault::should_inject(fault::Site::kCrashAtStep)) {
        throw status_error(Status(StatusCode::kCrashSimulated,
                                  "injected crash at a step boundary",
                                  static_cast<long long>(t)));
      }
      if (run.abft) capture_abft_panel(run, t);
    }

    m.charge_chain(chain_per_step);
    rec.begin_iteration();
    rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops,
                [&] { reduce_block_column(run, t); });

    // The tournament reads only the urgent stripe the previous step's
    // urgent tasks produced; the previous lazy remainder keeps running.
    if (run.la) pool.wait(run.urgent_ids);
    if (run.real && run.nact > 0 && fault::enabled() &&
        fault::should_inject(fault::Site::kPanelNaN)) {
      run.trail(0, t * v) = std::numeric_limits<T>::quiet_NaN();
    }
    rec.measure(&StepCosts::pivoting_words, &StepCosts::pivoting_flops,
                [&] { tournament_pivot(run, t); });
    rec.measure(&StepCosts::a00_words, &StepCosts::a00_flops,
                [&] { broadcast_a00(run, t); });

    if (run.real) {
      // The winner rows' leading block is final: L below the diagonal and
      // U on/above, both stored by global row (row masking, no swaps).
      for (index_t l = 0; l < v; ++l) {
        const index_t row = run.winners[static_cast<std::size_t>(l)];
        for (index_t j = 0; j < v; ++j) run.lstore(row, t * v + j) = run.a00(l, j);
      }
      g_dm_panel_solve.add(2.0 * static_cast<double>(v) *
                           static_cast<double>(v) *
                           static_cast<double>(sizeof(T)));
      for (index_t l = 0; l < v; ++l) {
        for (index_t j = l; j < v; ++j) {
          const double d = std::abs(static_cast<double>(run.a00(l, j)));
          if (d > run.umax) run.umax = d;
        }
      }
      // Capture the winners' packed slots (the pivot-row gather reads their
      // lazy columns from here), then run the urgent retirement pass: the
      // next panel's columns are complete, so the A10 solve can start while
      // the previous step's lazy remainder is still landing.
      run.winner_slots.clear();
      for (index_t w : run.winners) {
        run.winner_slots.push_back(run.rowpos[static_cast<std::size_t>(w)]);
      }
      run.retire_rows_urgent(t * v);
    }
    run.tracker.eliminate(run.winners);
    perm_pad.insert(perm_pad.end(), run.winners.begin(), run.winners.end());

    const index_t a10_rows = run.tracker.active_count();
    const index_t ncols = (num_tiles - t - 1) * v;
    std::fill(run.pivots_per_x.begin(), run.pivots_per_x.end(), 0);
    for (index_t w : run.winners) {
      ++run.pivots_per_x[static_cast<std::size_t>(run.tracker.x_of_row(w))];
    }
    if (run.real) {
      check(run.nact == a10_rows, "packed workspace out of sync with tracker");
    }

    // Steps 7 and 9 (real work): the 1D panel trsms, decomposed the way the
    // schedule distributes them — one chunk of A10 rows and one chunk of
    // A01 columns per simulated rank (row/column chunks of a triangular
    // solve are exact: Right-side solves are row-independent, Left-side
    // column-independent). A10 is solved IN PLACE in the packed workspace:
    // the solved values are both this step's L columns (copied to lstore)
    // and the Schur update's left operand. With lookahead the A10 chunks go
    // to the pool NOW — before the master blocks on the previous lazy
    // remainder — because they only touch the urgent stripe.
    const int p = m.ranks();
    MatrixView<T> a10 = run.real
                            ? run.trail.block(0, t * v, run.nact, v)
                            : MatrixView<T>();
    const auto a10_chunk = [&run, a10, a10_rows, p, t, v](index_t r) {
      const index_t lo = chunk_offset(a10_rows, p, static_cast<int>(r));
      const index_t cnt = chunk_size(a10_rows, p, static_cast<int>(r));
      if (cnt == 0) return;
      // A10 <- A10 * U00^{-1}: final L columns of the surviving rows.
      xblas::trsm<T>(Side::Right, UpLo::Upper, Trans::None, Diag::NonUnit,
                     T{1}, run.a00.view(), a10.block(lo, 0, cnt, v));
      for (index_t i = lo; i < lo + cnt; ++i) {
        const index_t row = run.rowmap[static_cast<std::size_t>(i)];
        for (index_t j = 0; j < v; ++j) run.lstore(row, t * v + j) = a10(i, j);
      }
      // trsm read+write of the chunk, the U00 operand, and the lstore copy.
      g_dm_panel_solve.add(
          (4.0 * static_cast<double>(cnt) * static_cast<double>(v) +
           static_cast<double>(v) * static_cast<double>(v)) *
          static_cast<double>(sizeof(T)));
    };
    run.a10_ids.clear();
    if (run.real && run.la && a10_rows > 0) {
      for (int r = 0; r < p; ++r) {
        run.a10_ids.push_back(pool.submit(
            [a10_chunk, r] { a10_chunk(static_cast<index_t>(r)); },
            "panel-trsm-a10", sched::TaskCategory::Other,
            static_cast<long long>(t), nullptr, 0, /*retryable=*/true));
      }
    }

    // Step 4: scatter A10; step 5: reduce pivot rows; step 6: scatter A01.
    rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops, [&] {
      scatter_panel_1d(run, t, /*row_panel=*/true, a10_rows, run.pivots_per_x);
    });
    MatrixView<T> pivotrows;
    rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops,
                [&] { reduce_pivot_rows(run, t, &pivotrows); });
    if (run.real) {
      // The winners' packed rows are fully consumed (a00 via the
      // tournament, trailing columns via the gather above): replay the
      // retirement swaps on the lazy columns, so the Schur update below
      // sees one contiguous block of survivor rows.
      run.retire_rows_lazy((t + 1) * v);
    }
    rec.measure(&StepCosts::panels_words, &StepCosts::panels_flops, [&] {
      scatter_panel_1d(run, t, /*row_panel=*/false, ncols, run.pivots_per_x);
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
      if (run.real) {
        if (!run.la && a10_rows > 0) {
          pool.parallel_for(p, a10_chunk);
        }
        if (ncols > 0) {
          // A01 <- L00^{-1} * A01: final U rows of the pivots.
          pool.parallel_for(p, [&](index_t r) {
            const index_t lo = chunk_offset(ncols, p, static_cast<int>(r));
            const index_t cnt = chunk_size(ncols, p, static_cast<int>(r));
            if (cnt == 0) return;
            xblas::trsm<T>(Side::Left, UpLo::Lower, Trans::None, Diag::Unit,
                           T{1}, run.a00.view(), pivotrows.block(0, lo, v, cnt));
          });
          pool.parallel_for(v, [&](index_t l) {
            const index_t row = run.winners[static_cast<std::size_t>(l)];
            for (index_t j = 0; j < ncols; ++j) {
              run.lstore(row, (t + 1) * v + j) = pivotrows(l, j);
            }
          });
          // A01 trsm read+write, the L00 operand, and the lstore copy.
          g_dm_panel_solve.add(
              (4.0 * static_cast<double>(v) * static_cast<double>(ncols) +
               static_cast<double>(v) * static_cast<double>(v)) *
              static_cast<double>(sizeof(T)));
          // Read-only scan of the factored U rows: hard error on a
          // non-finite value, running max|U| for the growth factor.
          double rowmax = 0.0;
          for (index_t l = 0; l < v; ++l) {
            const T* urow = pivotrows.row(l);
            for (index_t j = 0; j < ncols; ++j) {
              const double d = std::abs(static_cast<double>(urow[j]));
              if (!std::isfinite(d)) {
                throw status_error(Status(
                    StatusCode::kNonFinite,
                    "non-finite value in the factored pivot rows",
                    static_cast<long long>(t)));
              }
              if (d > rowmax) rowmax = d;
            }
          }
          if (rowmax > run.umax) run.umax = rowmax;
        }
      }
      m.step_barrier();
    });
    if (run.real && run.amax > 0.0 &&
        run.umax > run.growth_lim * run.amax &&
        run.health.code != StatusCode::kGrowthOverflow) {
      run.soft_breakdown(StatusCode::kGrowthOverflow, t);
    }
    if (run.abft) {
      // Advance the row-sum checksums to cover the post-update trailing
      // accumulator: sum'[i] = sum[i] - panel[i] - (solved A10 row i)·urow.
      // The solved A10 chunks feed both this and the Schur tasks, so with
      // lookahead they must all have landed in lstore first.
      if (run.la) pool.wait(run.a10_ids);
      apply_abft_update<T>(run, t, pivotrows, ncols);
    }

    // Steps 8 and 10: 2.5D distribution; step 11: the Schur update.
    rec.measure(&StepCosts::a11_words, &StepCosts::a11_flops,
                [&] { distribute_panels_2p5d(run, t, a10_rows); });
    rec.measure(&StepCosts::a11_words, &StepCosts::a11_flops,
                [&] { update_a11<T>(run, t, pivotrows); });
    rec.end_iteration(result.step_costs);
    ++t;
  } catch (const status_error& e) {
    // Only ABFT-detected corruption is recoverable in-run; everything else
    // (including the injected crash) unwinds to the caller. The budget
    // bounds re-execution so persistent corruption still surfaces as an
    // error instead of an infinite rollback loop.
    if (e.code() != StatusCode::kDataCorruption || reexecs_left-- <= 0) throw;
    g_abft_reexec.add(1.0);
    if (recover::has_latest(lu_snapshot_key(run))) {
      t = restore_lu_snapshot(run, perm_pad);
      g_ckpt_restores.add(1.0);
      // The step-0 snapshot is a marker: re-derive the state from the input.
      if (t == 0) init_packed_state();
    } else {
      init_packed_state();
      t = 0;
    }
    init_abft_sums(run, t);
  }
  }

  if (run.la) {
    pool.wait(run.a10_ids);
    pool.wait(run.urgent_ids);
    pool.wait(run.lazy_ids);
  }

  // Assemble the user-facing permutation and factors (drop the padding).
  result.perm.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < npad; ++i) {
    const index_t row = perm_pad[static_cast<std::size_t>(i)];
    if (row < n) result.perm.push_back(row);
  }
  check(static_cast<index_t>(result.perm.size()) == n, "permutation must cover all rows");
  if (run.real) {
    check(std::all_of(perm_pad.begin(), perm_pad.begin() + n,
                      [&](index_t r) { return r < n; }),
          "real rows must be eliminated before padding rows");
    result.factors = Matrix<T>(n, n);
    for (index_t i = 0; i < n; ++i) {
      const index_t row = result.perm[static_cast<std::size_t>(i)];
      for (index_t j = 0; j < n; ++j) result.factors(i, j) = run.lstore(row, j);
    }
    result.workspace_words =
        (static_cast<double>(run.trail.size()) +
         static_cast<double>(run.lstore.size())) * words_per_scalar<T>() +
        run.ws.words();
    run.health.growth_factor = run.amax > 0.0 ? run.umax / run.amax : 0.0;
    if (!std::isfinite(run.health.min_pivot)) run.health.min_pivot = 0.0;
    result.health = run.health;
  }
  return result;
}

/// Shared body of the try_* entry points: soft breakdowns come back as a
/// degraded Result (error + completed factors), hard ones as a failed
/// Result, contract violations as kInvalidArgument.
template <typename T>
Result<LuResultT<T>> try_lu(xsim::Machine& m, const grid::Grid3D& g,
                            ConstMatrixView<T> a, const FactorOptions& opt,
                            bool resume = false) {
  try {
    expects(m.real(), "try_conflux_lu requires Real mode");
    LuResultT<T> r = run_conflux_lu<T>(m, g, a.rows(), a, opt, resume);
    if (!r.health.ok()) {
      Status st = r.health.to_status();
      return Result<LuResultT<T>>(std::move(st), std::move(r));
    }
    return std::move(r);
  } catch (const status_error& e) {
    return e.status();
  } catch (const contract_error& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  }
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
  return try_lu<double>(m, g, a, opt);
}

Result<LuResultF> try_conflux_lu(xsim::Machine& m, const grid::Grid3D& g,
                                 ConstViewF a, const FactorOptions& opt) {
  return try_lu<float>(m, g, a, opt);
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
  return try_lu<double>(m, g, a, opt, /*resume=*/true);
}

Result<LuResultF> try_resume_conflux_lu(xsim::Machine& m, const grid::Grid3D& g,
                                        ConstViewF a, const FactorOptions& opt) {
  return try_lu<float>(m, g, a, opt, /*resume=*/true);
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
