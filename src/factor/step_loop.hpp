// One step loop for both factor cores (DESIGN.md "Recovery model").
//
// COnfLUX and COnfCHOX run the same 2.5D step and the same scaffolding
// around it: the simulated-memory lease, the step-boundary recovery hook,
// chain charging, per-step cost recording, and the in-run rollback with
// its re-execution budget. StepLoop owns that scaffolding once. A core
// supplies its step body and its state hooks as members of its run state
// (a `Core`), called statically — no per-step std::function, so the loop
// adds no heap allocation per step:
//
//   using Scalar = T;  static constexpr recover::FactorKind kKind;
//   index_t n, v, num_tiles;  const grid::Grid3D& g;
//   void init_state();                   // (re)initialize from the input
//   void save_payload(recover::SnapshotWriter&, index_t t);     // t > 0
//   void restore_payload(recover::SnapshotReader&, index_t t);  // t > 0
//   void abft_init(index_t t);           // predicted sums from scratch
//   void abft_capture(index_t t);        // this step's pre-trsm panel sums
//   void abft_verify(index_t t);         // verify_abft_rows over its rows
//   Scalar* bitflip_target(index_t t);   // kBitflip cell, or nullptr
//   void step(index_t t, StepCostRecorder& rec);  // the step body
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "factor/common.hpp"
#include "recover/abft.hpp"
#include "recover/options.hpp"
#include "recover/snapshot.hpp"
#include "sched/rank_parallel.hpp"
#include "sched/taskpool.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"

namespace conflux::factor {

// Measured data movement at the Real-path hot spots both cores share
// (DESIGN.md "Observability"): bytes actually moved by the schedule's
// workspace machinery, each operand touch counted once per use. The Schur
// gemm's pack-buffer traffic is counted inside xblas::gemm; these cover the
// copies around it. Every add is strictly read-only on the data path — a
// healthy run's factors are bitwise those of a metrics-disabled run.
inline const metrics::Counter g_dm_panel_gather("dm.panel_gather.bytes");
inline const metrics::Counter g_dm_panel_solve("dm.panel_solve.bytes");
inline const metrics::Counter g_dm_schur_operand("dm.schur_operand.bytes");
inline const metrics::Counter g_dm_schur_update("dm.schur_update.bytes");

// Recovery counters: checkpoint time and restores, and the ABFT ledger that
// recover_test reconciles against the injected bitflips.
inline const metrics::Counter g_ckpt_seconds("recover.ckpt.seconds");
inline const metrics::Counter g_ckpt_restores("recover.ckpt.restores");
inline const metrics::Counter g_abft_verified("recover.abft.verified");
inline const metrics::Counter g_abft_detected("recover.abft.detected");
inline const metrics::Counter g_abft_reexec("recover.abft.reexec");

/// In-run re-execution budget for ABFT-detected corruption: enough to ride
/// out a noisy soak (each re-execution re-verifies everything it replays),
/// small enough that persistent corruption — a genuinely broken machine —
/// still surfaces as kDataCorruption instead of looping forever.
inline constexpr int kMaxAbftReexecs = 8;

/// Simulated-memory lease of one run: allocates `words` on every rank and
/// releases them on every exit path.
class MachineLease {
 public:
  MachineLease(xsim::Machine& m, double words);
  ~MachineLease();
  MachineLease(const MachineLease&) = delete;
  MachineLease& operator=(const MachineLease&) = delete;

 private:
  xsim::Machine& m_;
  double words_;
};

/// Throw kCheckpointInvalid: a corrupt or inconsistent snapshot never walks
/// out of bounds later.
[[noreturn]] void snapshot_invalid(const std::string& what);
/// FactorHealth in a snapshot payload (six fields, fixed order).
void put_health(recover::SnapshotWriter& w, const FactorHealth& h);
/// Read what put_health wrote. A code other than kOk and the core's
/// `accepted` soft breakdowns is rejected as invalid.
FactorHealth get_health(recover::SnapshotReader& r,
                        std::initializer_list<StatusCode> accepted);

/// out[r] = the sum, in double and in column order, of row(r)'s cells for r
/// in [lo, hi). One task per row block, so the sums are the same bits at
/// any width.
template <typename T, typename Row>
void abft_row_sums(index_t lo, index_t hi, std::vector<double>& out, Row&& row) {
  sched::parallel_rows(hi - lo, [&](index_t p) {
    double s = 0.0;
    for (const T x : std::span<const T>(row(lo + p))) s += static_cast<double>(x);
    out[static_cast<std::size_t>(lo + p)] = s;
  });
}

/// One row's ABFT verification scan. The tolerance is deliberately loose —
/// 5% of the row's absolute mass — because it only needs to separate
/// rounding drift (orders of magnitude below it) from real corruption (the
/// kBitflip site produces non-finite or grossly out-of-range values, which
/// no tolerance admits; the negated comparison catches NaN). Four
/// independent accumulator pairs break the add-latency chain: the scan is
/// bandwidth-bound and the comparison is never bitwise.
template <typename T>
bool abft_row_ok(std::span<const T> row, double predicted) {
  const auto width = static_cast<index_t>(row.size());
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

/// Read-only ABFT sweep of step t over rows [lo, hi): row(r) holds row r's
/// live cells, predicted[r] their predicted sum. The sweep reads the whole
/// live region — serial it alone would eat the ABFT overhead budget at
/// n=2048 — so 128-row chunks fan out over the pool, each row
/// scanned by one task: the verdict is identical at any width. The lowest
/// bad row is reported as "(<what> <row>)" in a kDataCorruption error.
template <typename T, typename Row>
void verify_abft_rows(index_t t, index_t lo, index_t hi,
                      const std::vector<double>& predicted, Row&& row,
                      const char* what) {
  constexpr index_t kRowsPerChunk = 128;
  std::atomic<index_t> bad{hi};
  sched::TaskPool::instance().parallel_for(
      (hi - lo + kRowsPerChunk - 1) / kRowsPerChunk, [&](index_t c) {
        const index_t c0 = lo + c * kRowsPerChunk;
        for (index_t r = c0; r < std::min(hi, c0 + kRowsPerChunk); ++r) {
          if (abft_row_ok<T>(row(r), predicted[static_cast<std::size_t>(r)])) continue;
          index_t seen = bad.load(std::memory_order_relaxed);
          while (r < seen &&
                 !bad.compare_exchange_weak(seen, r, std::memory_order_relaxed)) {
          }
          break;
        }
      });
  const index_t bad_row = bad.load(std::memory_order_relaxed);
  if (bad_row < hi) {
    g_abft_detected.add(1.0);
    throw status_error(Status(StatusCode::kDataCorruption,
                              "ABFT row-sum mismatch in the trailing accumulator (" +
                                  std::string(what) + " " + std::to_string(bad_row) + ")",
                              static_cast<long long>(t)));
  }
}

/// Shared body of the try_* entry points: runs
/// factor(m, g, a.rows(), a, opt, resume). Soft breakdowns come back as a
/// degraded Result (error + completed factors), hard ones as a failed
/// Result, contract violations (a Trace-mode machine first) as
/// kInvalidArgument.
template <typename Factor, typename T>
auto try_factor(const char* entry, Factor factor, xsim::Machine& m,
                const grid::Grid3D& g, ConstMatrixView<T> a,
                const FactorOptions& opt, bool resume = false)
    -> Result<decltype(factor(m, g, index_t{}, a, opt, resume))> {
  using R = decltype(factor(m, g, index_t{}, a, opt, resume));
  try {
    expects(m.real(), std::string(entry) + " requires Real mode");
    R r = factor(m, g, a.rows(), a, opt, resume);
    if (!r.health.ok()) {
      Status st = r.health.to_status();
      return Result<R>(std::move(st), std::move(r));
    }
    return r;
  } catch (const status_error& e) {
    return e.status();
  } catch (const contract_error& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  }
}

/// The step loop with in-run recovery.
class StepLoop {
 public:
  /// Leases `lease_words` of simulated memory per rank and resolves the
  /// recovery options once, so a mid-run recover::configure() cannot tear
  /// the checkpoint cadence.
  StepLoop(xsim::Machine& m, const FactorOptions& opt, bool real,
           double lease_words);

  /// ABFT checksums are maintained this run (Real mode with Options::abft).
  bool abft() const { return abft_; }

  /// Run steps [t0, core.num_tiles): t0 = 0 or, when `resume`, the step of
  /// the latest snapshot. Each step is the boundary hook (Real mode only),
  /// then charge_chain(chain_per_step) and the body, recorded as one entry
  /// of `costs`. ABFT-detected corruption rolls back to the latest snapshot
  /// (or to the input) and re-executes, at most kMaxAbftReexecs times per
  /// run. Every other error, including the injected kCrashSimulated,
  /// unwinds; resume_* restarts a crashed run from its snapshot.
  template <typename Core>
  void run(Core& core, bool resume, double chain_per_step,
           std::vector<StepCosts>& costs);

 private:
  template <typename Core>
  index_t restore(Core& core, const recover::SnapshotKey& key);

  xsim::Machine& m_;
  MachineLease lease_;
  bool real_;
  recover::Options ropt_;
  bool abft_;
  StepCostRecorder rec_;
};

template <typename Core>
void StepLoop::run(Core& core, bool resume, double chain_per_step,
                   std::vector<StepCosts>& costs) {
  const recover::SnapshotKey key{
      Core::kKind, sizeof(typename Core::Scalar) == sizeof(double) ? 'd' : 'f',
      static_cast<std::int64_t>(core.n), static_cast<std::int64_t>(core.v),
      core.g.px(), core.g.py(), core.g.pz()};
  index_t t = 0;
  if (resume) {
    expects(real_, "resume requires Real mode");
    t = restore(core, key);
  }
  if (abft_) core.abft_init(t);
  int reexecs_left = kMaxAbftReexecs;
  while (t < core.num_tiles) {
    try {
      if (real_) {
        // Step-boundary hook. Each fault-site opportunity keeps its place in
        // this order, so seeded soaks replay the same sequence. Every step
        // phase has finished by now, so checkpoint and verification read
        // quiescent state; healthy factors stay bitwise identical.
        const bool ckpt_due = ropt_.ckpt_every > 0 && t % ropt_.ckpt_every == 0;
        // Checksums are maintained every step, but the full sweep re-reads
        // the whole live region — at bandwidth that alone can cost more
        // than the 10% overhead budget — so it runs every abft_every steps.
        const bool verifying = abft_ && t > 0 && t % ropt_.abft_every == 0;
        if (verifying) {
          typename Core::Scalar* cell = core.bitflip_target(t);
          if (fault::enabled() && cell != nullptr &&
              fault::should_inject(fault::Site::kBitflip)) {
            *cell = recover::flip_high_bit(*cell);
          }
          g_abft_verified.add(1.0);
          core.abft_verify(t);
        }
        if (ckpt_due) {
          const auto c0 = std::chrono::steady_clock::now();
          recover::SnapshotWriter w(key, static_cast<std::int64_t>(t));
          // At step 0 the whole state is a pure function of the input the
          // resume entry point is handed anyway: the snapshot is an empty
          // marker that proves a resumable point exists, without
          // serializing the largest state of the run.
          if (t != 0) core.save_payload(w, t);
          recover::store_blob(key, std::move(w).seal());
          g_ckpt_seconds.add(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - c0)
                                 .count());
        }
        // The crash fires AFTER the save, so with ckpt_every == 1 every
        // crash step is resumable — the save->kill->resume loop of
        // recover_test.
        if (fault::enabled() && fault::should_inject(fault::Site::kCrashAtStep)) {
          throw status_error(Status(StatusCode::kCrashSimulated,
                                    "injected crash at a step boundary",
                                    static_cast<long long>(t)));
        }
        if (abft_) core.abft_capture(t);
      }
      m_.charge_chain(chain_per_step);
      rec_.begin_iteration();
      core.step(t, rec_);
      rec_.end_iteration(costs);
      ++t;
    } catch (const status_error& e) {
      if (e.code() != StatusCode::kDataCorruption || reexecs_left-- <= 0) throw;
      g_abft_reexec.add(1.0);
      // A step-0 snapshot is a marker, and with no snapshot the input is
      // the rollback of last resort (the run never writes the caller's
      // view of it): either way re-derive the state from the input.
      t = recover::has_latest(key) ? restore(core, key) : 0;
      if (t == 0) core.init_state();
      core.abft_init(t);
    }
  }
}

/// Restore the latest snapshot into `core` (initialized from the input) and
/// return the step to resume from; at step 0 the caller owns re-deriving
/// the state from the input.
template <typename Core>
index_t StepLoop::restore(Core& core, const recover::SnapshotKey& key) {
  const recover::Blob blob = recover::latest_blob(key);
  if (blob.empty()) snapshot_invalid("no checkpoint to resume " + key.to_string() + " from");
  recover::SnapshotReader r(key, blob);
  const auto t = static_cast<index_t>(r.step());
  if (t >= core.num_tiles) snapshot_invalid("snapshot step past the end of the schedule");
  if (t == 0 && r.remaining() != 0) snapshot_invalid("step-0 snapshot must be an empty marker");
  if (t > 0) core.restore_payload(r, t);
  g_ckpt_restores.add(1.0);
  return t;
}

}  // namespace conflux::factor
