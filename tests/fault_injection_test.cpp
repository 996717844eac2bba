// Fault-injection soak (ISSUE 6): sweep deterministic fault seeds across
// every injection site and assert the system's ONLY observable behaviors
// are (a) a classified Status with the site's expected code, or (b) a clean
// run whose factors are BITWISE identical to the fault-free golden run.
// Never a crash, never a hang (the ctest timeout is the backstop; the pool
// watchdog is the mechanism), never a silently wrong answer.
//
// The pool runs with 2 threads (CONFLUX_POOL_THREADS, pinned below before
// the pool's first use) so the pool sites, which fire per parallel_for
// index, exercise real cross-thread cancellation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <vector>

#include "factor/confchox.hpp"
#include "factor/conflux_lu.hpp"
#include "recover/options.hpp"
#include "sched/taskpool.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "tensor/random_matrix.hpp"

namespace conflux {
namespace {

using factor::CholResult;
using factor::FactorOptions;
using factor::LuResult;

// CONFLUX_POOL_THREADS is read once at the pool's first width() call; pin
// it before any test (and before the static pool exists) via a file-scope
// initializer.
const bool g_pool_env = [] {
  ::setenv("CONFLUX_POOL_THREADS", "2", /*overwrite=*/1);
  return true;
}();

constexpr index_t kN = 64;
constexpr index_t kV = 16;

xsim::Machine fresh_machine() {
  xsim::MachineSpec spec;
  spec.num_ranks = 4;
  spec.memory_words = 1e9;
  return xsim::Machine(spec, xsim::ExecMode::Real);
}

FactorOptions lu_options() {
  FactorOptions opt;
  opt.block_size = kV;
  return opt;
}

const MatrixD& lu_input() {
  static const MatrixD a = random_matrix(kN, kN, 20260807);
  return a;
}

const MatrixD& chol_input() {
  static const MatrixD a = random_spd_matrix(kN, 20260808);
  return a;
}

/// Fault-free golden LU, computed once; every clean soak run must reproduce
/// it bitwise (fault plumbing and breakdown detection are read-only).
const LuResult& golden_lu() {
  static const LuResult lu = [] {
    xsim::Machine m = fresh_machine();
    const grid::Grid3D g(2, 2, 1);
    return factor::conflux_lu(m, g, lu_input().view(), lu_options());
  }();
  return lu;
}

const CholResult& golden_chol() {
  static const CholResult chol = [] {
    xsim::Machine m = fresh_machine();
    const grid::Grid3D g(2, 2, 1);
    return factor::confchox(m, g, chol_input().view(), lu_options());
  }();
  return chol;
}

void expect_bitwise_golden_lu(const LuResult& lu, const char* what) {
  ASSERT_EQ(lu.perm, golden_lu().perm) << what;
  ASSERT_EQ(lu.factors, golden_lu().factors) << what;
}

struct SoakTally {
  int runs = 0;
  int clean = 0;
  int classified = 0;
};

/// Seed sweep bounds, overridable from the environment so a CI leg (or a
/// developer chasing one seed) can replay or widen the sweep without a
/// rebuild:
///   CONFLUX_FAULT_SOAK_SEED_BASE  first seed (default 0 / the test's base)
///   CONFLUX_FAULT_SOAK_SEEDS      number of seeds (default: the test's)
std::uint64_t soak_seed_base(std::uint64_t def) {
  const char* e = std::getenv("CONFLUX_FAULT_SOAK_SEED_BASE");
  return e != nullptr ? std::strtoull(e, nullptr, 10) : def;
}

int soak_seed_count(int def) {
  const char* e = std::getenv("CONFLUX_FAULT_SOAK_SEEDS");
  if (e == nullptr) return def;
  const int v = std::atoi(e);
  return v > 0 ? v : def;
}

/// The exact environment that replays one failing soak run; attached to
/// every assertion via SCOPED_TRACE so any failure prints its repro line.
std::string repro_line(const fault::Config& cfg, fault::Site site) {
  return "repro: CONFLUX_FAULT_SEED=" + std::to_string(cfg.seed) +
         " CONFLUX_FAULT_RATE=" + std::to_string(cfg.rate) +
         " CONFLUX_FAULT_SITES=" + fault::site_name(site);
}

/// The metrics registry's per-site fire counter (fault.cpp increments it in
/// should_inject's success path), used to reconcile observed outcomes
/// against injection activity.
std::string fired_counter_name(fault::Site site) {
  return std::string("fault.fired.") + fault::site_name(site);
}

double fired_count(fault::Site site) {
  return metrics::snapshot().value(fired_counter_name(site).c_str());
}

/// True when a fired fault may legitimately leave the run clean: a worker
/// stall can finish before the watchdog, and an ABFT-detected bitflip is
/// rolled back and re-executed inside the run.
bool site_absorbable(fault::Site site) {
  return site == fault::Site::kWorkerStall || site == fault::Site::kBitflip;
}

/// Reconcile one run's outcome against the site's fire count delta:
///   - sites whose fault always corrupts the run (NaN, zero pivot, task
///     throw, crash): classified <=> fired >= 1, clean <=> fired == 0;
///   - absorbable sites: only classified => fired holds.
void reconcile_fired(fault::Site site, bool classified, double fired_delta,
                     std::uint64_t seed) {
  if (classified) {
    EXPECT_GE(fired_delta, 1.0)
        << "seed " << seed << ": run classified but "
        << fired_counter_name(site) << " never fired";
  } else if (!site_absorbable(site)) {
    EXPECT_EQ(fired_delta, 0.0)
        << "seed " << seed << ": " << fired_counter_name(site)
        << " fired but the run came back clean";
  }
}

/// One LU soak run under `cfg`: returns via EXPECT/ASSERT; tallies whether
/// the run was clean or classified.
void soak_lu_once(fault::Site site, const fault::Config& cfg,
                  const std::set<StatusCode>& allowed, SoakTally& tally) {
  SCOPED_TRACE(repro_line(cfg, site));
  golden_lu();  // force the fault-free golden BEFORE arming injection
  const bool metrics_was = metrics::enabled();
  metrics::set_enabled(true);
  const double fired0 = fired_count(site);
  fault::ScopedConfig scoped(cfg);
  xsim::Machine m = fresh_machine();
  const grid::Grid3D g(2, 2, 1);
  const auto r = factor::try_conflux_lu(m, g, lu_input().view(), lu_options());
  const double fired_delta = fired_count(site) - fired0;
  metrics::set_enabled(metrics_was);
  reconcile_fired(site, !r.ok(), fired_delta, cfg.seed);
  ++tally.runs;
  if (r.ok()) {
    // Nothing fired, or the fault was harmless (a worker stall that beat
    // the watchdog): the result must be exactly the fault-free one.
    expect_bitwise_golden_lu(r.value(), "clean run under armed faults");
    ++tally.clean;
    return;
  }
  ++tally.classified;
  EXPECT_TRUE(allowed.count(r.status().code()) == 1)
      << "seed " << cfg.seed << ": unexpected classification "
      << status_code_name(r.status().code()) << " (" << r.status().to_string()
      << ")";
  // A failed run must never leave wreckage: the machine and pool recover,
  // and a fault-free rerun reproduces the golden factors bitwise.
  fault::Config off;
  fault::configure(off);
  xsim::Machine m2 = fresh_machine();
  const auto clean = factor::try_conflux_lu(m2, g, lu_input().view(), lu_options());
  ASSERT_TRUE(clean.ok()) << "pool did not recover after " << r.status().to_string();
  expect_bitwise_golden_lu(clean.value(), "recovery run after classified fault");
}

fault::Config site_config(fault::Site site, std::uint64_t seed, double rate) {
  fault::Config cfg;
  cfg.seed = seed;
  cfg.rate = rate;
  cfg.site_mask = 1u << static_cast<int>(site);
  return cfg;
}

TEST(FaultSoak, PanelNanAlwaysClassifiedNonFinite) {
  SoakTally tally;
  const std::uint64_t base = soak_seed_base(0);
  const int count = soak_seed_count(60);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    soak_lu_once(fault::Site::kPanelNaN,
                 site_config(fault::Site::kPanelNaN, seed, 0.5),
                 {StatusCode::kNonFinite}, tally);
  }
  // Rate 0.5 over 4 steps per run: overwhelmingly most seeds must fire.
  EXPECT_GE(tally.classified, (2 * count) / 3) << "injection harness looks dead";
  EXPECT_EQ(tally.runs, count);
}

TEST(FaultSoak, ForcedZeroPivotClassifiedSingular) {
  SoakTally tally;
  const std::uint64_t base = soak_seed_base(0);
  const int count = soak_seed_count(60);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    soak_lu_once(fault::Site::kZeroPivot,
                 site_config(fault::Site::kZeroPivot, seed, 0.5),
                 {StatusCode::kSingularPivot}, tally);
  }
  EXPECT_GE(tally.classified, (2 * count) / 3) << "injection harness looks dead";
}

TEST(FaultSoak, TaskThrowClassifiedTaskFailed) {
  SoakTally tally;
  const std::uint64_t base = soak_seed_base(0);
  const int count = soak_seed_count(60);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    soak_lu_once(fault::Site::kTaskThrow,
                 site_config(fault::Site::kTaskThrow, seed, 0.01),
                 {StatusCode::kTaskFailed}, tally);
  }
  // 1% per parallel_for index over ~135 indices a run: a healthy majority
  // must fire, and the rest prove the fault-free path is bitwise untouched.
  EXPECT_GE(tally.classified, count / 6) << "injection harness looks dead";
  EXPECT_GE(tally.clean, 1) << "rate 0.01 should leave some runs clean";
}

TEST(FaultSoak, WorkerStallWedgesOrCompletesCorrectly) {
  // A stalled worker either trips the watchdog (stall >= interval) and
  // classifies as kPoolWedged, or finishes late with a bitwise-correct
  // result. Both are acceptable; a hang or wrong answer is not.
  sched::TaskPool::instance().set_watchdog_seconds(0.25);
  SoakTally tally;
  const std::uint64_t base = soak_seed_base(0);
  const int count = soak_seed_count(10);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    fault::Config cfg = site_config(fault::Site::kWorkerStall, seed, 0.02);
    cfg.stall_s = 0.6;
    soak_lu_once(fault::Site::kWorkerStall, cfg, {StatusCode::kPoolWedged}, tally);
  }
  sched::TaskPool::instance().set_watchdog_seconds(0.0);
  EXPECT_EQ(tally.runs, count);
}

TEST(FaultSoak, CrashAtStepClassifiedCrashSimulated) {
  // With checkpointing armed, a simulated crash surfaces as the typed
  // kCrashSimulated status (resumability itself is recover_test's job; here
  // the soak proves classification and that a fresh run is unpolluted).
  recover::Options ropt;
  ropt.ckpt_every = 1;
  recover::ScopedOptions scoped_ropt(ropt);
  SoakTally tally;
  const std::uint64_t base = soak_seed_base(0);
  const int count = soak_seed_count(20);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    soak_lu_once(fault::Site::kCrashAtStep,
                 site_config(fault::Site::kCrashAtStep, seed, 0.5),
                 {StatusCode::kCrashSimulated}, tally);
  }
  EXPECT_GE(tally.classified, count / 2) << "injection harness looks dead";
  EXPECT_EQ(tally.runs, count);
}

TEST(FaultSoak, BitflipUnderAbftIsAbsorbedBitwise) {
  // An injected accumulator bitflip only exists when ABFT verification is
  // on (the site lives in the verify hook); detection rolls back to the
  // last checkpoint and re-executes, so every run must still come back
  // bitwise golden. kDataCorruption may classify only if the re-execution
  // budget is exhausted.
  recover::Options ropt;
  ropt.ckpt_every = 1;
  ropt.abft = true;
  ropt.abft_every = 1;  // small runs: verify every step so fires are caught
  recover::ScopedOptions scoped_ropt(ropt);
  SoakTally tally;
  const bool metrics_was = metrics::enabled();
  metrics::set_enabled(true);
  const double fired0 = fired_count(fault::Site::kBitflip);
  const std::uint64_t base = soak_seed_base(0);
  const int count = soak_seed_count(12);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    soak_lu_once(fault::Site::kBitflip,
                 site_config(fault::Site::kBitflip, seed, 0.25),
                 {StatusCode::kDataCorruption}, tally);
  }
  const double fired = fired_count(fault::Site::kBitflip) - fired0;
  metrics::set_enabled(metrics_was);
  EXPECT_GE(fired, static_cast<double>(count) / 4)
      << "injection harness looks dead";
  EXPECT_GE(tally.clean, count - 1)
      << "ABFT re-execution should absorb detected bitflips";
}

TEST(FaultSoak, CholeskyPanelNanClassified) {
  SoakTally tally;
  const grid::Grid3D g(2, 2, 1);
  golden_chol();  // force the fault-free golden BEFORE arming injection
  const std::uint64_t base = soak_seed_base(0);
  const int count = soak_seed_count(20);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const fault::Config cfg = site_config(fault::Site::kPanelNaN, seed, 0.5);
    SCOPED_TRACE(repro_line(cfg, fault::Site::kPanelNaN));
    fault::ScopedConfig scoped(cfg);
    xsim::Machine m = fresh_machine();
    const auto r = factor::try_confchox(m, g, chol_input().view(), lu_options());
    ++tally.runs;
    if (r.ok()) {
      ASSERT_EQ(r.value().factors, golden_chol().factors);
      ++tally.clean;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kNonFinite)
          << "seed " << seed << ": " << r.status().to_string();
      ++tally.classified;
    }
  }
  EXPECT_GE(tally.classified, count / 2);
}

TEST(FaultSoak, CholeskyForcedZeroDiagonalClassifiedNotPd) {
  SoakTally tally;
  const grid::Grid3D g(2, 2, 1);
  golden_chol();  // force the fault-free golden BEFORE arming injection
  const std::uint64_t base = soak_seed_base(0);
  const int count = soak_seed_count(20);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const fault::Config cfg = site_config(fault::Site::kZeroPivot, seed, 0.5);
    SCOPED_TRACE(repro_line(cfg, fault::Site::kZeroPivot));
    fault::ScopedConfig scoped(cfg);
    xsim::Machine m = fresh_machine();
    const auto r = factor::try_confchox(m, g, chol_input().view(), lu_options());
    ++tally.runs;
    if (r.ok()) {
      ASSERT_EQ(r.value().factors, golden_chol().factors);
      ++tally.clean;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kNotPositiveDefinite)
          << "seed " << seed << ": " << r.status().to_string();
      ++tally.classified;
    }
  }
  EXPECT_GE(tally.classified, count / 2);
}

TEST(FaultSoak, EnvironmentConfigurationParses) {
  // The env plumbing (seed/rate/sites/stall) is what the CI fault legs use;
  // pin the programmatic equivalent of a parsed config here and verify the
  // decision function is deterministic for a fixed (seed, site, counter).
  fault::Config cfg;
  cfg.seed = 42;
  cfg.rate = 0.5;
  cfg.site_mask = 1u << static_cast<int>(fault::Site::kPanelNaN);
  std::vector<bool> first;
  {
    fault::ScopedConfig scoped(cfg);
    for (int i = 0; i < 64; ++i) {
      first.push_back(fault::should_inject(fault::Site::kPanelNaN));
    }
    // Unarmed sites never fire regardless of rate.
    for (int i = 0; i < 64; ++i) {
      EXPECT_FALSE(fault::should_inject(fault::Site::kTaskThrow));
    }
  }
  {
    fault::ScopedConfig scoped(cfg);  // counters reset: identical replay
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(fault::should_inject(fault::Site::kPanelNaN), first[i]) << i;
    }
  }
  // Roughly half the opportunities fire at rate 0.5 (binomial, wide margin).
  int fired = 0;
  for (bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 16);
  EXPECT_LT(fired, 48);
}

TEST(FaultSoak, EnvOnlyConfigurationArms) {
  // The CI fault legs and real binaries configure purely via environment,
  // never programmatically: reset() must re-read the env and the lock-free
  // enabled() fast path must arm from it (regression: the flag used to be
  // set only on code paths that were themselves gated behind it).
  ::setenv("CONFLUX_FAULT_SEED", "7", 1);
  ::setenv("CONFLUX_FAULT_RATE", "1", 1);
  ::setenv("CONFLUX_FAULT_SITES", "panel-nan", 1);
  fault::reset();
  EXPECT_TRUE(fault::enabled());
  const fault::Config cfg = fault::config();
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.rate, 1.0);
  EXPECT_TRUE(cfg.site_armed(fault::Site::kPanelNaN));
  EXPECT_FALSE(cfg.site_armed(fault::Site::kTaskThrow));
  EXPECT_TRUE(fault::should_inject(fault::Site::kPanelNaN));
  EXPECT_FALSE(fault::should_inject(fault::Site::kTaskThrow));
  ::unsetenv("CONFLUX_FAULT_SEED");
  ::unsetenv("CONFLUX_FAULT_RATE");
  ::unsetenv("CONFLUX_FAULT_SITES");
  fault::reset();
  EXPECT_FALSE(fault::enabled());
}

}  // namespace
}  // namespace conflux
