// Recoverable factorization (DESIGN.md "Recovery model"): the three layers —
// bounded task retry, step-granular checkpoint/restart, ABFT checksum
// verification with re-execution — under deterministic fault injection.
// The contract everywhere is bitwise: a crash-resumed run, a retry-absorbed
// run, and an ABFT-recovered run all produce EXACTLY the factors of the
// undisturbed run, and a run with any recovery feature enabled but no fault
// injected is bitwise identical to one with the feature off.
//
// The pool runs with 2 threads (pinned before its first use). The crash/
// restart and ABFT legs run step-synchronously (the default path, and the
// one every benchmark workload takes) and with lookahead, whose
// step-boundary drains exercise the pipelined path. Task retry needs
// retryable pool tasks, which only the pipelined path submits, so its legs
// always use lookahead.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "factor/confchox.hpp"
#include "factor/conflux_lu.hpp"
#include "recover/options.hpp"
#include "recover/snapshot.hpp"
#include "sched/taskpool.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "tensor/random_matrix.hpp"

namespace conflux {
namespace {

using factor::CholResult;
using factor::FactorOptions;
using factor::LuResult;

const bool g_pool_env = [] {
  ::setenv("CONFLUX_POOL_THREADS", "2", /*overwrite=*/1);
  return true;
}();

constexpr index_t kN = 64;
constexpr index_t kV = 16;  // 4 outer steps per run

xsim::Machine fresh_machine() {
  xsim::MachineSpec spec;
  spec.num_ranks = 4;
  spec.memory_words = 1e9;
  return xsim::Machine(spec, xsim::ExecMode::Real);
}

FactorOptions options(int lookahead = 1) {
  FactorOptions opt;
  opt.block_size = kV;
  opt.lookahead = lookahead;
  return opt;
}

/// Suites whose legs run at lookahead 0 and 1 (the test parameter).
class CrashRestart : public ::testing::TestWithParam<int> {};
class Abft : public ::testing::TestWithParam<int> {};

std::string lookahead_name(const ::testing::TestParamInfo<int>& info) {
  return "lookahead" + std::to_string(info.param);
}

const grid::Grid3D& grid221() {
  static const grid::Grid3D g(2, 2, 1);
  return g;
}

const MatrixD& lu_input() {
  static const MatrixD a = random_matrix(kN, kN, 20260808);
  return a;
}

const MatrixD& chol_input() {
  static const MatrixD a = random_spd_matrix(kN, 20260809);
  return a;
}

/// Golden results, computed with every recovery feature off and no faults.
const LuResult& golden_lu() {
  static const LuResult lu = [] {
    xsim::Machine m = fresh_machine();
    return factor::conflux_lu(m, grid221(), lu_input().view(), options());
  }();
  return lu;
}

const CholResult& golden_chol() {
  static const CholResult ch = [] {
    xsim::Machine m = fresh_machine();
    return factor::confchox(m, grid221(), chol_input().view(), options());
  }();
  return ch;
}

void expect_golden(const LuResult& lu, const std::string& what) {
  EXPECT_EQ(lu.perm, golden_lu().perm) << what;
  EXPECT_EQ(lu.factors, golden_lu().factors) << what;
}

void expect_golden(const CholResult& ch, const std::string& what) {
  EXPECT_EQ(ch.factors, golden_chol().factors) << what;
}

fault::Config site_config(fault::Site site, std::uint64_t seed, double rate) {
  fault::Config cfg;
  cfg.seed = seed;
  cfg.rate = rate;
  cfg.site_mask = 1u << static_cast<int>(site);
  return cfg;
}

/// Repro line for failures: the exact environment that replays this run.
std::string repro(const fault::Config& cfg, fault::Site site) {
  return "repro: CONFLUX_FAULT_SEED=" + std::to_string(cfg.seed) +
         " CONFLUX_FAULT_RATE=" + std::to_string(cfg.rate) +
         " CONFLUX_FAULT_SITES=" + fault::site_name(site);
}

double counter(const char* name) { return metrics::snapshot().value(name); }

/// RAII metrics enablement (the recover.* reconciliation needs live cells).
struct ScopedMetrics {
  bool was = metrics::enabled();
  ScopedMetrics() { metrics::set_enabled(true); }
  ~ScopedMetrics() { metrics::set_enabled(was); }
};

recover::SnapshotKey lu_key() {
  recover::SnapshotKey key;
  key.kind = recover::FactorKind::kLu;
  key.scalar = 'd';
  key.n = kN;
  key.v = kV;
  key.px = grid221().px();
  key.py = grid221().py();
  key.pz = grid221().pz();
  return key;
}

// ------------------------------------------------- crash/restart, LU -------

TEST_P(CrashRestart, LuCrashThenResumeIsBitwiseGolden) {
  const FactorOptions opt = options(GetParam());
  golden_lu();
  recover::Options ro;
  ro.ckpt_every = 1;  // a snapshot precedes every possible crash point
  recover::ScopedOptions so(ro);
  int crashed = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const fault::Config cfg = site_config(fault::Site::kCrashAtStep, seed, 0.5);
    SCOPED_TRACE(repro(cfg, fault::Site::kCrashAtStep));
    recover::clear();
    Result<LuResult> r = [&] {
      fault::ScopedConfig scoped(cfg);
      xsim::Machine m = fresh_machine();
      return factor::try_conflux_lu(m, grid221(), lu_input().view(), opt);
    }();
    if (r.ok()) {
      expect_golden(r.value(), "clean run under an armed crash site");
      continue;
    }
    ++crashed;
    ASSERT_EQ(r.status().code(), StatusCode::kCrashSimulated)
        << r.status().to_string();
    // The injection is disarmed (ScopedConfig left scope): resume replays
    // the tail of the schedule from the snapshot the crash left behind.
    xsim::Machine m2 = fresh_machine();
    const LuResult resumed =
        factor::resume_conflux_lu(m2, grid221(), lu_input().view(), opt);
    expect_golden(resumed, "crash-resumed run");
  }
  EXPECT_GE(crashed, 12) << "crash site looks dead at rate 0.5";
}

TEST_P(CrashRestart, CholCrashThenResumeIsBitwiseGolden) {
  const FactorOptions opt = options(GetParam());
  golden_chol();
  recover::Options ro;
  ro.ckpt_every = 1;
  recover::ScopedOptions so(ro);
  int crashed = 0;
  for (std::uint64_t seed = 100; seed < 124; ++seed) {
    const fault::Config cfg = site_config(fault::Site::kCrashAtStep, seed, 0.5);
    SCOPED_TRACE(repro(cfg, fault::Site::kCrashAtStep));
    recover::clear();
    Result<CholResult> r = [&] {
      fault::ScopedConfig scoped(cfg);
      xsim::Machine m = fresh_machine();
      return factor::try_confchox(m, grid221(), chol_input().view(), opt);
    }();
    if (r.ok()) {
      expect_golden(r.value(), "clean run under an armed crash site");
      continue;
    }
    ++crashed;
    ASSERT_EQ(r.status().code(), StatusCode::kCrashSimulated)
        << r.status().to_string();
    xsim::Machine m2 = fresh_machine();
    const CholResult resumed =
        factor::resume_confchox(m2, grid221(), chol_input().view(), opt);
    expect_golden(resumed, "crash-resumed run");
  }
  EXPECT_GE(crashed, 12) << "crash site looks dead at rate 0.5";
}

TEST_P(CrashRestart, CheckpointingAloneIsBitwiseInertAndCounted) {
  const FactorOptions opt = options(GetParam());
  golden_lu();
  golden_chol();
  ScopedMetrics sm;
  recover::Options ro;
  ro.ckpt_every = 2;
  recover::ScopedOptions so(ro);
  recover::clear();
  const double saves0 = counter("recover.ckpt.saves");
  const double bytes0 = counter("recover.ckpt.bytes");
  xsim::Machine mlu = fresh_machine();
  expect_golden(factor::conflux_lu(mlu, grid221(), lu_input().view(), opt),
                "checkpointing-only LU run");
  xsim::Machine mch = fresh_machine();
  expect_golden(factor::confchox(mch, grid221(), chol_input().view(), opt),
                "checkpointing-only Cholesky run");
  // 4 tiles, every 2 steps: saves at t = 0 and t = 2, per factorization.
  EXPECT_EQ(counter("recover.ckpt.saves") - saves0, 4.0);
  EXPECT_GT(counter("recover.ckpt.bytes") - bytes0, 0.0);
}

TEST_P(CrashRestart, FileMirrorSurvivesRegistryLoss) {
  const FactorOptions opt = options(GetParam());
  golden_lu();
  char tmpl[] = "/tmp/conflux-ckpt-XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  recover::Options ro;
  ro.ckpt_every = 1;
  ro.ckpt_dir = dir;
  recover::ScopedOptions so(ro);
  recover::clear();
  {
    // Force a crash at the first step boundary: the only recoverable state
    // is the t = 0 snapshot, now mirrored to the directory.
    fault::ScopedConfig scoped(
        site_config(fault::Site::kCrashAtStep, 1, 1.0));
    xsim::Machine m = fresh_machine();
    const auto r =
        factor::try_conflux_lu(m, grid221(), lu_input().view(), opt);
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(r.status().code(), StatusCode::kCrashSimulated);
  }
  // Drop the in-memory registry: resume must come from the file, exactly as
  // a restarted process would.
  recover::clear();
  xsim::Machine m2 = fresh_machine();
  const LuResult resumed =
      factor::resume_conflux_lu(m2, grid221(), lu_input().view(), opt);
  expect_golden(resumed, "file-mirror resumed run");
  std::remove((std::string(dir) + "/" + lu_key().to_string() + ".ckpt").c_str());
  ::rmdir(dir);
}

// ------------------------------------------------------- ABFT, bitflip -----

TEST_P(Abft, LuBitflipIsDetectedAndReexecutedToGolden) {
  const FactorOptions opt = options(GetParam());
  golden_lu();
  ScopedMetrics sm;
  recover::Options ro;
  ro.abft = true;
  ro.abft_every = 1;  // strict per-step sweeps: detection is immediate
  ro.ckpt_every = 1;
  recover::ScopedOptions so(ro);
  double fired_total = 0.0;
  const double det0 = counter("recover.abft.detected");
  const double rex0 = counter("recover.abft.reexec");
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const fault::Config cfg = site_config(fault::Site::kBitflip, seed, 0.25);
    SCOPED_TRACE(repro(cfg, fault::Site::kBitflip));
    recover::clear();
    const double f0 = counter("fault.fired.bitflip");
    fault::ScopedConfig scoped(cfg);
    xsim::Machine m = fresh_machine();
    // The corruption is absorbed inside the run: it must COMPLETE, and the
    // factors must be exactly the undisturbed ones.
    const LuResult lu =
        factor::conflux_lu(m, grid221(), lu_input().view(), opt);
    expect_golden(lu, "ABFT-recovered run");
    fired_total += counter("fault.fired.bitflip") - f0;
  }
  EXPECT_GE(fired_total, 4.0) << "bitflip site looks dead at rate 0.25";
  // Every injected flip is gross (exponent-bit) corruption: each fire is
  // detected, and each detection triggers exactly one re-execution.
  EXPECT_EQ(counter("recover.abft.detected") - det0, fired_total);
  EXPECT_EQ(counter("recover.abft.reexec") - rex0, fired_total);
}

TEST_P(Abft, CholBitflipIsDetectedAndReexecutedToGolden) {
  const FactorOptions opt = options(GetParam());
  golden_chol();
  ScopedMetrics sm;
  recover::Options ro;
  ro.abft = true;
  ro.abft_every = 1;
  ro.ckpt_every = 1;
  recover::ScopedOptions so(ro);
  double fired_total = 0.0;
  const double det0 = counter("recover.abft.detected");
  const double rex0 = counter("recover.abft.reexec");
  for (std::uint64_t seed = 200; seed < 212; ++seed) {
    const fault::Config cfg = site_config(fault::Site::kBitflip, seed, 0.25);
    SCOPED_TRACE(repro(cfg, fault::Site::kBitflip));
    recover::clear();
    const double f0 = counter("fault.fired.bitflip");
    fault::ScopedConfig scoped(cfg);
    xsim::Machine m = fresh_machine();
    const CholResult ch =
        factor::confchox(m, grid221(), chol_input().view(), opt);
    expect_golden(ch, "ABFT-recovered run");
    fired_total += counter("fault.fired.bitflip") - f0;
  }
  EXPECT_GE(fired_total, 4.0) << "bitflip site looks dead at rate 0.25";
  EXPECT_EQ(counter("recover.abft.detected") - det0, fired_total);
  EXPECT_EQ(counter("recover.abft.reexec") - rex0, fired_total);
}

TEST_P(Abft, VerificationIsBitwiseInert) {
  const FactorOptions opt = options(GetParam());
  golden_lu();
  golden_chol();
  ScopedMetrics sm;
  recover::Options ro;
  ro.abft = true;  // no checkpointing: ABFT alone
  ro.abft_every = 1;
  recover::ScopedOptions so(ro);
  recover::clear();
  const double ver0 = counter("recover.abft.verified");
  const double det0 = counter("recover.abft.detected");
  xsim::Machine mlu = fresh_machine();
  expect_golden(factor::conflux_lu(mlu, grid221(), lu_input().view(), opt),
                "ABFT-on healthy LU run");
  xsim::Machine mch = fresh_machine();
  expect_golden(factor::confchox(mch, grid221(), chol_input().view(), opt),
                "ABFT-on healthy Cholesky run");
  // 4 tiles per factorization, verification at steps 1..3 of each.
  EXPECT_EQ(counter("recover.abft.verified") - ver0, 6.0);
  EXPECT_EQ(counter("recover.abft.detected") - det0, 0.0);
}

TEST_P(Abft, ReexecutionWithoutCheckpointRestartsFromInput) {
  const FactorOptions opt = options(GetParam());
  golden_lu();
  recover::Options ro;
  ro.abft = true;  // checkpointing OFF: rollback of last resort is the input
  ro.abft_every = 1;
  recover::ScopedOptions so(ro);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const fault::Config cfg = site_config(fault::Site::kBitflip, seed, 0.2);
    SCOPED_TRACE(repro(cfg, fault::Site::kBitflip));
    recover::clear();
    fault::ScopedConfig scoped(cfg);
    xsim::Machine m = fresh_machine();
    const LuResult lu =
        factor::conflux_lu(m, grid221(), lu_input().view(), opt);
    expect_golden(lu, "ABFT full-restart run");
  }
}

TEST_P(Abft, CholReexecutionWithoutCheckpointRestartsFromInput) {
  const FactorOptions opt = options(GetParam());
  golden_chol();
  recover::Options ro;
  ro.abft = true;  // checkpointing OFF: rollback of last resort is the input
  ro.abft_every = 1;
  recover::ScopedOptions so(ro);
  ScopedMetrics sm;
  const double rex0 = counter("recover.abft.reexec");
  for (std::uint64_t seed = 300; seed < 306; ++seed) {
    const fault::Config cfg = site_config(fault::Site::kBitflip, seed, 0.2);
    SCOPED_TRACE(repro(cfg, fault::Site::kBitflip));
    recover::clear();
    fault::ScopedConfig scoped(cfg);
    xsim::Machine m = fresh_machine();
    const CholResult ch =
        factor::confchox(m, grid221(), chol_input().view(), opt);
    expect_golden(ch, "ABFT full-restart run");
  }
  EXPECT_GT(counter("recover.abft.reexec") - rex0, 0.0) << "no restart was exercised";
}

TEST_P(Abft, PersistentCorruptionExhaustsTheReexecutionBudget) {
  // A flip at every verification is a broken machine, not a transient: the
  // run re-executes exactly its budget of 8 times, and the next detection
  // surfaces as kDataCorruption through the try_* entry points.
  const FactorOptions opt = options(GetParam());
  ScopedMetrics sm;
  recover::Options ro;
  ro.abft = true;
  ro.abft_every = 1;
  recover::ScopedOptions so(ro);
  const fault::Config cfg = site_config(fault::Site::kBitflip, 7, 1.0);
  SCOPED_TRACE(repro(cfg, fault::Site::kBitflip));
  const auto expect_exhausted = [&](const Status& st, double det0, double rex0,
                                    const char* what) {
    EXPECT_EQ(st.code(), StatusCode::kDataCorruption) << what << ": " << st.to_string();
    EXPECT_EQ(counter("recover.abft.reexec") - rex0, 8.0) << what;
    EXPECT_EQ(counter("recover.abft.detected") - det0, 9.0) << what;
  };
  {
    recover::clear();
    const double det0 = counter("recover.abft.detected");
    const double rex0 = counter("recover.abft.reexec");
    fault::ScopedConfig scoped(cfg);
    xsim::Machine m = fresh_machine();
    const auto r = factor::try_conflux_lu(m, grid221(), lu_input().view(), opt);
    ASSERT_FALSE(r.ok());
    expect_exhausted(r.status(), det0, rex0, "LU");
  }
  {
    recover::clear();
    const double det0 = counter("recover.abft.detected");
    const double rex0 = counter("recover.abft.reexec");
    fault::ScopedConfig scoped(cfg);
    xsim::Machine m = fresh_machine();
    const auto r = factor::try_confchox(m, grid221(), chol_input().view(), opt);
    ASSERT_FALSE(r.ok());
    expect_exhausted(r.status(), det0, rex0, "Cholesky");
  }
}

// --------------------------------------------------- snapshot integrity ----

TEST(SnapshotIntegrity, CorruptedPayloadFailsWithTypedStatus) {
  golden_lu();
  recover::Options ro;
  ro.ckpt_every = 1;
  recover::ScopedOptions so(ro);
  recover::clear();
  xsim::Machine m = fresh_machine();
  factor::conflux_lu(m, grid221(), lu_input().view(), options());
  recover::Blob blob = recover::latest_blob(lu_key());
  ASSERT_FALSE(blob.empty());
  blob[80] ^= 0x40;  // one payload bit: the checksum must catch it
  recover::inject_blob(lu_key(), std::move(blob));
  xsim::Machine m2 = fresh_machine();
  const auto r =
      factor::try_resume_conflux_lu(m2, grid221(), lu_input().view(), options());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCheckpointInvalid)
      << r.status().to_string();
}

TEST(SnapshotIntegrity, TruncatedAndMissingSnapshotsFailWithTypedStatus) {
  golden_lu();
  recover::Options ro;
  ro.ckpt_every = 1;
  recover::ScopedOptions so(ro);
  recover::clear();
  xsim::Machine m = fresh_machine();
  factor::conflux_lu(m, grid221(), lu_input().view(), options());
  recover::Blob blob = recover::latest_blob(lu_key());
  ASSERT_GT(blob.size(), 128u);
  blob.resize(blob.size() / 2);  // header intact, payload cut short
  recover::inject_blob(lu_key(), std::move(blob));
  xsim::Machine m2 = fresh_machine();
  auto r =
      factor::try_resume_conflux_lu(m2, grid221(), lu_input().view(), options());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCheckpointInvalid);

  recover::clear();  // no snapshot at all
  xsim::Machine m3 = fresh_machine();
  r = factor::try_resume_conflux_lu(m3, grid221(), lu_input().view(), options());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCheckpointInvalid);
}

INSTANTIATE_TEST_SUITE_P(Both, CrashRestart, ::testing::Values(0, 1), lookahead_name);
INSTANTIATE_TEST_SUITE_P(Both, Abft, ::testing::Values(0, 1), lookahead_name);

// ------------------------------------------------------ transient retry ----

TEST(TaskRetry, TransientFaultsAreAbsorbedBitwise) {
  golden_lu();
  golden_chol();
  ScopedMetrics sm;
  const double retries0 = counter("recover.task_retries");
  const double exhausted0 = counter("recover.task_retry_exhausted");
  double fired_total = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const fault::Config cfg =
        site_config(fault::Site::kTransientTaskThrow, seed, 0.05);
    SCOPED_TRACE(repro(cfg, fault::Site::kTransientTaskThrow));
    const double f0 = counter("fault.fired.transient-task-throw");
    fault::ScopedConfig scoped(cfg);
    xsim::Machine mlu = fresh_machine();
    expect_golden(
        factor::conflux_lu(mlu, grid221(), lu_input().view(), options()),
        "retry-absorbed LU run");
    xsim::Machine mch = fresh_machine();
    expect_golden(
        factor::confchox(mch, grid221(), chol_input().view(), options()),
        "retry-absorbed Cholesky run");
    fired_total += counter("fault.fired.transient-task-throw") - f0;
  }
  EXPECT_GE(fired_total, 4.0) << "transient site looks dead at rate 0.05";
  // Each fire is one retry (exhaustion at rate 0.05 with budget 3 would
  // need four consecutive fires on one task: effectively impossible, and
  // the exhausted counter proves it didn't happen).
  EXPECT_EQ(counter("recover.task_retries") - retries0, fired_total);
  EXPECT_EQ(counter("recover.task_retry_exhausted") - exhausted0, 0.0);
  EXPECT_GE(sched::TaskPool::instance().stats().retries,
            static_cast<long long>(fired_total));
}

TEST(TaskRetry, ExhaustedBudgetSurfacesTransientStatus) {
  golden_lu();
  recover::Options ro;
  ro.task_retries = 0;  // no budget: the first transient failure surfaces
  recover::ScopedOptions so(ro);
  int classified = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const fault::Config cfg =
        site_config(fault::Site::kTransientTaskThrow, seed, 0.1);
    SCOPED_TRACE(repro(cfg, fault::Site::kTransientTaskThrow));
    fault::ScopedConfig scoped(cfg);
    xsim::Machine m = fresh_machine();
    const auto r =
        factor::try_conflux_lu(m, grid221(), lu_input().view(), options());
    if (r.ok()) {
      expect_golden(r.value(), "clean run under an armed transient site");
      continue;
    }
    ++classified;
    EXPECT_EQ(r.status().code(), StatusCode::kTransientTaskFailure)
        << r.status().to_string();
    // The pool recovers: a fault-free rerun reproduces the golden factors.
    fault::Config off;
    fault::configure(off);
    xsim::Machine m2 = fresh_machine();
    const auto clean =
        factor::try_conflux_lu(m2, grid221(), lu_input().view(), options());
    ASSERT_TRUE(clean.ok()) << clean.status().to_string();
    expect_golden(clean.value(), "recovery run after exhausted retry");
  }
  EXPECT_GE(classified, 3) << "zero-budget transient faults never surfaced";
}

}  // namespace
}  // namespace conflux
