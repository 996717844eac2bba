// Observability layer tests (DESIGN.md "Observability"): the metrics
// registry's exactness and thread-safety contracts, the disabled-mode
// zero-touch guarantee, phase-span capture, the data-movement audit, and
// the unified Chrome-trace export.
//
// The registry's concurrency design (per-thread sink cells, baseline
// reset) is exercised under real std::threads and the task pool so the
// sanitizer jobs (TSan/ASan in CI) see the actual interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "factor/confchox.hpp"
#include "factor/conflux_lu.hpp"
#include "models/models.hpp"
#include "obs/audit.hpp"
#include "sched/chrome_trace.hpp"
#include "sched/taskpool.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "tensor/random_matrix.hpp"

namespace conflux {
namespace {

/// RAII arm/disarm so a failing test never leaks registry state into the
/// next one.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(bool on) : was_(metrics::enabled()) {
    metrics::set_enabled(on);
  }
  ~ScopedMetrics() { metrics::set_enabled(was_); }

 private:
  bool was_;
};

xsim::Machine real_machine() {
  xsim::MachineSpec spec;
  spec.num_ranks = 4;
  spec.memory_words = 1e9;
  return xsim::Machine(spec, xsim::ExecMode::Real);
}

factor::FactorOptions small_options() {
  factor::FactorOptions opt;
  opt.block_size = 16;
  return opt;
}

// ------------------------------------------------------------ registry ----

TEST(Metrics, ConcurrentCounterSumsAreExact) {
  ScopedMetrics on(true);
  const metrics::Counter c("obs_test.threads.count");
  const double before = metrics::snapshot().value("obs_test.threads.count");

  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();

  // Quiescent-point snapshot: every increment lands, none double-counts.
  EXPECT_EQ(metrics::snapshot().value("obs_test.threads.count") - before,
            static_cast<double>(kThreads) * kAddsPerThread);
}

TEST(Metrics, PoolWorkersSumExactly) {
  ScopedMetrics on(true);
  const metrics::Counter c("obs_test.pool.count");
  const double before = metrics::snapshot().value("obs_test.pool.count");
  constexpr index_t kIters = 10000;
  sched::TaskPool::instance().parallel_for(kIters,
                                           [&c](index_t) { c.add(2.0); });
  EXPECT_EQ(metrics::snapshot().value("obs_test.pool.count") - before,
            2.0 * static_cast<double>(kIters));
}

TEST(Metrics, SnapshotAndResetRaceFreeUnderConcurrentRecording) {
  // Snapshots during recording must be tear-free (each cell atomic) and
  // reset must never zero another thread's cell. The assertions here are
  // coherence bounds; the sanitizer jobs assert the absence of data races.
  ScopedMetrics on(true);
  const metrics::Counter c("obs_test.race.count");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c.add(1.0);
    });
  }
  for (int i = 0; i < 50; ++i) {
    const metrics::Snapshot snap = metrics::snapshot();
    const metrics::MetricValue* mv = snap.find("obs_test.race.count");
    ASSERT_NE(mv, nullptr);
    EXPECT_GE(mv->value, 0.0);  // baseline subtraction never goes negative
    if (i % 10 == 0) metrics::reset();
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();

  // After quiescence a reset epoch counts exactly what follows it.
  metrics::reset();
  c.add(3.0);
  EXPECT_EQ(metrics::snapshot().value("obs_test.race.count"), 3.0);
}

TEST(Metrics, DisabledModeLeavesCellsUntouched) {
  const metrics::Counter c("obs_test.disabled.count");
  double armed_total;
  {
    ScopedMetrics on(true);
    c.add(5.0);
    armed_total = metrics::snapshot().value("obs_test.disabled.count");
  }
  {
    ScopedMetrics off(false);
    for (int i = 0; i < 1000; ++i) c.add(1.0);
  }
  ScopedMetrics on(true);
  EXPECT_EQ(metrics::snapshot().value("obs_test.disabled.count"), armed_total);
}

TEST(Metrics, DisabledRecordIsCheap) {
  // Overhead sanity, not a benchmark: 10M disarmed adds are one relaxed
  // load + branch each and must complete in trivial time even under
  // sanitizers (generous bound to stay deterministic on loaded CI).
  ScopedMetrics off(false);
  const metrics::Counter c("obs_test.overhead.count");
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10'000'000; ++i) c.add(1.0);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(s, 5.0);
}

TEST(Metrics, GaugeTracksLastValueAndHighWater) {
  ScopedMetrics on(true);
  const metrics::Gauge g("obs_test.gauge");
  metrics::reset();
  g.set(3.0);
  g.set(7.0);
  g.set(2.0);
  const metrics::Snapshot snap = metrics::snapshot();
  const metrics::MetricValue* mv = snap.find("obs_test.gauge");
  ASSERT_NE(mv, nullptr);
  EXPECT_EQ(mv->kind, metrics::Kind::Gauge);
  EXPECT_EQ(mv->value, 2.0);
  EXPECT_EQ(mv->max, 7.0);
}

TEST(Metrics, HistogramBucketsByUpperBound) {
  ScopedMetrics on(true);
  const metrics::Histogram h("obs_test.hist", {1.0, 10.0});
  metrics::reset();
  h.record(0.5);   // <= 1.0
  h.record(5.0);   // <= 10.0
  h.record(50.0);  // overflow bucket
  const metrics::Snapshot snap = metrics::snapshot();
  const metrics::MetricValue* mv = snap.find("obs_test.hist");
  ASSERT_NE(mv, nullptr);
  EXPECT_EQ(mv->kind, metrics::Kind::Histogram);
  EXPECT_EQ(mv->count, 3);
  EXPECT_DOUBLE_EQ(mv->sum, 55.5);
  ASSERT_EQ(mv->buckets.size(), 3u);
  EXPECT_EQ(mv->buckets[0], 1);
  EXPECT_EQ(mv->buckets[1], 1);
  EXPECT_EQ(mv->buckets[2], 1);
}

TEST(Metrics, SumPrefixAggregatesFamilies) {
  ScopedMetrics on(true);
  const metrics::Counter a("obs_test.fam.a");
  const metrics::Counter b("obs_test.fam.b");
  metrics::reset();
  a.add(1.5);
  b.add(2.5);
  EXPECT_DOUBLE_EQ(metrics::snapshot().sum_prefix("obs_test.fam."), 4.0);
}

// ------------------------------------------------- data-path guarantees ----

TEST(Obs, FactorsBitwiseIdenticalWithMetricsOnAndOff) {
  // Constraint 2 of the registry design: instrumentation is read-only on
  // the data path, so armed metrics + armed capture must not perturb a
  // single bit of the computed factors.
  const index_t n = 64;
  const grid::Grid3D g(2, 2, 1);
  const MatrixD a = random_matrix(n, n, 99);
  const factor::FactorOptions opt = small_options();

  factor::LuResult off_run, on_run;
  {
    ScopedMetrics off(false);
    xsim::Machine m = real_machine();
    off_run = factor::conflux_lu(m, g, a.view(), opt);
  }
  {
    ScopedMetrics on(true);
    prof::start_capture();
    xsim::Machine m = real_machine();
    on_run = factor::conflux_lu(m, g, a.view(), opt);
    prof::stop_capture();
  }
  EXPECT_EQ(off_run.perm, on_run.perm);
  EXPECT_EQ(off_run.factors, on_run.factors);

  const MatrixD spd = random_spd_matrix(n, 7);
  factor::CholResult chol_off, chol_on;
  {
    ScopedMetrics off(false);
    xsim::Machine m = real_machine();
    chol_off = factor::confchox(m, g, spd.view(), small_options());
  }
  {
    ScopedMetrics on(true);
    xsim::Machine m = real_machine();
    chol_on = factor::confchox(m, g, spd.view(), small_options());
  }
  EXPECT_EQ(chol_off.factors, chol_on.factors);
}

TEST(Obs, RealRunPopulatesDataMovementCounters) {
  ScopedMetrics on(true);
  const metrics::Snapshot before = metrics::snapshot();
  {
    xsim::Machine m = real_machine();
    const grid::Grid3D g(2, 2, 1);
    const MatrixD a = random_matrix(64, 64, 5);
    factor::conflux_lu(m, g, a.view(), small_options());
  }
  const metrics::Snapshot after = metrics::snapshot();
  // The factor core's byte counters all moved: panel work, pivoting and
  // the Schur update are unavoidable for any LU.
  for (const char* name : {"dm.panel_gather.bytes", "dm.panel_solve.bytes",
                           "dm.pivot_merge.bytes", "dm.schur_update.bytes"}) {
    EXPECT_GT(after.value(name) - before.value(name), 0.0) << name;
  }
}

// ------------------------------------------------------------ the audit ----

TEST(Obs, AuditAggregatesAndRatiosAreSane) {
  ScopedMetrics on(true);
  const index_t n = 128;
  const int p = 4;
  const grid::Grid3D g(2, 2, 1);
  const double mem = models::paper_memory_words(static_cast<double>(n), p);
  const MatrixD a = random_matrix(n, n, 11);
  factor::FactorOptions opt = small_options();
  const double modeled = models::conflux_lu_volume_exact(n, g, opt.block_size);

  const metrics::Snapshot before = metrics::snapshot();
  {
    xsim::Machine m = real_machine();
    factor::conflux_lu(m, g, a.view(), opt);
  }
  const metrics::Snapshot after = metrics::snapshot();
  const obs::DataMovementAudit audit =
      obs::audit_data_movement(obs::Kernel::kLu, before, after,
                               static_cast<double>(n), p, mem, modeled);

  EXPECT_GT(audit.measured_bytes, 0.0);
  EXPECT_FALSE(audit.breakdown.empty());
  double total = 0.0;
  for (const obs::CounterDelta& d : audit.breakdown) {
    EXPECT_GT(d.bytes, 0.0) << d.name;
    total += d.bytes;
  }
  EXPECT_DOUBLE_EQ(total, audit.measured_bytes);
  EXPECT_DOUBLE_EQ(audit.measured_words_per_rank,
                   audit.measured_bytes / 8.0 / p);
  EXPECT_GT(audit.lower_bound_words, 0.0);
  EXPECT_TRUE(std::isfinite(audit.measured_ratio));
  // The measured path touches at least what the bound says must move.
  EXPECT_GE(audit.measured_ratio, 1.0);
  EXPECT_GT(audit.model_ratio, 0.0);

  // The JSON rendering round-trips through the shared writer untruncated.
  std::ostringstream os;
  {
    json::Writer w(os);
    obs::write_json(w, audit);
  }
  EXPECT_NE(os.str().find("\"measured_ratio\""), std::string::npos);
  EXPECT_NE(os.str().find("\"breakdown\""), std::string::npos);
}

// ------------------------------------------------------- spans + traces ----

TEST(Obs, ScopedSpanRecordsOnlyWhileCapturing) {
  { prof::ScopedSpan idle("never-recorded", 1); }  // disarmed: no effect
  prof::start_capture();
  {
    prof::ScopedSpan s("obs-test-span", 3);
  }
  const prof::Capture cap = prof::stop_capture();
  ASSERT_EQ(cap.spans.size(), 1u);
  EXPECT_EQ(cap.spans[0].name, "obs-test-span");
  EXPECT_EQ(cap.spans[0].step, 3);
  EXPECT_GE(cap.spans[0].t1, cap.spans[0].t0);

  // stop_capture() disarms: later spans vanish.
  { prof::ScopedSpan late("after-stop", 4); }
  prof::start_capture();
  EXPECT_TRUE(prof::stop_capture().spans.empty());
}

TEST(Obs, UnifiedTraceIsValidJsonWithAllThreeTracks) {
  ScopedMetrics on(true);
  sched::TaskPool& pool = sched::TaskPool::instance();
  const index_t n = 64;
  const grid::Grid3D g(2, 2, 1);
  const MatrixD a = random_matrix(n, n, 21);
  const factor::FactorOptions opt = small_options();

  pool.start_recording();
  prof::start_capture();
  {
    xsim::Machine m = real_machine();
    factor::conflux_lu(m, g, a.view(), opt);
  }
  const prof::Capture cap = prof::stop_capture();
  const std::vector<sched::TaskSlice> slices = pool.stop_recording();

  EXPECT_FALSE(cap.spans.empty());
  EXPECT_FALSE(cap.samples.empty());
  EXPECT_FALSE(slices.empty());

  std::ostringstream os;
  const std::size_t events = sched::write_unified_trace(os, slices, cap);
  EXPECT_GT(events, 0u);
  EXPECT_TRUE(json::parse(os.str()).has_value()) << os.str().substr(0, 400);
  // All three trace processes are present.
  EXPECT_NE(os.str().find("\"task pool\""), std::string::npos);
  EXPECT_NE(os.str().find("\"phases\""), std::string::npos);
  EXPECT_NE(os.str().find("\"counters\""), std::string::npos);
}

}  // namespace
}  // namespace conflux
