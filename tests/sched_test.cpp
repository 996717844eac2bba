// The discrete-event timeline engine (src/sched/):
//  - replay semantics on hand-built event logs (serial CPUs, link
//    occupancy, the bounded in-flight window, barrier policies)
//  - the two analytic bounds re-derived from events match the Machine's
//    elapsed_time() / modeled_time_overlap() exactly, for every schedule
//  - the model-ordering invariant: perfect overlap <= bounded-overlap
//    timeline <= strict BSP on factorizations and baselines, including
//    figure-style configurations
//  - Trace == Real event-stream equality (exact for Cholesky, which has no
//    pivoting; per-kind aggregates for LU) — extending the counter-equality
//    test in factor_test
//  - Chrome-trace export is syntactically valid JSON (checked with a small
//    JSON parser) carrying the schedules' phase labels
//  - Real-mode execution is bitwise identical across pool widths
//  - the lookahead time model sits inside the bracket:
//    elapsed >= modeled >= modeled_lookahead >= overlap on both
//    factorizations, and lazy-phase deferral never lengthens the raw replay
//  - the persistent TaskPool: dependency ordering, the single-thread inline
//    fast path of parallel_for, a width-1 gemm staying off the pool while
//    another thread's job is live, and — with two threads — the real
//    pipelining of a lookahead run, asserted from recorded task slices and
//    exported as valid Chrome-trace JSON
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baselines/candmc.hpp"
#include "baselines/scalapack2d.hpp"
#include "blas/blas.hpp"
#include "blas/tuning.hpp"
#include "factor/confchox.hpp"
#include "factor/conflux_lu.hpp"
#include "sched/chrome_trace.hpp"
#include "sched/event.hpp"
#include "sched/taskpool.hpp"
#include "sched/timeline.hpp"
#include "support/json.hpp"
#include "tensor/random_matrix.hpp"

namespace conflux::sched {
namespace {

xsim::MachineSpec simple_spec(int ranks, double alpha, double beta, double gamma) {
  xsim::MachineSpec spec;
  spec.num_ranks = ranks;
  spec.memory_words = 1 << 20;
  spec.alpha_s = alpha;
  spec.beta_words_per_s = beta;
  spec.gamma_flops_per_s = gamma;
  return spec;
}

xsim::MachineSpec paper_spec(int ranks, double memory) {
  xsim::MachineSpec spec;  // default alpha/beta/gamma (Piz Daint-like)
  spec.num_ranks = ranks;
  spec.memory_words = memory;
  return spec;
}

double grid_memory(index_t n, const grid::Grid3D& g) {
  return static_cast<double>(g.pz()) * static_cast<double>(n) *
         static_cast<double>(n) / static_cast<double>(g.ranks());
}

// ------------------------------------------------------ replay semantics ----

TEST(Replay, ComputeSerializesPerRankAndRanksRunConcurrently) {
  EventLog log;
  log.on_flops(0, 3.0);
  log.on_flops(0, 4.0);
  log.on_flops(1, 5.0);
  const Timeline tl(log, simple_spec(2, 0.0, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(tl.raw_event_time(), 7.0);  // rank 0: 3+4; rank 1: 5
  EXPECT_DOUBLE_EQ(tl.rank_usage()[0].compute_busy_s, 7.0);
  EXPECT_DOUBLE_EQ(tl.rank_usage()[1].compute_busy_s, 5.0);
}

TEST(Replay, TransferStreamsThroughBothLinks) {
  EventLog log;
  log.on_transfer(0, 1, 10.0);
  log.on_barrier();
  const Timeline tl(log, simple_spec(2, 1.0, 1.0, 1.0));
  // Egress: alpha + 10 = 11; cut-through ingress finishes with the send.
  EXPECT_DOUBLE_EQ(tl.raw_event_time(), 11.0);
  // Strict BSP charges the max direction once per rank: 1 + 10 = 11.
  EXPECT_DOUBLE_EQ(tl.strict_bsp_time(), 11.0);
  EXPECT_DOUBLE_EQ(tl.perfect_overlap_time(), 10.0);
  EXPECT_DOUBLE_EQ(tl.modeled_time(), 11.0);
  EXPECT_LE(tl.perfect_overlap_time(), tl.modeled_time());
  EXPECT_LE(tl.modeled_time(), tl.strict_bsp_time());
}

TEST(Replay, BusyIngressLinkDelaysTheReceive) {
  EventLog log;
  log.on_transfer(0, 2, 10.0);  // occupies rank 2's ingress until t=10
  log.on_transfer(1, 2, 10.0);  // must queue behind it
  const Timeline tl(log, simple_spec(3, 0.0, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(tl.rank_usage()[2].finish_s, 20.0);
}

TEST(Replay, SmallerOutstandingWindowStallsTheCpu) {
  EventLog log;
  for (int i = 0; i < 4; ++i) log.on_transfer(0, 1, 10.0);
  log.on_flops(0, 100.0);
  TimelineOptions wide;
  wide.max_outstanding = 4;
  TimelineOptions narrow;
  narrow.max_outstanding = 1;
  const auto spec = simple_spec(2, 0.0, 1.0, 1.0);
  const Timeline t_wide(log, spec, wide);
  const Timeline t_narrow(log, spec, narrow);
  // Wide window: the CPU never waits for the NIC, compute ends at 100.
  EXPECT_DOUBLE_EQ(t_wide.rank_usage()[0].finish_s, 100.0);
  // Window of 1: the CPU stalls on all but the last send (completions at
  // 10, 20, 30), so compute ends at 130.
  EXPECT_DOUBLE_EQ(t_narrow.rank_usage()[0].finish_s, 130.0);
  EXPECT_GT(t_narrow.raw_event_time(), t_wide.raw_event_time());
}

TEST(Replay, SynchronousSendsBlockTheCpu) {
  EventLog log;
  log.on_send(0, 10.0, 2);
  log.on_flops(0, 1.0);
  TimelineOptions sync;
  sync.max_outstanding = 0;
  const Timeline tl(log, simple_spec(1, 1.0, 1.0, 1.0), sync);
  // Send: 2*alpha + 10 = 12 on the CPU too; compute lands after.
  EXPECT_DOUBLE_EQ(tl.rank_usage()[0].finish_s, 13.0);
}

TEST(Replay, AggregateRecvWaitsForTheStepSendFrontier) {
  EventLog log;
  log.on_send(0, 30.0, 1);  // completes at 30
  log.on_recv(1, 5.0, 1);   // may not finish before the senders pushed
  log.on_barrier();
  const Timeline tl(log, simple_spec(2, 0.0, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(tl.rank_usage()[1].finish_s, 35.0);
}

TEST(Replay, RecvRecordedBeforeItsSendStillWaitsForTheFrontier) {
  // Schedules may charge a rank's aggregate recv before its peers' sends
  // within the same superstep; the frontier must still cover those sends.
  EventLog log;
  log.on_recv(1, 5.0, 1);
  log.on_send(0, 30.0, 1);
  log.on_barrier();
  const Timeline tl(log, simple_spec(2, 0.0, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(tl.rank_usage()[1].finish_s, 35.0);
  // The next step's frontier starts fresh: an identical recv with no sends
  // in its own step only pays its own cost (after the rank's barrier sync).
  log.on_recv(1, 5.0, 1);
  log.on_barrier();
  const Timeline tl2(log, simple_spec(2, 0.0, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(tl2.rank_usage()[1].finish_s, 40.0);
}

TEST(Replay, GlobalBarriersSerializeSupersteps) {
  EventLog log;
  log.on_flops(0, 10.0);
  log.on_flops(1, 1.0);
  log.on_barrier();
  log.on_flops(1, 1.0);
  log.on_barrier();
  const auto spec = simple_spec(2, 0.0, 1.0, 1.0);
  TimelineOptions local;
  TimelineOptions global;
  global.global_barriers = true;
  // Local barriers: rank 1 pipelines past rank 0's long step (finish 2);
  // global barriers: its second step starts at 10.
  EXPECT_DOUBLE_EQ(Timeline(log, spec, local).raw_event_time(), 10.0);
  EXPECT_DOUBLE_EQ(Timeline(log, spec, global).raw_event_time(), 11.0);
}

TEST(Replay, ChainRoundsEnterThePerfectOverlapBound) {
  EventLog log;
  log.on_chain(5.0);
  const Timeline tl(log, simple_spec(1, 2.0, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(tl.perfect_overlap_time(), 10.0);
}

TEST(Replay, UsageBreakdownAccountsAllBusyTime) {
  EventLog log;
  log.on_flops(0, 6.0);
  log.on_transfer(0, 1, 4.0);
  log.on_barrier();
  const Timeline tl(log, simple_spec(2, 1.0, 2.0, 3.0));
  EXPECT_DOUBLE_EQ(tl.rank_usage()[0].compute_busy_s, 2.0);
  EXPECT_DOUBLE_EQ(tl.rank_usage()[0].send_busy_s, 3.0);  // alpha + 4/2
  EXPECT_DOUBLE_EQ(tl.rank_usage()[1].recv_busy_s, 2.0);
  EXPECT_GE(tl.rank_usage()[1].idle_s(), 0.0);
}

// -------------------------------- bounds re-derived from the event stream ----

// Replaying the recorded events must reproduce the Machine's two analytic
// times exactly: this is the proof that the event stream captures everything
// the aggregate counters did.
void expect_bounds_match(const xsim::Machine& m, const EventLog& log) {
  const Timeline tl(log, m.spec());
  EXPECT_DOUBLE_EQ(tl.strict_bsp_time(), m.elapsed_time());
  EXPECT_DOUBLE_EQ(tl.perfect_overlap_time(), m.modeled_time_overlap());
  EXPECT_EQ(tl.num_steps(), m.num_steps());
  EXPECT_LE(tl.perfect_overlap_time(), tl.modeled_time_lookahead());
  EXPECT_LE(tl.modeled_time_lookahead(), tl.modeled_time());
  EXPECT_LE(tl.modeled_time(), tl.strict_bsp_time());
  EXPECT_LE(tl.raw_lookahead_time(), tl.raw_event_time());
}

TEST(EventStream, ConfluxLuBoundsMatchMachine) {
  const index_t n = 96;
  const grid::Grid3D g(2, 2, 2);
  xsim::Machine m(paper_spec(g.ranks(), grid_memory(n, g)), xsim::ExecMode::Trace);
  EventLog log;
  ScopedRecord rec(m, log);
  factor::conflux_lu_trace(m, g, n, factor::FactorOptions{.block_size = 16});
  expect_bounds_match(m, log);
}

TEST(EventStream, ConfchoxBoundsMatchMachine) {
  const index_t n = 96;
  const grid::Grid3D g(3, 2, 2);
  xsim::Machine m(paper_spec(g.ranks(), grid_memory(n, g)), xsim::ExecMode::Trace);
  EventLog log;
  ScopedRecord rec(m, log);
  factor::confchox_trace(m, g, n, factor::FactorOptions{.block_size = 16});
  expect_bounds_match(m, log);
}

TEST(EventStream, Scalapack2DBoundsMatchMachine) {
  xsim::Machine m(paper_spec(16, 1 << 20), xsim::ExecMode::Trace);
  EventLog log;
  ScopedRecord rec(m, log);
  baselines::scalapack_lu_trace(m, grid::choose_grid_2d(16), 128,
                                baselines::Baseline2DOptions{.block_size = 32});
  expect_bounds_match(m, log);
}

TEST(EventStream, CandmcBoundsMatchMachine) {
  xsim::Machine m(paper_spec(64, 1 << 22), xsim::ExecMode::Trace);
  EventLog log;
  ScopedRecord rec(m, log);
  baselines::candmc_lu_trace(m, 1024, {});
  expect_bounds_match(m, log);
}

TEST(EventStream, ScopedRecordRestoresThePreviousSink) {
  xsim::Machine m(paper_spec(2, 1 << 10), xsim::ExecMode::Trace);
  EventLog outer;
  m.set_event_sink(&outer);
  {
    EventLog inner;
    ScopedRecord rec(m, inner);
    m.charge_flops(0, 1.0);
    EXPECT_EQ(inner.events().size(), 1u);
  }
  m.charge_flops(1, 1.0);
  EXPECT_EQ(m.event_sink(), &outer);
  EXPECT_EQ(outer.events().size(), 1u);
}

// ------------------------------------------- the model-ordering invariant ----

struct OrderingCase {
  std::string name;
  index_t n;
  int px, py, pz;
};

class ModelOrdering : public ::testing::TestWithParam<OrderingCase> {};

// Figure-style configurations (the grids behind fig01/08/09/10/11 cells,
// scaled to test size): the bounded-overlap time must sit between the
// strict-BSP and perfect-overlap models for both factorizations.
TEST_P(ModelOrdering, TimelineLiesBetweenTheBounds) {
  const auto& p = GetParam();
  const grid::Grid3D g(p.px, p.py, p.pz);
  const double mem = grid_memory(p.n, g);
  for (const bool cholesky : {false, true}) {
    xsim::Machine m(paper_spec(g.ranks(), mem), xsim::ExecMode::Trace);
    EventLog log;
    {
      ScopedRecord rec(m, log);
      if (cholesky) {
        factor::confchox_trace(m, g, p.n, {});
      } else {
        factor::conflux_lu_trace(m, g, p.n, {});
      }
    }
    const Timeline tl(log, m.spec());
    EXPECT_GT(tl.modeled_time(), 0.0);
    // The four-model chain (acceptance criterion): strict BSP above the
    // bounded-overlap replay, above the lookahead-pipelined replay, above
    // perfect overlap — on both factorizations.
    EXPECT_LE(m.modeled_time_overlap(), tl.modeled_time_lookahead())
        << p.name << (cholesky ? " chol" : " lu");
    EXPECT_LE(tl.modeled_time_lookahead(), tl.modeled_time())
        << p.name << (cholesky ? " chol" : " lu");
    EXPECT_LE(tl.modeled_time(), m.elapsed_time())
        << p.name << (cholesky ? " chol" : " lu");
    EXPECT_LE(tl.raw_lookahead_time(), tl.raw_event_time())
        << p.name << (cholesky ? " chol" : " lu");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ModelOrdering,
    ::testing::Values(OrderingCase{"seq", 256, 1, 1, 1},
                      OrderingCase{"plane2d", 512, 8, 8, 1},
                      OrderingCase{"square25d", 512, 4, 4, 4},
                      OrderingCase{"shallow25d", 512, 4, 4, 2},
                      OrderingCase{"wide", 768, 8, 4, 2},
                      OrderingCase{"nonpow2", 384, 3, 3, 3}),
    [](const ::testing::TestParamInfo<OrderingCase>& info) {
      return info.param.name;
    });

TEST(ModelOrderingBaselines, Scalapack2DAndCandmc) {
  const index_t n = 512;
  const int p = 16;
  for (int variant = 0; variant < 4; ++variant) {
    xsim::Machine m(paper_spec(p, 1 << 22), xsim::ExecMode::Trace);
    EventLog log;
    {
      ScopedRecord rec(m, log);
      switch (variant) {
        case 0:
          baselines::scalapack_lu_trace(m, grid::choose_grid_2d(p), n,
                                        baselines::Baseline2DOptions{.block_size = 64});
          break;
        case 1:
          baselines::scalapack_cholesky_trace(m, grid::choose_grid_2d(p), n,
                                              baselines::slate_defaults());
          break;
        case 2: baselines::candmc_lu_trace(m, n, {}); break;
        case 3: baselines::capital_cholesky_trace(m, n, {}); break;
      }
    }
    const Timeline tl(log, m.spec());
    EXPECT_LE(m.modeled_time_overlap(), tl.modeled_time()) << "variant " << variant;
    EXPECT_LE(tl.modeled_time(), m.elapsed_time()) << "variant " << variant;
  }
}

// --------------------------------------- Trace == Real event-stream match ----

TEST(TraceRealEvents, CholeskyEventStreamsIdentical) {
  // No pivoting: a Real and a Trace run must emit the *same events in the
  // same order* — the event-level strengthening of the per-rank counter
  // equality asserted in factor_test.
  const index_t n = 80;
  const grid::Grid3D g(2, 2, 2);
  const double mem = grid_memory(n, g);
  const MatrixD a = random_spd_matrix(n, 17);
  const factor::FactorOptions opt{.block_size = 16};

  xsim::Machine real(paper_spec(g.ranks(), mem), xsim::ExecMode::Real);
  EventLog real_log;
  {
    ScopedRecord rec(real, real_log);
    factor::confchox(real, g, a.view(), opt);
  }
  xsim::Machine trace(paper_spec(g.ranks(), mem), xsim::ExecMode::Trace);
  EventLog trace_log;
  {
    ScopedRecord rec(trace, trace_log);
    factor::confchox_trace(trace, g, n, opt);
  }
  ASSERT_EQ(real_log.events().size(), trace_log.events().size());
  EXPECT_TRUE(real_log.events() == trace_log.events());
  EXPECT_EQ(real_log.labels(), trace_log.labels());
}

struct KindAggregate {
  std::size_t count = 0;
  double words = 0.0;
  double flops = 0.0;
};

std::map<EventKind, KindAggregate> aggregate_by_kind(const EventLog& log) {
  std::map<EventKind, KindAggregate> out;
  for (const Event& e : log.events()) {
    KindAggregate& a = out[e.kind];
    ++a.count;
    a.words += e.words;
    a.flops += e.flops;
  }
  return out;
}

TEST(TraceRealEvents, LuPerKindTotalsMatch) {
  // LU pivot *positions* differ between Real (data-driven) and Trace
  // (random), so individual events differ — but each event kind's total
  // volume and flops are pivot-invariant, like the machine-wide totals.
  const index_t n = 96;
  const grid::Grid3D g(2, 2, 2);
  const double mem = grid_memory(n, g);
  const MatrixD a = random_matrix(n, n, 19);
  const factor::FactorOptions opt{.block_size = 16};

  xsim::Machine real(paper_spec(g.ranks(), mem), xsim::ExecMode::Real);
  EventLog real_log;
  {
    ScopedRecord rec(real, real_log);
    factor::conflux_lu(real, g, a.view(), opt);
  }
  xsim::Machine trace(paper_spec(g.ranks(), mem), xsim::ExecMode::Trace);
  EventLog trace_log;
  {
    ScopedRecord rec(trace, trace_log);
    factor::conflux_lu_trace(trace, g, n, opt);
  }
  const auto real_agg = aggregate_by_kind(real_log);
  const auto trace_agg = aggregate_by_kind(trace_log);
  ASSERT_EQ(real_agg.size(), trace_agg.size());
  for (const auto& [kind, ra] : real_agg) {
    ASSERT_TRUE(trace_agg.count(kind)) << kind_name(kind);
    const KindAggregate& ta = trace_agg.at(kind);
    EXPECT_NEAR(ra.words, ta.words, 1e-9 * ra.words + 1e-9) << kind_name(kind);
    EXPECT_NEAR(ra.flops, ta.flops, 1e-9 * ra.flops + 1e-9) << kind_name(kind);
  }
  EXPECT_EQ(real_log.num_barriers(), trace_log.num_barriers());
  EXPECT_EQ(real_log.labels(), trace_log.labels());
}

// ----------------------------------------------------- Chrome-trace JSON ----

TEST(ChromeTrace, ExportIsValidJsonWithPhaseLabels) {
  const index_t n = 64;
  const grid::Grid3D g(2, 2, 2);
  xsim::Machine m(paper_spec(g.ranks(), grid_memory(n, g)), xsim::ExecMode::Trace);
  EventLog log;
  {
    ScopedRecord rec(m, log);
    factor::conflux_lu_trace(m, g, n, factor::FactorOptions{.block_size = 16});
  }
  TimelineOptions opt;
  opt.record_slices = true;
  const Timeline tl(log, m.spec(), opt);
  ASSERT_FALSE(tl.slices().empty());

  std::ostringstream os;
  const std::size_t written = write_chrome_trace(os, tl);
  const std::string json = os.str();
  EXPECT_GT(written, 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("tournament-pivot"), std::string::npos);
  EXPECT_NE(json.find("schur-update"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_TRUE(json::parse(json).has_value()) << json.substr(0, 400);
}

TEST(ChromeTrace, SlicesAreOffWithoutOptIn) {
  EventLog log;
  log.on_flops(0, 1.0);
  const Timeline tl(log, simple_spec(1, 0.0, 1.0, 1.0));
  EXPECT_TRUE(tl.slices().empty());
}

// ---------------------------------------------- lookahead time model ----

TEST(Replay, LazyDeferralShortensTheRawReplay) {
  // A lazy compute charge ahead of a transfer: the normal replay serializes
  // compute-then-send on the rank's CPU; the lookahead pass defers the lazy
  // work past the send and pays it at the end, so the receiver gets its
  // data earlier and the raw finish time drops. (The *clamped* lookahead
  // time still respects the [overlap, modeled] bracket.)
  EventLog log;
  log.on_annotation("schur-update-lazy");
  log.on_flops(0, 10.0);
  log.on_annotation("other");
  log.on_transfer(0, 1, 10.0);
  log.on_barrier();
  const Timeline tl(log, simple_spec(2, 0.0, 1.0, 1.0));
  // Normal: lazy 10s, then the 10-word send -> receiver finishes at 20.
  EXPECT_DOUBLE_EQ(tl.raw_event_time(), 20.0);
  // Lookahead: send starts immediately; the deferred 10s fill the sender's
  // tail -> everything done at 10.
  EXPECT_DOUBLE_EQ(tl.raw_lookahead_time(), 10.0);
  EXPECT_LE(tl.perfect_overlap_time(), tl.modeled_time_lookahead());
  EXPECT_LE(tl.modeled_time_lookahead(), tl.modeled_time());
}

TEST(Replay, UrgentPhasePaysTheOutstandingBacklogFirst) {
  // An urgent-labeled charge after a lazy one models the pipelined
  // executor's real dependency: the urgent stripe writes cells the lazy
  // remainder also writes, so the backlog is drained before it runs.
  EventLog log;
  log.on_annotation("schur-update-lazy");
  log.on_flops(0, 10.0);
  log.on_annotation("schur-update-urgent");
  log.on_flops(0, 5.0);
  const Timeline tl(log, simple_spec(1, 0.0, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(tl.raw_event_time(), 15.0);
  EXPECT_DOUBLE_EQ(tl.raw_lookahead_time(), 15.0);  // nothing to hide behind
}

// ----------------------------------------------------- persistent pool ----

TEST(TaskPool, DependenciesOrderExecution) {
  TaskPool& pool = TaskPool::instance();
  std::atomic<int> stage{0};
  int first_seen = -1;
  int second_seen = -1;
  const TaskId a = pool.submit([&] { first_seen = stage.fetch_add(1); },
                               "first", TaskCategory::Other, 0, nullptr, 0);
  const TaskId b = pool.submit([&] { second_seen = stage.fetch_add(1); },
                               "second", TaskCategory::Other, 0, &a, 1);
  pool.wait(b);
  EXPECT_EQ(first_seen, 0);
  EXPECT_EQ(second_seen, 1);
  // Completed or unknown dependency ids are ignored.
  const TaskId c = pool.submit([&] { stage.fetch_add(1); }, "third",
                               TaskCategory::Other, 0, &b, 1);
  pool.wait(c);
  EXPECT_EQ(stage.load(), 3);
}

// ------------------------------------------ failure semantics (ISSUE 6) ----

TEST(TaskPool, TaskExceptionPropagatesToWait) {
  // A task body that throws must surface on the master as a classified
  // status_error at its next wait — never terminate() on a worker, never
  // vanish.
  TaskPool& pool = TaskPool::instance();
  const TaskId t = pool.submit([] { throw std::runtime_error("boom"); },
                               "thrower", TaskCategory::Other, 7, nullptr, 0);
  try {
    pool.wait(t);
    FAIL() << "task exception must surface at wait";
  } catch (const status_error& e) {
    EXPECT_EQ(e.code(), StatusCode::kTaskFailed);
    EXPECT_EQ(e.status().step(), 7);
    EXPECT_NE(e.status().message().find("thrower"), std::string::npos);
    EXPECT_NE(e.status().message().find("boom"), std::string::npos);
  }
  // Consuming the error resets the pool: fresh work runs normally.
  std::atomic<int> ran{0};
  const TaskId u =
      pool.submit([&] { ran = 1; }, "after", TaskCategory::Other, 0, nullptr, 0);
  pool.wait(u);
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskPool, FailedTaskCancelsDependents) {
  // Cooperative cancellation: after a failure the rest of the graph drains
  // without running bodies — dependents "finish" (no deadlock) but their
  // side effects never happen.
  TaskPool& pool = TaskPool::instance();
  std::atomic<bool> dependent_ran{false};
  const TaskId bad =
      pool.submit([] { throw std::runtime_error("first failure"); }, "bad",
                  TaskCategory::Other, 1, nullptr, 0);
  const TaskId dep = pool.submit([&] { dependent_ran = true; }, "dep",
                                 TaskCategory::Other, 2, &bad, 1);
  try {
    pool.wait(dep);
    FAIL() << "waiting on a cancelled dependent must rethrow the root cause";
  } catch (const status_error& e) {
    EXPECT_EQ(e.code(), StatusCode::kTaskFailed);
    EXPECT_EQ(e.status().step(), 1);  // the ROOT failure, not the cascade
  }
  EXPECT_FALSE(dependent_ran.load());
  std::atomic<bool> ok{false};
  const TaskId next = pool.submit([&] { ok = true; }, "recover",
                                  TaskCategory::Other, 0, nullptr, 0);
  pool.wait(next);
  EXPECT_TRUE(ok.load());
}

TEST(TaskPool, WatchdogDetectsWedgedPool) {
  // A worker stuck in a task (here: spinning until released) must not hang
  // the blocked master forever: after a full watchdog interval with zero
  // retirements the wait fails fast with kPoolWedged and a task-id dump.
  // The task is Lazy so the helping master cannot pick it up itself and
  // block in its body.
  TaskPool& pool = TaskPool::instance();
  const xblas::ScopedThreadCap two(2);
  pool.set_watchdog_seconds(0.2);
  std::atomic<bool> release{false};
  const TaskId wedged = pool.submit(
      [&] {
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      "wedged-task", TaskCategory::Lazy, 3, nullptr, 0);
  try {
    pool.wait(wedged);
    FAIL() << "a wedged pool must fail fast, not block";
  } catch (const status_error& e) {
    EXPECT_EQ(e.code(), StatusCode::kPoolWedged);
    EXPECT_NE(e.status().message().find("wedged-task"), std::string::npos);
  }
  // Resolve the wedge; the pool must drain and accept work again.
  release = true;
  pool.wait_all();
  std::atomic<bool> ok{false};
  const TaskId next = pool.submit([&] { ok = true; }, "after-wedge",
                                  TaskCategory::Other, 0, nullptr, 0);
  pool.wait(next);
  EXPECT_TRUE(ok.load());
  pool.set_watchdog_seconds(0.0);  // back to the env/default interval
}

TEST(TaskPool, SingleChunkAndSingleThreadParallelForRunInline) {
  // The explicit fast path: n == 1, or width 1, executes on the calling
  // thread with no team machinery at all.
  TaskPool& pool = TaskPool::instance();
  const auto self = std::this_thread::get_id();
  std::thread::id ran_on{};
  pool.parallel_for(1, [&](index_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, self);
  std::array<std::thread::id, 4> ids{};
  {
    const xblas::ScopedThreadCap one(1);
    pool.parallel_for(4, [&](index_t i) {
      ids[static_cast<std::size_t>(i)] = std::this_thread::get_id();
    });
  }
  for (const auto& id : ids) EXPECT_EQ(id, self);
}

// The solve service's cache-hit path: a width-1 gemm on a thread outside
// the pool, while another thread's parallel_for is live and has already
// captured an error, must run inline with the same bits as an idle-pool
// run and must not pick up (rethrow) the other thread's error.
TEST(TaskPool, WidthOneGemmStaysOffALiveFailingJob) {
  TaskPool& pool = TaskPool::instance();
  const MatrixD a = random_matrix(96, 200, 41);
  const MatrixD b = random_matrix(200, 300, 42);
  const auto run_gemm = [&] {
    MatrixD c(96, 300, 0.0);
    xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0, a.view(),
                b.view(), 0.0, c.view());
    return c;
  };
  const MatrixD want = run_gemm();

  // Index 0 holds the owner's job open until released; index 1 (on the
  // other thread of the team) fails, so the pool has a captured error.
  std::atomic<bool> failed{false};
  std::atomic<bool> release{false};
  std::thread owner([&] {
    const xblas::ScopedThreadCap two(2);
    try {
      pool.parallel_for(2, [&](index_t i) {
        if (i == 1) {
          failed = true;
          throw std::runtime_error("owner's job failed");
        }
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
      ADD_FAILURE() << "the owner's parallel_for must rethrow its error";
    } catch (const status_error& e) {
      EXPECT_EQ(e.code(), StatusCode::kTaskFailed);
    }
  });
  while (!failed.load()) std::this_thread::yield();
  // The capture follows the throw by microseconds.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  MatrixD got;
  bool threw = false;
  const auto self = std::this_thread::get_id();
  std::thread::id ran_on{};
  try {
    const xblas::ScopedThreadCap one(1);
    got = run_gemm();
    pool.parallel_for(3, [&](index_t) { ran_on = std::this_thread::get_id(); });
  } catch (...) {
    threw = true;
  }
  release = true;
  owner.join();
  EXPECT_FALSE(threw) << "a width-1 caller must never see another's error";
  EXPECT_EQ(ran_on, self);
  EXPECT_EQ(got, want);
}

// With two threads, a lookahead run must actually pipeline: some step t+1
// panel task (the A10 solve feeding the next Schur update) begins on the
// wall clock before step t's lazy remainder has finished, and the recorded
// pool slices export as valid Chrome-trace JSON.
TEST(TaskPool, LookaheadRunOverlapsAcrossStepsInTheRecordedTrace) {
  const index_t n = 512;
  const grid::Grid3D g(2, 2, 1);
  const MatrixD a = random_matrix(n, n, 101);
  factor::FactorOptions opt;
  opt.block_size = 32;
  opt.lookahead = 1;
  const index_t steps = n / opt.block_size;

  TaskPool& pool = TaskPool::instance();
  const xblas::ScopedThreadCap two(2);
  // The overlap is a wall-clock property: with both threads time-sliced
  // onto few (or one) physical cores, an unlucky OS schedule can serialize
  // a whole run. Any successful attempt proves the pipeline; retry a few
  // times before declaring failure.
  bool overlapped = false;
  std::vector<TaskSlice> slices;
  for (int attempt = 0; attempt < 8 && !overlapped; ++attempt) {
    pool.start_recording();
    xsim::Machine m(paper_spec(g.ranks(), grid_memory(n, g)), xsim::ExecMode::Real);
    const factor::LuResult lu = factor::conflux_lu(m, g, a.view(), opt);
    slices = pool.stop_recording();
    ASSERT_EQ(static_cast<index_t>(lu.perm.size()), n);
    ASSERT_FALSE(slices.empty());

    // Per step: when did the lazy remainder end, and when did the next
    // step's panel work begin?
    std::vector<double> lazy_end(static_cast<std::size_t>(steps), -1.0);
    std::vector<double> panel_start(static_cast<std::size_t>(steps), 1e300);
    bool saw_urgent = false;
    for (const TaskSlice& s : slices) {
      if (s.step < 0 || s.step >= steps) continue;
      const auto i = static_cast<std::size_t>(s.step);
      if (s.category == TaskCategory::Lazy) {
        lazy_end[i] = std::max(lazy_end[i], s.end_s);
      } else if (s.name == std::string_view("panel-trsm-a10")) {
        panel_start[i] = std::min(panel_start[i], s.start_s);
      }
      saw_urgent = saw_urgent || s.category == TaskCategory::Urgent;
    }
    EXPECT_TRUE(saw_urgent);
    for (index_t t = 0; t + 1 < steps; ++t) {
      const auto i = static_cast<std::size_t>(t);
      if (lazy_end[i] < 0.0) continue;
      overlapped = overlapped || panel_start[i + 1] < lazy_end[i];
    }
  }
  EXPECT_TRUE(overlapped)
      << "no step t+1 panel task began before step t's lazy gemm ended";

  std::ostringstream os;
  const std::size_t written = write_task_trace(os, slices);
  const std::string json = os.str();
  EXPECT_GT(written, 0u);
  EXPECT_NE(json.find("schur-lazy"), std::string::npos);
  EXPECT_NE(json.find("schur-urgent"), std::string::npos);
  EXPECT_NE(json.find("panel-trsm-a10"), std::string::npos);
  EXPECT_TRUE(json::parse(json).has_value()) << json.substr(0, 400);
}

// ---------------------------------------------------- pool determinism ----

TEST(RankParallel, RealModeResultsBitwiseIdenticalAcrossThreadCounts) {
  const index_t n = 128;
  const grid::Grid3D g(2, 2, 2);
  const double mem = grid_memory(n, g);
  const MatrixD a = random_matrix(n, n, 29);
  const MatrixD spd = random_spd_matrix(n, 31);
  const factor::FactorOptions opt{.block_size = 16};

  const auto run_lu = [&] {
    xsim::Machine m(paper_spec(g.ranks(), mem), xsim::ExecMode::Real);
    return factor::conflux_lu(m, g, a.view(), opt);
  };
  const auto run_chol = [&] {
    xsim::Machine m(paper_spec(g.ranks(), mem), xsim::ExecMode::Real);
    return factor::confchox(m, g, spd.view(), opt);
  };

  const auto run_at = [&](int width) {
    const xblas::ScopedThreadCap cap(width);
    return std::make_pair(run_lu(), run_chol());
  };
  const auto [lu1, ch1] = run_at(1);
  const auto [lu4, ch4] = run_at(4);

  EXPECT_EQ(lu1.perm, lu4.perm);
  EXPECT_EQ(lu1.factors, lu4.factors);
  EXPECT_EQ(ch1.factors, ch4.factors);
}

// ---------------------------------------------------------------------------
// Pool lease (the solve service's tenant-isolation primitive)
// ---------------------------------------------------------------------------

TEST(PoolLease, GrantsByPriorityThenArrival) {
  TaskPool& pool = TaskPool::instance();
  std::vector<int> grant_order;
  std::mutex order_mu;
  std::atomic<int> blocked{0};

  TaskPool::Lease held = pool.acquire_lease(0);
  ASSERT_TRUE(held.held());

  // Two contenders queue while the lease is held: the batch-priority
  // arrival comes FIRST, the interactive one second — the grant order must
  // invert to (priority, arrival).
  auto contend = [&](int priority) {
    blocked.fetch_add(1);
    TaskPool::Lease lease = pool.acquire_lease(priority);
    std::lock_guard<std::mutex> lock(order_mu);
    grant_order.push_back(priority);
  };
  std::thread batch(contend, 2);
  while (blocked.load() < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // batch is waiting
  std::thread interactive(contend, 0);
  while (blocked.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // both are waiting

  held.release();
  EXPECT_FALSE(held.held());
  batch.join();
  interactive.join();
  ASSERT_EQ(grant_order.size(), 2u);
  EXPECT_EQ(grant_order[0], 0) << "interactive must be granted first";
  EXPECT_EQ(grant_order[1], 2);
}

TEST(PoolLease, MoveTransfersOwnershipAndReleaseIsIdempotent) {
  TaskPool& pool = TaskPool::instance();
  TaskPool::Lease a = pool.acquire_lease(1);
  ASSERT_TRUE(a.held());
  TaskPool::Lease b = std::move(a);
  EXPECT_FALSE(a.held());
  EXPECT_TRUE(b.held());
  b.release();
  b.release();  // releasing twice must be harmless
  EXPECT_FALSE(b.held());
  // The pool is free again: an immediate re-acquire must not block.
  TaskPool::Lease c = pool.acquire_lease(2);
  EXPECT_TRUE(c.held());
}

}  // namespace
}  // namespace conflux::sched
