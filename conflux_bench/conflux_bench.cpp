// Measuring side of the end-to-end benchmark (README.md in this directory).
//
// run.py builds this binary and starts it once per child process, with a
// role, a workload, a seed, a process index and a time budget. Each start
// prints one JSON report on stdout; run.py turns the reports of a run into
// the benchmark's metrics. Everything here goes through the library's
// public entry points only.
//
// Roles:
//   measure  Generate the inputs, make the process's first (cold) call or
//            fill the service's cache, then time samples until the budget is
//            spent. A factor workload sample is one factorization plus an
//            8-RHS solve; serve-zipf runs an open-loop request stream at a
//            fixed rate. The set-up time runs from process start to the
//            first timed sample, less the time spent generating inputs.
//   traced   The per-layer pass: direct BLAS probes, then interleaved
//            untraced and traced samples (metrics registry armed, phase-span
//            capture, task-pool recording), reduced to per-layer numbers,
//            plus one unified Chrome trace of the last traced sample.
//
// Usage:
//   conflux_bench --role=measure|traced --workload=NAME --seed=N --index=K
//                 --budget=SECONDS [--trace-file=PATH]
//
// The inputs depend only on (workload, seed, index), and are generated
// before any timing starts. Every factor-workload solution and every
// service response is checked against a normwise backward error of n * eps;
// a sample that misses it, throws, or is refused counts as failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "blas/lapack.hpp"
#include "blas/microkernel.hpp"
#include "blas/tuning.hpp"
#include "factor/confchox.hpp"
#include "factor/conflux_lu.hpp"
#include "factor/mixed.hpp"
#include "models/models.hpp"
#include "obs/audit.hpp"
#include "sched/chrome_trace.hpp"
#include "sched/event.hpp"
#include "sched/taskpool.hpp"
#include "sched/timeline.hpp"
#include "serve/service.hpp"
#include "support/buildinfo.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/rng.hpp"
#include "tensor/example_problems.hpp"
#include "tensor/random_matrix.hpp"

using namespace conflux;

namespace {

using Clock = std::chrono::steady_clock;

// Process start, as near as static initialization gets.
const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Kind { kLu, kChol, kServe };

struct Workload {
  const char* name;
  Kind kind;
  index_t n;  // matrix order of the factor workloads
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"lu-n2048-p64", Kind::kLu, 2048},
    {"chol-n2048-p64", Kind::kChol, 2048},
    {"lu-n1024-p64", Kind::kLu, 1024},
    {"serve-zipf", Kind::kServe, 0},
};

// Factor workloads: the 4x4x4 grid (P = 64, c = 4) with every program knob
// at its default (block size auto, lookahead from the environment, which
// run.py clears).
constexpr int kPx = 4;
constexpr int kPy = 4;
constexpr int kPz = 4;
constexpr index_t kFactorRhs = 8;
constexpr int kMinSamples = 3;
// A failed sample's time: it misses every latency limit.
constexpr double kFailed = std::numeric_limits<double>::infinity();

// serve-zipf: 48 K-FAC / DFT problems of order 128, 256 or 512 with Zipf(1)
// popularity, 4 RHS per request, a 4 Mi-word factor cache, and an open loop
// at 300 req/s after a closed-loop warm fill. The problem mix, popularity,
// request mix and rate are assumptions, not taken from observed traffic.
constexpr int kServeProblems = 48;
constexpr index_t kServeOrders[] = {128, 256, 512};
constexpr index_t kServeRhs = 4;
constexpr double kServeCacheWords = 4.0 * 1024.0 * 1024.0;
constexpr double kServeRate = 300.0;
constexpr int kServeWarmRequests = 300;
// The cold-excess probe: the cold first request goes to problem 0 (order
// 128, K-FAC); the warm reference is the median first request to the other
// problems of that order and kind, 6, 12, ..., 42 (see serve_problems).
constexpr int kServeProbeStride = 6;
// Capacity search: the highest rate 100 * 1.1^k, k in [0, 40], whose probe
// meets p99 <= 50 ms with no refusals and no failures.
constexpr double kCapacityP99LimitS = 0.050;
constexpr int kCapacityMaxStep = 40;

// Names of the phase spans and dm.* counters the library records today.
constexpr const char* kPhaseSpans[] = {
    "reduce-column",     "tournament-pivot", "bcast-a00",   "scatter-a10",
    "scatter-a01",       "reduce-pivot-rows", "distribute-2.5d",
    "panel-trsm",        "schur-update",     "potrf-a00",   "scatter-panel"};
constexpr const char* kDmCounters[] = {
    "panel_gather", "pivot_merge",   "pivot_rows_gather", "pivot_retire",
    "panel_solve",  "schur_operand", "schur_update",      "pack_a",
    "pack_b",       "layout_redistribute"};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (stream + 1)));
  return rng();
}

/// Linear-interpolation quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[lo] == v[hi]) return v[lo];  // also keeps inf from NaN
  return v[lo] + frac * (v[hi] - v[lo]);
}

bool accurate(ConstViewD a, ConstViewD x, ConstViewD b) {
  const double berr = factor::solve_backward_error(a, x, b);
  return std::isfinite(berr) &&
         berr <= static_cast<double>(a.rows()) * std::numeric_limits<double>::epsilon();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The report every role prints: scalar fields, sample vectors and, for the
/// traced role, the per-layer metrics.
struct Report {
  double setup_s = 0.0;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> layers;

  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

void print_report(const Report& r, const Workload& w, std::string_view role) {
  json::Writer out(std::cout);
  out.begin_object();
  out.field("workload", w.name);
  out.field("role", role);
  out.field("git_describe", git_describe());
  out.field("isa", xblas::isa_name(xblas::active_isa()));
  out.field("tuning_source", xblas::tuning_source());
  out.field("pool_width", sched::TaskPool::instance().width());
  out.field("nproc", static_cast<long long>(std::thread::hardware_concurrency()));
  out.field("setup_s", r.setup_s);
  out.field("peak_rss_mb", peak_rss_mb());
  out.field("attempted", r.attempted);
  out.field("failed", r.failed);
  for (const auto& [name, values] : r.samples) {
    out.key(name);
    out.begin_array();
    for (const double v : values) out.value(v);
    out.end_array();
  }
  out.key("layers");
  out.begin_object();
  for (const auto& [name, value] : r.layers) out.field(name, value);
  out.end_object();
  out.end_object();
  std::cout << std::endl;
}

// ---------------------------------------------------------------------------
// Span self times: a span's duration minus the part of it that child spans
// on the same thread cover. Spans of one thread are RAII scopes and nest, so
// the covered part is the sum of the direct children's durations.

void add_self_times(const prof::Capture& cap, std::map<std::string, double>& self) {
  std::vector<const prof::SpanRecord*> spans;
  spans.reserve(cap.spans.size());
  for (const prof::SpanRecord& s : cap.spans) {
    if (s.t1 >= s.t0) spans.push_back(&s);
  }
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    if (a->thread != b->thread) return a->thread < b->thread;
    if (a->t0 != b->t0) return a->t0 < b->t0;
    return a->t1 > b->t1;
  });
  struct Open {
    const prof::SpanRecord* span;
    double children = 0.0;
  };
  std::vector<Open> open;
  const auto close_until = [&](double t) {
    while (!open.empty() && open.back().span->t1 <= t) {
      const Open o = open.back();
      open.pop_back();
      const double dur = o.span->t1 - o.span->t0;
      self[o.span->name] += dur - o.children;
      if (!open.empty()) open.back().children += dur;
    }
  };
  constexpr double kEnd = std::numeric_limits<double>::infinity();
  int thread = -1;
  for (const prof::SpanRecord* s : spans) {
    if (s->thread != thread) {
      close_until(kEnd);
      thread = s->thread;
    }
    close_until(s->t0);
    open.push_back({s, 0.0});
  }
  close_until(kEnd);
}

/// One traced window: metrics armed, span capture and task-pool recording
/// on. The accumulated self times and pool busy time cover every window;
/// the capture and task slices are those of the last window.
struct TraceWindows {
  std::map<std::string, double> self_s;
  sched::TaskPoolStats pool;
  prof::Capture last_capture;
  std::vector<sched::TaskSlice> last_slices;

  template <typename Body>
  void run(Body&& body) {
    sched::TaskPool& tp = sched::TaskPool::instance();
    metrics::set_enabled(true);
    tp.reset_stats();
    tp.start_recording();
    prof::start_capture();
    body();
    last_capture = prof::stop_capture();
    last_slices = tp.stop_recording();
    const sched::TaskPoolStats st = tp.stats();
    metrics::set_enabled(false);
    pool.urgent_busy_s += st.urgent_busy_s;
    pool.lazy_busy_s += st.lazy_busy_s;
    pool.other_busy_s += st.other_busy_s;
    pool.tasks_run += st.tasks_run;
    add_self_times(last_capture, self_s);
  }

  double self(const std::string& name) const {
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : it->second;
  }
};

/// Per-layer numbers every workload shares: phase self times, dm.* bytes and
/// task-pool activity per unit of work (a factor sample or a request).
void add_shared_layers(const TraceWindows& tw, const metrics::Snapshot& before,
                       const metrics::Snapshot& after, double units, Report& r) {
  const double per = units > 0.0 ? 1.0 / units : 0.0;
  for (const char* p : kPhaseSpans) {
    r.layers[std::string("factor.phase.") + p + ".self_s"] = tw.self(p) * per;
  }
  for (const char* c : kDmCounters) {
    const std::string name = std::string("dm.") + c + ".bytes";
    r.layers[name] = (after.value(name) - before.value(name)) * per;
  }
  r.layers["pool.busy_s.urgent"] = tw.pool.urgent_busy_s * per;
  r.layers["pool.busy_s.lazy"] = tw.pool.lazy_busy_s * per;
  r.layers["pool.busy_s.other"] = tw.pool.other_busy_s * per;
  r.layers["pool.tasks_run"] = static_cast<double>(tw.pool.tasks_run) * per;
  for (const char* cat : {"urgent", "lazy"}) {
    const std::string name = std::string("pool.latency_") + cat + "_s";
    const metrics::MetricValue* h1 = after.find(name);
    const metrics::MetricValue* h0 = before.find(name);
    const double count = (h1 ? static_cast<double>(h1->count) : 0.0) -
                         (h0 ? static_cast<double>(h0->count) : 0.0);
    const double sum = (h1 ? h1->sum : 0.0) - (h0 ? h0->sum : 0.0);
    r.layers[name + ".mean"] = count > 0.0 ? sum / count : 0.0;
  }
  const metrics::MetricValue* depth = after.find("pool.ready_depth");
  r.layers["pool.ready_depth.max"] = depth ? depth->max : 0.0;
}

bool write_trace(const std::string& path, const TraceWindows& tw) {
  if (path.empty()) return true;
  if (!sched::write_unified_trace_file(path, tw.last_slices, tw.last_capture)) {
    std::fprintf(stderr, "conflux_bench: could not write %s\n", path.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// BLAS probes: direct calls at the shapes the factorizations issue, timed
// per call (median over the calls that fit in a short budget).

template <typename Call>
double probe_gflops(double flops, Call&& call) {
  constexpr double kProbeBudgetS = 0.15;
  std::vector<double> times;
  const auto t0 = Clock::now();
  while (times.size() < 3 || seconds_since(t0) < kProbeBudgetS) {
    times.push_back(call());
  }
  return flops / quantile(times, 0.5) / 1e9;
}

template <typename T>
Matrix<T> random_of(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix<T> m(rows, cols);
  convert<double, T>(random_matrix(rows, cols, seed).view(), m.view());
  return m;
}

template <typename T>
double gemm_probe(index_t m, index_t n, index_t k) {
  const Matrix<T> a = random_of<T>(m, k, 11);
  const Matrix<T> b = random_of<T>(k, n, 12);
  Matrix<T> c = random_of<T>(m, n, 13);
  return probe_gflops(xblas::gemm_flops(m, n, k), [&] {
    const auto t0 = Clock::now();
    xblas::gemm<T>(xblas::Trans::None, xblas::Trans::None, T{-1}, a.view(),
                   b.view(), T{1}, c.view());
    return seconds_since(t0);
  });
}

/// Times `call(work)` on a fresh copy of `pristine` each time (in-place
/// kernels); the copy is outside the timed interval.
template <typename Call>
double in_place_probe(double flops, const MatrixD& pristine, Call&& call) {
  MatrixD work = pristine;
  return probe_gflops(flops, [&] {
    copy(pristine.view(), work.view());
    const auto t0 = Clock::now();
    call(work.view());
    return seconds_since(t0);
  });
}

void blas_probes(Report& r) {
  using xblas::Diag;
  using xblas::Side;
  using xblas::Trans;
  using xblas::UpLo;
  r.layers["blas.gemm.gflops.tN"] = gemm_probe<double>(1024, 1024, 1024);
  xblas::ScopedThreadCap one_thread(1);
  r.layers["blas.gemm.gflops.t1"] = gemm_probe<double>(1024, 1024, 1024);
  // One Schur-update row-block call of the n = 2048 cells: k = v = 64.
  r.layers["blas.gemm_k64.gflops.t1"] = gemm_probe<double>(128, 2048, 64);
  r.layers["blas.gemm_f32_k64.gflops.t1"] = gemm_probe<float>(128, 2048, 64);

  const MatrixD u = [] {
    MatrixD t = random_matrix(64, 64, 14);
    for (index_t i = 0; i < 64; ++i) t(i, i) += 64.0;  // well-conditioned U00
    return t;
  }();
  r.layers["blas.trsm_panel.gflops.t1"] = in_place_probe(
      xblas::trsm_flops(2048, 64, Side::Right), random_matrix(2048, 64, 15),
      [&](ViewD b) {
        xblas::trsm(Side::Right, UpLo::Upper, Trans::None, Diag::NonUnit, 1.0,
                    u.view(), b);
      });

  const MatrixD pa = random_matrix(512, 64, 16);
  const MatrixD pb = random_matrix(64, 512, 17);
  r.layers["blas.gemmt.gflops.t1"] = in_place_probe(
      xblas::gemm_flops(512, 512, 64) / 2.0, random_matrix(512, 512, 18),
      [&](ViewD c) {
        xblas::gemmt(UpLo::Lower, Trans::None, Trans::None, -1.0, pa.view(),
                     pb.view(), 1.0, c);
      });

  std::vector<index_t> ipiv;
  r.layers["blas.getrf_cand.gflops.t1"] = in_place_probe(
      128.0 * 64.0 * 64.0 - 64.0 * 64.0 * 64.0 / 3.0, random_matrix(128, 64, 19),
      [&](ViewD a) { xblas::getrf(a, ipiv); });
  r.layers["blas.potrf.gflops.t1"] = in_place_probe(
      64.0 * 64.0 * 64.0 / 3.0, random_spd_matrix(64, 20),
      [](ViewD a) { xblas::potrf(a); });
}

// ---------------------------------------------------------------------------
// Factor workloads.

xsim::MachineSpec factor_spec(index_t n) {
  xsim::MachineSpec spec;  // Piz Daint-like defaults (xsim/machine.hpp)
  spec.num_ranks = kPx * kPy * kPz;
  spec.memory_words = static_cast<double>(kPz) * static_cast<double>(n) *
                      static_cast<double>(n) / static_cast<double>(spec.num_ranks);
  return spec;
}

double factor_flops(const Workload& w) {
  const auto n = static_cast<double>(w.n);
  return w.kind == Kind::kLu ? models::lu_flops(n) : models::cholesky_flops(n);
}

struct FactorInputs {
  MatrixD a;
  MatrixD b;
};

/// The symmetric part of random_matrix(n, n, seed) with n on the diagonal:
/// strictly diagonally dominant with a positive diagonal, hence SPD. It
/// takes O(n^2) scalar work and no BLAS call, so the first factorization is
/// the process's first use of the library's kernels and threads
/// (random_spd_matrix's O(n^3) scalar loop would take seconds at n = 2048).
MatrixD spd_matrix(index_t n, std::uint64_t seed) {
  MatrixD a = random_matrix(n, n, seed);
  for (index_t i = 0; i < n; ++i) {
    a(i, i) = static_cast<double>(n);
    for (index_t j = 0; j < i; ++j) a(i, j) = a(j, i) = 0.5 * (a(i, j) + a(j, i));
  }
  return a;
}

FactorInputs factor_inputs(const Workload& w, std::uint64_t seed) {
  return {w.kind == Kind::kLu ? random_matrix(w.n, w.n, seed) : spd_matrix(w.n, seed),
          random_matrix(w.n, kFactorRhs, mix_seed(seed, 1))};
}

struct FactorSample {
  double factor_s = 0.0;
  double tts_s = 0.0;
  double workspace_words = 0.0;
  bool ok = false;
};

template <typename FactorFn, typename SolveFn>
void time_factor_solve(FactorFn&& factor_fn, SolveFn&& solve_fn, ViewD x,
                       FactorSample& s) {
  const auto t0 = Clock::now();
  const auto f = [&] {
    prof::ScopedSpan span("bench.factor");
    return factor_fn();
  }();
  s.factor_s = seconds_since(t0);
  {
    prof::ScopedSpan span("bench.solve");
    solve_fn(f, x);
  }
  s.tts_s = seconds_since(t0);
  s.workspace_words = f.workspace_words;
}

/// One factorization + solve on `m`, checked after the clock stops.
FactorSample factor_sample(const Workload& w, const FactorInputs& in,
                           xsim::Machine& m) {
  FactorSample s;
  MatrixD x = in.b;
  const grid::Grid3D g(kPx, kPy, kPz);
  try {
    if (w.kind == Kind::kLu) {
      time_factor_solve([&] { return factor::conflux_lu(m, g, in.a.view()); },
                        [](const factor::LuResult& f, ViewD b) {
                          factor::conflux_lu_solve(f, b);
                        },
                        x.view(), s);
    } else {
      time_factor_solve([&] { return factor::confchox(m, g, in.a.view()); },
                        [](const factor::CholResult& f, ViewD b) {
                          factor::confchox_solve(f, b);
                        },
                        x.view(), s);
    }
    s.ok = accurate(in.a.view(), x.view(), in.b.view());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "conflux_bench: %s sample failed: %s\n", w.name, e.what());
  }
  return s;
}

void measure_factor(const Workload& w, std::uint64_t seed, double budget,
                    Report& r) {
  const auto g0 = Clock::now();
  const FactorInputs in = factor_inputs(w, seed);
  const double generate_s = seconds_since(g0);
  const xsim::MachineSpec spec = factor_spec(w.n);
  {
    // The cold call: pool and OpenMP team spawn, kernel dispatch, first touch.
    xsim::Machine m(spec, xsim::ExecMode::Real);
    r.count(factor_sample(w, in, m).ok);
  }
  r.setup_s = seconds_since(g_process_start) - generate_s;
  std::vector<double>& tts = r.samples["tts_s"];
  const auto t0 = Clock::now();
  while (static_cast<int>(tts.size()) < kMinSamples || seconds_since(t0) < budget) {
    xsim::Machine m(spec, xsim::ExecMode::Real);
    const FactorSample s = factor_sample(w, in, m);
    r.count(s.ok);
    tts.push_back(s.ok ? s.tts_s : kFailed);
  }
}

/// xsim layer: counted quantities from a Real-mode run (actual pivots), and
/// the three model times from a Trace-mode run replayed on the Timeline.
void xsim_layers(const Workload& w, const xsim::Machine& real, Report& r) {
  const xsim::MachineSpec spec = factor_spec(w.n);
  double messages = 0.0;
  double flops = 0.0;
  for (int rank = 0; rank < real.ranks(); ++rank) {
    const xsim::RankCounters& c = real.counters(rank);
    messages = std::max(messages, static_cast<double>(c.messages_sent));
    flops = std::max(flops, c.flops);
  }
  const auto n = static_cast<double>(w.n);
  const auto p = static_cast<double>(spec.num_ranks);
  const double bound = w.kind == Kind::kLu
                           ? models::lu_lower_bound(n, p, spec.memory_words)
                           : models::cholesky_lower_bound(n, p, spec.memory_words);
  r.layers["xsim.comm_words_per_rank"] = real.max_comm_volume();
  r.layers["xsim.messages_per_rank.max"] = messages;
  r.layers["xsim.flops_per_rank.max"] = flops;
  r.layers["xsim.lower_bound_ratio"] = real.max_comm_volume() / bound;

  xsim::Machine m(spec, xsim::ExecMode::Trace);
  sched::EventLog log;
  {
    sched::ScopedRecord rec(m, log);
    const grid::Grid3D g(kPx, kPy, kPz);
    if (w.kind == Kind::kLu) {
      factor::conflux_lu_trace(m, g, w.n);
    } else {
      factor::confchox_trace(m, g, w.n);
    }
  }
  r.layers["xsim.model_time_s"] = sched::Timeline(log, spec).modeled_time();
  r.layers["xsim.model_bsp_s"] = m.elapsed_time();
  r.layers["xsim.model_overlap_s"] = m.modeled_time_overlap();
}

void zero_serve_layers(Report& r) {
  for (const char* name :
       {"serve.latency_ms.p99", "serve.queue_ms.p50", "serve.queue_ms.p99",
        "serve.factor_ms.p50", "serve.solve_ms.p50", "serve.cache.hit_ratio",
        "serve.cache.lookups", "serve.cache.evictions",
        "serve.fingerprint_s.per_request", "serve.queue_high_water",
        "serve.rejected", "serve.max_rps", "bench.generator_lag_ms.p99",
        "bench.generator_lag_ms.max"}) {
    r.layers[name] = 0.0;
  }
}

bool traced_factor(const Workload& w, std::uint64_t seed, double budget,
                   const std::string& trace_file, Report& r) {
  const FactorInputs in = factor_inputs(w, seed);
  const xsim::MachineSpec spec = factor_spec(w.n);
  FactorSample cold;
  {
    xsim::Machine m(spec, xsim::ExecMode::Real);
    cold = factor_sample(w, in, m);
    r.count(cold.ok);
    xsim_layers(w, m, r);
  }
  blas_probes(r);

  // Interleaved (untraced, traced) pairs: the two legs see the same drift,
  // so their ratio is the tracing overhead.
  std::vector<double>& untraced = r.samples["untraced_tts_s"];
  std::vector<double>& traced = r.samples["traced_tts_s"];
  std::vector<double> untraced_factor;
  TraceWindows tw;
  metrics::reset();
  const metrics::Snapshot before = metrics::snapshot();
  const auto t0 = Clock::now();
  while (static_cast<int>(traced.size()) < kMinSamples || seconds_since(t0) < budget) {
    {
      xsim::Machine m(spec, xsim::ExecMode::Real);
      const FactorSample s = factor_sample(w, in, m);
      r.count(s.ok);
      untraced.push_back(s.ok ? s.tts_s : kFailed);
      untraced_factor.push_back(s.factor_s);
    }
    tw.run([&] {
      xsim::Machine m(spec, xsim::ExecMode::Real);
      const FactorSample s = factor_sample(w, in, m);
      r.count(s.ok);
      traced.push_back(s.ok ? s.tts_s : kFailed);
    });
  }
  const metrics::Snapshot after = metrics::snapshot();
  const auto samples = static_cast<double>(traced.size());

  add_shared_layers(tw, before, after, samples, r);
  r.layers["factor.gflops"] = factor_flops(w) / quantile(untraced_factor, 0.5) / 1e9;
  r.layers["factor.gemm_fraction"] =
      r.layers["factor.gflops"] / r.layers["blas.gemm.gflops.tN"];
  r.layers["factor.unattributed_s"] = tw.self("bench.factor") / samples;
  r.layers["factor.solve_s"] = tw.self("bench.solve") / samples;
  r.layers["factor.workspace_words"] = cold.workspace_words;
  r.layers["setup.cold_excess_s"] = cold.tts_s - quantile(untraced, 0.5);
  const obs::DataMovementAudit audit = obs::audit_data_movement(
      w.kind == Kind::kLu ? obs::Kernel::kLu : obs::Kernel::kCholesky, before,
      after, static_cast<double>(w.n), static_cast<double>(spec.num_ranks),
      spec.memory_words);
  r.layers["dm.measured_ratio"] = audit.measured_ratio / samples;
  zero_serve_layers(r);
  return write_trace(trace_file, tw);
}

// ---------------------------------------------------------------------------
// serve-zipf.

struct Problem {
  MatrixD a;
  MatrixD b;
};

/// Orders cycle through 128/256/512 and kinds alternate K-FAC / DFT in runs
/// of three, so each of the six (order, kind) pairs gets 8 problems.
std::vector<Problem> serve_problems(std::uint64_t seed) {
  std::vector<Problem> problems;
  problems.reserve(kServeProblems);
  for (int i = 0; i < kServeProblems; ++i) {
    const index_t n = kServeOrders[i % 3];
    const std::uint64_t s = mix_seed(seed, static_cast<std::uint64_t>(i));
    problems.push_back({(i / 3) % 2 == 0 ? kfac_kronecker_factor(n, s)
                                         : dft_overlap_matrix(n, 0.8, s),
                        random_matrix(n, kServeRhs, mix_seed(s, 1))});
  }
  return problems;
}

/// Request generator: Zipf(1) popularity with problem i at rank i, so the
/// orders of the hot set do not depend on the seed (only the matrix values
/// and the draws do); 75% Cholesky / 25% LU, 25% mixed precision, uniform
/// priority.
class RequestGenerator {
 public:
  explicit RequestGenerator(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < kServeProblems; ++i) {
      const double weight = 1.0 / static_cast<double>(i + 1);
      cdf_.push_back((cdf_.empty() ? 0.0 : cdf_.back()) + weight);
    }
  }

  struct Request {
    int problem = 0;
    serve::Method method = serve::Method::kCholesky;
    serve::Precision precision = serve::Precision::kFp64;
    serve::Priority priority = serve::Priority::kNormal;
  };

  std::vector<Request> take(std::size_t count) {
    std::vector<Request> out(count);
    for (Request& q : out) {
      const double u = rng_.uniform() * cdf_.back();
      const auto rank = static_cast<std::size_t>(
          std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      q.problem = static_cast<int>(std::min<std::size_t>(rank, kServeProblems - 1));
      q.method = rng_.uniform_int(4) == 0 ? serve::Method::kLu
                                          : serve::Method::kCholesky;
      q.precision = rng_.uniform_int(4) == 0 ? serve::Precision::kMixed
                                             : serve::Precision::kFp64;
      q.priority = static_cast<serve::Priority>(rng_.uniform_int(3));
    }
    return out;
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

serve::SolveRequest to_request(const RequestGenerator::Request& q,
                               const std::vector<Problem>& problems,
                               std::uint64_t tenant) {
  serve::SolveRequest req;
  req.method = q.method;
  req.precision = q.precision;
  req.priority = q.priority;
  req.a = problems[static_cast<std::size_t>(q.problem)].a.view();
  req.b = problems[static_cast<std::size_t>(q.problem)].b.view();
  req.tenant = tenant;
  return req;
}

serve::ServiceOptions service_options() {
  serve::ServiceOptions opt;  // default executor threads and queue depth
  opt.cache_words = kServeCacheWords;
  return opt;
}

/// Outcome of one open-loop stream. Latency runs from each request's due
/// time; refused and failed requests count as +inf.
struct Stream {
  std::vector<double> latency_s;
  std::vector<double> lag_s;
  std::vector<serve::SolveResponse> responses;  // ok responses only
  long long rejected = 0;
  long long failed = 0;  // failed status or inaccurate solution

  bool meets_capacity_limit() const {
    return rejected == 0 && failed == 0 &&
           quantile(latency_s, 0.99) <= kCapacityP99LimitS;
  }
};

Stream open_loop(serve::SolveService& svc, const std::vector<Problem>& problems,
                 const std::vector<RequestGenerator::Request>& plan, double rate) {
  Stream st;
  std::vector<serve::SolveService::Ticket> tickets;
  tickets.reserve(plan.size());
  st.lag_s.reserve(plan.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(i) / rate));
    std::this_thread::sleep_until(due);
    st.lag_s.push_back(
        std::chrono::duration<double>(Clock::now() - due).count());
    prof::ScopedSpan span("bench.submit");
    tickets.push_back(svc.submit(to_request(plan[i], problems, i)));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    serve::SolveResponse resp = svc.wait(tickets[i]);
    if (resp.status.code() == StatusCode::kAdmissionRejected) {
      ++st.rejected;
      st.latency_s.push_back(kFailed);
    } else if (!resp.ok()) {
      ++st.failed;
      st.latency_s.push_back(kFailed);
    } else {
      st.latency_s.push_back(st.lag_s[i] + resp.total_s);
      st.responses.push_back(std::move(resp));
    }
  }
  // Check the answers after the stream, so checking never competes with it.
  for (const serve::SolveResponse& resp : st.responses) {
    const Problem& p = problems[static_cast<std::size_t>(plan[resp.tenant].problem)];
    if (!accurate(p.a.view(), resp.x.view(), p.b.view())) {
      ++st.failed;
      st.latency_s[resp.tenant] = kFailed;
    }
  }
  return st;
}

/// Set-up shared by both serve roles: problems, the service, and a
/// closed-loop warm fill of the cache drawn from the same popularity.
struct ServeSetup {
  std::vector<Problem> problems;
  RequestGenerator gen;
  std::optional<serve::SolveService> svc;

  explicit ServeSetup(std::uint64_t seed)
      : problems(serve_problems(seed)), gen(mix_seed(seed, kServeProblems)) {}

  /// Starts the service and fills the cache. Returns the cold excess: the
  /// service's construction plus its first request (a miss), minus the
  /// median first request to other problems of the same order and kind.
  double start_and_warm(Report& r) {
    const auto solve = [&](const RequestGenerator::Request& q) {
      const auto t0 = Clock::now();
      const serve::SolveResponse resp = svc->solve(to_request(q, problems, 0));
      const double t = seconds_since(t0);
      const Problem& p = problems[static_cast<std::size_t>(q.problem)];
      const bool ok = resp.ok() && accurate(p.a.view(), resp.x.view(), p.b.view());
      r.count(ok);
      return ok ? t : kFailed;
    };
    const auto t0 = Clock::now();
    svc.emplace(service_options());
    const double cold_s = seconds_since(t0) + solve({});
    std::vector<double> warm_s;
    for (int i = kServeProbeStride; i < kServeProblems; i += kServeProbeStride) {
      warm_s.push_back(solve({.problem = i}));
    }
    for (const auto& q : gen.take(kServeWarmRequests)) solve(q);
    return cold_s - quantile(warm_s, 0.5);
  }

  std::vector<RequestGenerator::Request> plan(double seconds, double rate) {
    return gen.take(static_cast<std::size_t>(std::ceil(seconds * rate)));
  }
};

void count_stream(const Stream& st, Report& r) {
  r.attempted += static_cast<long long>(st.latency_s.size());
  r.failed += st.rejected + st.failed;
}

void measure_serve(std::uint64_t seed, double budget, Report& r) {
  const auto g0 = Clock::now();
  ServeSetup s(seed);
  const double generate_s = seconds_since(g0);
  s.start_and_warm(r);
  r.setup_s = seconds_since(g_process_start) - generate_s;
  const auto plan = s.plan(budget, kServeRate);
  const Stream st = open_loop(*s.svc, s.problems, plan, kServeRate);
  count_stream(st, r);
  r.samples["tts_s"] = st.latency_s;
}

void add_percentile_ms(Report& r, const std::string& name,
                       const std::vector<double>& values_s, double q) {
  r.layers[name] = 1e3 * quantile(values_s, q);
}

bool traced_serve(std::uint64_t seed, double budget, const std::string& trace_file,
                  Report& r) {
  ServeSetup s(seed);
  r.layers["setup.cold_excess_s"] = s.start_and_warm(r);
  serve::SolveService& svc = *s.svc;
  blas_probes(r);

  // Half the budget: alternating untraced / traced chunks of the stream.
  constexpr int kChunks = 4;
  const double chunk_s = budget / (4.0 * kChunks);
  std::vector<double>& untraced = r.samples["untraced_tts_s"];
  std::vector<double>& traced = r.samples["traced_tts_s"];
  std::vector<double> lag;
  std::vector<double> queue;
  std::vector<double> factor_miss;
  std::vector<double> solve;
  double traced_requests = 0.0;
  TraceWindows tw;
  metrics::reset();
  const metrics::Snapshot before = metrics::snapshot();
  const serve::SolveService::Stats stats0 = svc.stats();
  const auto collect = [&](const Stream& st, std::vector<double>& tts) {
    count_stream(st, r);
    tts.insert(tts.end(), st.latency_s.begin(), st.latency_s.end());
    lag.insert(lag.end(), st.lag_s.begin(), st.lag_s.end());
    for (const serve::SolveResponse& resp : st.responses) {
      queue.push_back(resp.queue_s);
      solve.push_back(resp.solve_s);
      if (!resp.cache_hit) factor_miss.push_back(resp.factor_s);
    }
  };
  for (int c = 0; c < kChunks; ++c) {
    const auto plain = s.plan(chunk_s, kServeRate);
    collect(open_loop(svc, s.problems, plain, kServeRate), untraced);
    const auto plan = s.plan(chunk_s, kServeRate);
    tw.run([&] { collect(open_loop(svc, s.problems, plan, kServeRate), traced); });
    traced_requests += static_cast<double>(plan.size());
  }
  const metrics::Snapshot after = metrics::snapshot();
  const serve::SolveService::Stats stats1 = svc.stats();

  add_shared_layers(tw, before, after, traced_requests, r);
  add_percentile_ms(r, "serve.latency_ms.p99", untraced, 0.99);
  add_percentile_ms(r, "serve.queue_ms.p50", queue, 0.5);
  add_percentile_ms(r, "serve.queue_ms.p99", queue, 0.99);
  add_percentile_ms(r, "serve.factor_ms.p50", factor_miss, 0.5);
  add_percentile_ms(r, "serve.solve_ms.p50", solve, 0.5);
  add_percentile_ms(r, "bench.generator_lag_ms.p99", lag, 0.99);
  r.layers["bench.generator_lag_ms.max"] =
      1e3 * (lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()));
  const double hits = static_cast<double>(stats1.cache.hits - stats0.cache.hits);
  const double lookups =
      hits + static_cast<double>(stats1.cache.misses - stats0.cache.misses);
  r.layers["serve.cache.lookups"] = lookups;
  r.layers["serve.cache.hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
  r.layers["serve.cache.evictions"] =
      static_cast<double>(stats1.cache.evictions - stats0.cache.evictions);
  r.layers["serve.fingerprint_s.per_request"] =
      (after.value("serve.fingerprint.seconds") -
       before.value("serve.fingerprint.seconds")) /
      traced_requests;
  r.layers["serve.queue_high_water"] = static_cast<double>(stats1.queue_high_water);
  r.layers["serve.rejected"] =
      static_cast<double>(stats1.admission_rejected - stats0.admission_rejected);
  r.layers["factor.unattributed_s"] = tw.self("serve.factor") / traced_requests;
  r.layers["factor.solve_s"] = tw.self("serve.solve") / traced_requests;
  for (const char* name :
       {"factor.gflops", "factor.gemm_fraction", "factor.workspace_words",
        "dm.measured_ratio", "xsim.comm_words_per_rank",
        "xsim.messages_per_rank.max", "xsim.flops_per_rank.max",
        "xsim.lower_bound_ratio", "xsim.model_time_s", "xsim.model_bsp_s",
        "xsim.model_overlap_s"}) {
    r.layers[name] = 0.0;  // single-rank service: no simulated machine
  }

  // The other half: capacity search over the rate ladder by bisection. Refusals
  // here are the expected overload signal, so they fail the probe, not the run.
  const double probe_s = std::max(1.0, budget / 12.0);
  int lo = -1;
  int hi = kCapacityMaxStep + 1;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = 100.0 * std::pow(1.1, mid);
    const Stream st = open_loop(svc, s.problems, s.plan(probe_s, rate), rate);
    r.attempted += static_cast<long long>(st.latency_s.size()) - st.rejected;
    r.failed += st.failed;
    (st.meets_capacity_limit() ? lo : hi) = mid;
  }
  r.layers["serve.max_rps"] = lo >= 0 ? 100.0 * std::pow(1.1, lo) : 0.0;
  return write_trace(trace_file, tw);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    const std::string role = cli.get_string("role", "");
    const std::string name = cli.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const auto index = static_cast<std::uint64_t>(cli.get_int("index", 0));
    const double budget = cli.get_double("budget", 1.0);
    const std::string trace_file = cli.get_string("trace-file", "");
    cli.check_unused();

    const Workload* w = nullptr;
    for (const Workload& cand : kWorkloads) {
      if (name == cand.name) w = &cand;
    }
    if (w == nullptr || (role != "measure" && role != "traced") ||
        !(budget > 0.0)) {
      std::fprintf(stderr,
                   "usage: conflux_bench --role=measure|traced --workload=NAME "
                   "--seed=N --index=K --budget=SECONDS [--trace-file=PATH]\n");
      return 2;
    }
    const std::uint64_t input_seed = mix_seed(seed, index);
    Report r;
    bool ok = true;
    if (w->kind == Kind::kServe) {
      if (role == "measure") {
        measure_serve(input_seed, budget, r);
      } else {
        ok = traced_serve(input_seed, budget, trace_file, r);
      }
    } else if (role == "measure") {
      measure_factor(*w, input_seed, budget, r);
    } else {
      ok = traced_factor(*w, input_seed, budget, trace_file, r);
    }
    print_report(r, *w, role);
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "conflux_bench: %s\n", e.what());
    return 1;
  }
}
