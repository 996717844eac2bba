// Local-kernel throughput microbenchmarks for the level-3 BLAS substrate.
//
// Self-timed (no external benchmark dependency) so the numbers land in a
// machine-readable JSON file: each kernel x shape row records GF/s and the
// best wall time, written to --out=BENCH_blas.json for later PRs to track
// the perf trajectory. The seed repository's original gemm kernel (coarse
// cache blocking, per-element zero-check branch, no packing) is embedded
// here verbatim as `seed` so the speedup of the packed register-tiled
// rebuild stays measurable forever.
//
// Usage:
//   micro_blas_kernels [--out=BENCH_blas.json] [--threads=1] [--large]
//                      [--sweep] [--min-time=0.3]
//                      [--autotune] [--budget=60] [--require-tuning-source=SRC]
//   --threads   team width for every kernel (default 1; 0 = the pool's
//               default: CONFLUX_POOL_THREADS, else the CPUs available)
//   --large     adds n = 2048 shapes
//   --sweep     additionally sweeps the (mc, kc, nc) cache-block tuning for
//               gemm at the largest shape and reports the best combination
//   --autotune  run the install-time autotuner (src/blas/autotune.hpp) for
//               the active ISA and persist the winners to the tuning file
//               (XBLAS_TUNING_FILE or ~/.cache/conflux/tuning.json), then
//               exit. --budget caps its wall-clock seconds.
//   --require-tuning-source=default|file|env
//               exit nonzero unless this process's Tuning::detect() resolved
//               from the given layer — CI uses it to prove a persisted
//               tuning file round-trips into a fresh process.
//
// Every row records the measured ISA, the tuning source, and git describe;
// per-ISA gemm rows (`gemm_isa_*`) cover each kernel the host can run, and
// the dispatched-vs-portable fp64 gate fails the run (and CI) if runtime
// dispatch ever picks a slower kernel than the portable baseline.
#include <algorithm>
#include <cstdio>
#include <cmath>
#include <utility>
#include <fstream>
#include <string>
#include <vector>

#include "blas/autotune.hpp"
#include "blas/blas.hpp"
#include "blas/lapack.hpp"
#include "blas/microkernel.hpp"
#include "blas/tuning.hpp"
#include "sched/taskpool.hpp"
#include "support/buildinfo.hpp"
#include "support/json.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "tensor/random_matrix.hpp"

namespace xblas = conflux::xblas;
using conflux::ConstViewD;
using conflux::index_t;
using conflux::MatrixD;
using conflux::ViewD;

namespace {

// ---- seed-kernel baseline (the pre-rebuild gemm, kept for comparison) ----

constexpr index_t kSeedMC = 64;
constexpr index_t kSeedKC = 64;
constexpr index_t kSeedNC = 256;

void seed_kernel_nn(index_t mc, index_t nc, index_t kc, const double* a,
                    index_t lda, const double* b, index_t ldb, double* c,
                    index_t ldc) {
  for (index_t i = 0; i < mc; ++i) {
    for (index_t p = 0; p < kc; ++p) {
      const double aip = a[i * lda + p];
      if (aip == 0.0) continue;
      const double* brow = b + p * ldb;
      double* crow = c + i * ldc;
      for (index_t j = 0; j < nc; ++j) crow[j] += aip * brow[j];
    }
  }
}

void seed_gemm(double alpha, ConstViewD a, ConstViewD b, double beta, ViewD c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = a.cols();
  if (beta == 0.0) {
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < n; ++j) c(i, j) = 0.0;
    }
  } else if (beta != 1.0) {
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < n; ++j) c(i, j) *= beta;
    }
  }
  std::vector<double> ablock(static_cast<std::size_t>(kSeedMC * kSeedKC));
  for (index_t jc = 0; jc < n; jc += kSeedNC) {
    const index_t nc = std::min(kSeedNC, n - jc);
    for (index_t pc = 0; pc < k; pc += kSeedKC) {
      const index_t kc = std::min(kSeedKC, k - pc);
      for (index_t ic = 0; ic < m; ic += kSeedMC) {
        const index_t mc = std::min(kSeedMC, m - ic);
        for (index_t i = 0; i < mc; ++i) {
          const double* src = a.data() + (ic + i) * a.ld() + pc;
          double* dst = ablock.data() + i * kc;
          for (index_t p = 0; p < kc; ++p) dst[p] = alpha * src[p];
        }
        seed_kernel_nn(mc, nc, kc, ablock.data(), kc, b.data() + pc * b.ld() + jc,
                       b.ld(), c.data() + ic * c.ld() + jc, c.ld());
      }
    }
  }
}

// ---- timing harness -------------------------------------------------------

struct Result {
  std::string kernel;
  index_t n;
  double gflops;
  double seconds;  // best single-run wall time
  int reps;
  // Microkernel ISA active while this row was measured (rows under a
  // ScopedIsa force record the forced ISA, not the dispatched one).
  std::string isa = xblas::isa_name(xblas::active_isa());
};

// Thread count the whole run was measured with; recorded per JSON row so
// the cross-PR perf trajectory never mixes thread scaling with kernel
// quality (the embedded seed kernel is always serial).
int g_threads = 1;

// Run fn repeatedly (after one warmup) until min_time total or min 3 reps;
// report the best run. fn performs one run and returns the seconds of the
// timed section only, so kernels that must restore their input each rep
// (trsm/getrf/potrf) keep the O(n^2) copy out of the measurement.
template <typename Fn>
Result time_kernel(const std::string& name, index_t n, double flops, Fn&& fn,
                   double min_time) {
  fn();  // warmup
  double best = 1e300;
  double total = 0.0;
  int reps = 0;
  while (total < min_time || reps < 3) {
    const double s = fn();
    best = std::min(best, s);
    total += s;
    ++reps;
  }
  return Result{name, n, flops / best * 1e-9, best, reps};
}

// Wrap an untimed setup step and a timed kernel run.
template <typename Setup, typename Kernel>
auto timed_run(Setup&& setup, Kernel&& kernel) {
  return [setup, kernel]() {
    setup();
    conflux::Stopwatch sw;
    kernel();
    return sw.seconds();
  };
}

template <typename Kernel>
auto timed_run(Kernel&& kernel) {
  return timed_run([] {}, std::forward<Kernel>(kernel));
}

void print_result(const Result& r) {
  std::printf("%-18s n=%-5lld %8.2f GF/s  (best %.4fs over %d reps, %s)\n",
              r.kernel.c_str(), static_cast<long long>(r.n), r.gflops,
              r.seconds, r.reps, r.isa.c_str());
}

bool write_json(const std::string& path, const std::vector<Result>& results) {
  std::ofstream out(path);
  conflux::json::Writer w(out);
  w.begin_array();
  for (const Result& r : results) {
    w.begin_object();
    w.field("kernel", std::string_view(r.kernel));
    w.field("n", static_cast<long long>(r.n));
    w.field("gflops", r.gflops);
    w.field("best_seconds", r.seconds);
    w.field("reps", r.reps);
    w.field("threads", g_threads);
    w.field("isa", std::string_view(r.isa));
    w.field("tuning_source", xblas::tuning_source());
    w.field("git_describe", conflux::git_describe());
    w.end_object();
  }
  w.end_array();
  out << "\n";
  return out.good();
}

double find_gflops(const std::vector<Result>& results, const std::string& kernel,
                   index_t n) {
  for (const Result& r : results) {
    if (r.kernel == kernel && r.n == n) return r.gflops;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const conflux::Cli cli(argc, argv);
  const std::string out_path = cli.get_string("out", "BENCH_blas.json");
  // Default to width 1 so kernel-quality numbers are comparable across
  // machines. 0 means the pool's default width; the rows record the width
  // actually used, so the speedup-vs-seed line (the seed kernel is always
  // serial) stays honest.
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  const double min_time = cli.get_double("min-time", 0.3);
  const bool large = cli.get_flag("large");
  const bool sweep = cli.get_flag("sweep");
  const bool autotune = cli.get_flag("autotune");
  const double budget = cli.get_double("budget", 60.0);
  const std::string require_source = cli.get_string("require-tuning-source", "");
  cli.check_unused();

  std::printf("isa: %s (dispatched)  tuning_source: %s  build: %s\n",
              xblas::isa_name(xblas::active_isa()), xblas::tuning_source(),
              conflux::git_describe());

  // CI round-trip check: a fresh process must have resolved its tuning from
  // the layer the caller expects (e.g. "file" right after --autotune wrote
  // one). Checked before anything below mutates tuning().
  if (!require_source.empty() && require_source != xblas::tuning_source()) {
    std::fprintf(stderr,
                 "error: tuning source is '%s', required '%s' (tuning file: %s)\n",
                 xblas::tuning_source(), require_source.c_str(),
                 xblas::autotune::default_tuning_path().c_str());
    return 1;
  }

  const xblas::ScopedThreadCap width(threads);
  g_threads = conflux::sched::TaskPool::instance().width();

  if (autotune) {
    xblas::autotune::Options opts;
    opts.budget_seconds = budget;
    std::printf("autotuning isa=%s (budget %.1fs)...\n",
                xblas::isa_name(xblas::active_isa()), budget);
    const xblas::autotune::Report rep = xblas::autotune::run(opts);
    for (const xblas::autotune::Entry& e : rep.tuned) {
      std::printf("  best %-4s mc=%-4lld kc=%-4lld nc=%-5lld db=%-4lld "
                  "lu_nb=%-4lld %8.2f GF/s\n",
                  e.type.c_str(), static_cast<long long>(e.mc),
                  static_cast<long long>(e.kc), static_cast<long long>(e.nc),
                  static_cast<long long>(e.db), static_cast<long long>(e.lu_nb),
                  e.gflops);
    }
    std::printf("autotune timed %d candidates, skipped %d, in %.1fs\n",
                rep.candidates_timed, rep.candidates_skipped, rep.seconds);
    const std::string path = xblas::autotune::default_tuning_path();
    if (path.empty()) {
      std::printf("tuning persistence disabled (XBLAS_TUNING_FILE empty and "
                  "no cache dir)\n");
      return rep.tuned.empty() ? 1 : 0;
    }
    if (!xblas::autotune::save_report(path, rep)) {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu entries tuned)\n", path.c_str(),
                rep.tuned.size());
    return 0;
  }
  std::vector<index_t> shapes = {256, 512, 1024};
  if (large) shapes.push_back(2048);
  const index_t nmax = shapes.back();

  std::vector<Result> results;
  for (const index_t n : shapes) {
    const MatrixD a = conflux::random_matrix(n, n, 1);
    const MatrixD b = conflux::random_matrix(n, n, 2);
    MatrixD c(n, n, 0.0);
    const double gemm_fl = xblas::gemm_flops(n, n, n);

    results.push_back(time_kernel("gemm_seed", n, gemm_fl, timed_run([&] {
      seed_gemm(1.0, a.view(), b.view(), 0.0, c.view());
    }), min_time));
    print_result(results.back());

    results.push_back(time_kernel("gemm", n, gemm_fl, timed_run([&] {
      xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0, a.view(),
                  b.view(), 0.0, c.view());
    }), min_time));
    print_result(results.back());

    // syrk touches only the triangle: half the gemm flops.
    results.push_back(time_kernel("syrk", n, gemm_fl / 2.0, timed_run([&] {
      xblas::syrk(xblas::UpLo::Lower, xblas::Trans::None, 1.0, a.view(), 0.0,
                  c.view());
    }), min_time));
    print_result(results.back());

    results.push_back(time_kernel("gemmt", n, gemm_fl / 2.0, timed_run([&] {
      xblas::gemmt(xblas::UpLo::Lower, xblas::Trans::None, xblas::Trans::None,
                   1.0, a.view(), b.view(), 0.0, c.view());
    }), min_time));
    print_result(results.back());

    MatrixD t = conflux::random_matrix(n, n, 3);
    for (index_t i = 0; i < n; ++i) t(i, i) += 4.0;
    MatrixD x(n, n, 0.0);
    results.push_back(time_kernel(
        "trsm", n, xblas::trsm_flops(n, n, xblas::Side::Left),
        timed_run([&] { conflux::copy<double>(b.view(), x.view()); },
                  [&] {
                    xblas::trsm(xblas::Side::Left, xblas::UpLo::Lower,
                                xblas::Trans::None, xblas::Diag::NonUnit, 1.0,
                                t.view(), x.view());
                  }),
        min_time));
    print_result(results.back());

    // fp32 rows: same shapes, converted inputs. The fp32/fp64 gemm ratio at
    // the largest shape is the throughput half of the mixed-precision story
    // (the other half, refinement convergence, lives in BENCH_factor.json).
    conflux::MatrixF af(n, n), bf(n, n), cf(n, n, 0.0f);
    conflux::convert<double, float>(a.view(), af.view());
    conflux::convert<double, float>(b.view(), bf.view());
    results.push_back(time_kernel("gemm_f32", n, gemm_fl, timed_run([&] {
      xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0f, af.view(),
                  bf.view(), 0.0f, cf.view());
    }), min_time));
    print_result(results.back());

    conflux::MatrixF tf(n, n), xf(n, n, 0.0f);
    conflux::convert<double, float>(t.view(), tf.view());
    results.push_back(time_kernel(
        "trsm_f32", n, xblas::trsm_flops(n, n, xblas::Side::Left),
        timed_run([&] { conflux::convert<double, float>(b.view(), xf.view()); },
                  [&] {
                    xblas::trsm(xblas::Side::Left, xblas::UpLo::Lower,
                                xblas::Trans::None, xblas::Diag::NonUnit, 1.0f,
                                tf.view(), xf.view());
                  }),
        min_time));
    print_result(results.back());

    MatrixD lu(n, n);
    std::vector<index_t> ipiv;
    results.push_back(time_kernel(
        "getrf", n, 2.0 * n * n * n / 3.0,
        timed_run([&] { conflux::copy<double>(a.view(), lu.view()); },
                  [&] { xblas::getrf(lu.view(), ipiv); }),
        min_time));
    print_result(results.back());

    const MatrixD spd = conflux::random_spd_matrix(n, 6);
    MatrixD ch(n, n);
    results.push_back(time_kernel(
        "potrf", n, 1.0 * n * n * n / 3.0,
        timed_run([&] { conflux::copy<double>(spd.view(), ch.view()); },
                  [&] { xblas::potrf(ch.view()); }),
        min_time));
    print_result(results.back());
  }

  // ---- per-ISA gemm rows + the dispatch regression gate ----
  // Every kernel the host can run gets its own fp64/fp32 row at n = 1024
  // (forced via ScopedIsa, recorded in the row's `isa` field), then runtime
  // dispatch itself is gated: the dispatched fp64 kernel must be at least
  // as fast as the portable baseline. Both legs interleave their reps in
  // one loop so they see the same machine state; a 5% margin covers
  // OS-scheduler noise on shared runners — a real regression (a
  // mis-dispatched kernel) is far larger.
  bool gates_ok = true;
  {
    const index_t ni = 1024;
    const MatrixD a = conflux::random_matrix(ni, ni, 1);
    const MatrixD b = conflux::random_matrix(ni, ni, 2);
    MatrixD c(ni, ni, 0.0);
    conflux::MatrixF af(ni, ni), bf(ni, ni), cf(ni, ni, 0.0f);
    conflux::convert<double, float>(a.view(), af.view());
    conflux::convert<double, float>(b.view(), bf.view());
    const double fl = xblas::gemm_flops(ni, ni, ni);

    std::printf("\nPer-ISA gemm (n=%lld):\n", static_cast<long long>(ni));
    for (int i = 0; i < xblas::kIsaCount; ++i) {
      const xblas::Isa isa = static_cast<xblas::Isa>(i);
      if (!xblas::isa_available(isa)) continue;
      xblas::ScopedIsa force(isa);
      results.push_back(time_kernel(
          std::string("gemm_isa_") + xblas::isa_name(isa), ni, fl, timed_run([&] {
            xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0, a.view(),
                        b.view(), 0.0, c.view());
          }),
          min_time));
      print_result(results.back());
      results.push_back(time_kernel(
          std::string("gemm_f32_isa_") + xblas::isa_name(isa), ni, fl,
          timed_run([&] {
            xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0f, af.view(),
                        bf.view(), 0.0f, cf.view());
          }),
          min_time));
      print_result(results.back());
    }

    const xblas::Isa dispatched = xblas::active_isa();
    const auto one_rep = [&](xblas::Isa isa) {
      xblas::ScopedIsa force(isa);
      conflux::Stopwatch sw;
      xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0, a.view(),
                  b.view(), 0.0, c.view());
      return sw.seconds();
    };
    one_rep(xblas::Isa::Portable);  // warm both code paths
    one_rep(dispatched);
    double best_port = 1e300, best_disp = 1e300, total = 0.0;
    int reps = 0;
    const double gate_time = 2.0 * std::max(min_time, 0.3);
    while (total < gate_time || reps < 6) {
      const double sp = one_rep(xblas::Isa::Portable);
      const double sd = one_rep(dispatched);
      best_port = std::min(best_port, sp);
      best_disp = std::min(best_disp, sd);
      total += sp + sd;
      reps += 2;
    }
    const double gf_port = fl / best_port * 1e-9;
    const double gf_disp = fl / best_disp * 1e-9;
    Result rp{"gemm_gate_portable", ni, gf_port, best_port, reps / 2};
    rp.isa = xblas::isa_name(xblas::Isa::Portable);
    results.push_back(rp);
    Result rd{"gemm_gate_dispatched", ni, gf_disp, best_disp, reps / 2};
    rd.isa = xblas::isa_name(dispatched);
    results.push_back(rd);
    const bool pass =
        std::isfinite(gf_disp) && gf_disp > 0.0 && 1.05 * gf_disp >= gf_port;
    std::printf("gate %-22s %-22s measured %11.4g vs gated %11.4g "
                "(ratio %.3fx) %s\n",
                "dispatch-speed",
                (std::string("gemm n=1024 ") + xblas::isa_name(dispatched))
                    .c_str(),
                gf_disp, gf_port, gf_disp / gf_port, pass ? "PASS" : "FAIL");
    if (!pass) gates_ok = false;
  }

  if (sweep) {
    std::printf("\nCache-block sweep (gemm, n=%lld):\n",
                static_cast<long long>(nmax));
    // The sweep machinery lives in src/blas/autotune.cpp (shared with
    // --autotune); the callback lands every timed point in the JSON rows.
    const xblas::autotune::SweepBest best = xblas::autotune::sweep_gemm<double>(
        nmax, {64, 96, 128, 192, 256}, {128, 256, 384, 512}, {2048, 4096},
        std::min(min_time, 0.15),
        [&](index_t mc, index_t kc, index_t nc, double gf) {
          std::printf("  mc=%-4lld kc=%-4lld nc=%-5lld %8.2f GF/s\n",
                      static_cast<long long>(mc), static_cast<long long>(kc),
                      static_cast<long long>(nc), gf);
          Result r{"gemm_sweep_mc" + std::to_string(mc) + "_kc" +
                       std::to_string(kc) + "_nc" + std::to_string(nc),
                   nmax, gf, 0.0, 0};
          r.seconds = xblas::gemm_flops(nmax, nmax, nmax) / gf * 1e-9;
          results.push_back(r);
        });
    std::printf("  best: mc=%lld kc=%lld nc=%lld at %.2f GF/s\n",
                static_cast<long long>(best.mc), static_cast<long long>(best.kc),
                static_cast<long long>(best.nc), best.gflops);
  }

  const double seed_gf = find_gflops(results, "gemm_seed", nmax);
  const double gemm_gf = find_gflops(results, "gemm", nmax);
  const double syrk_gf = find_gflops(results, "syrk", nmax);
  const double trsm_gf = find_gflops(results, "trsm", nmax);
  const double gemm_f32_gf = find_gflops(results, "gemm_f32", nmax);
  if (seed_gf > 0.0 && gemm_gf > 0.0) {
    std::printf("\ngemm speedup vs seed kernel @ n=%lld: %.2fx\n",
                static_cast<long long>(nmax), gemm_gf / seed_gf);
    std::printf("syrk/gemm throughput ratio: %.2f   trsm/gemm: %.2f\n",
                syrk_gf / gemm_gf, trsm_gf / gemm_gf);
    std::printf("fp32/fp64 gemm throughput ratio: %.2fx\n", gemm_f32_gf / gemm_gf);
  }

  if (!write_json(out_path, results)) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), results.size());
  return gates_ok ? 0 : 1;
}
