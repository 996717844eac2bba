// Ablation: the block size v (Section 7.2's tunable). Small v shrinks the
// O(N v) A00-broadcast term and the per-step latency chain granularity but
// raises the step count; large v amortizes steps but bloats the broadcast
// and tournament payloads. The paper ties v to the replication depth
// (v = a * c) and tunes a to the hardware; this sweep shows the simulator's
// volume/time trade-off and where the default lands.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "blas/blas.hpp"
#include "blas/tuning.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "tensor/random_matrix.hpp"

namespace bench = conflux::bench;
namespace factor = conflux::factor;
namespace xblas = conflux::xblas;
using conflux::index_t;

namespace {

// Companion ablation for the *local* blocking: sweep the xblas cache-block
// sizes (Section "BLAS substrate" of README.md) on a real gemm and report
// GF/s, so the simulator block-size table above and the local-compute
// tuning can be read side by side.
void sweep_local_blas(index_t n) {
  conflux::TextTable table("Ablation: xblas gemm cache blocks (n = " +
                           std::to_string(n) + ", 1 thread)");
  table.set_header({"mc", "kc", "gflops", "is_default"});
  const xblas::Tuning saved = xblas::tuning();
  const xblas::ScopedThreadCap one_thread(1);
  const conflux::MatrixD a = conflux::random_matrix(n, n, 1);
  const conflux::MatrixD b = conflux::random_matrix(n, n, 2);
  conflux::MatrixD c(n, n, 0.0);
  const double flops = xblas::gemm_flops(n, n, n);
  for (const index_t mc : {64, 128, 192}) {
    for (const index_t kc : {128, 256, 512}) {
      xblas::tuning().mc = mc;
      xblas::tuning().kc = kc;
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        conflux::Stopwatch sw;
        xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0, a.view(),
                    b.view(), 0.0, c.view());
        best = std::min(best, sw.seconds());
      }
      table.add_row({static_cast<long long>(mc), static_cast<long long>(kc),
                     flops / best * 1e-9,
                     std::string(mc == saved.mc && kc == saved.kc ? "<- default"
                                                                  : "")});
    }
  }
  xblas::tuning() = saved;
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const conflux::Cli cli(argc, argv);
  const index_t n = cli.get_int("n", 16384);
  const int p = static_cast<int>(cli.get_int("p", 256));
  const index_t blas_n = cli.get_int("blas-n", 768);
  const bool skip_blas = cli.get_flag("no-blas-sweep");
  cli.check_unused();

  const double mem = conflux::models::paper_memory_words(static_cast<double>(n),
                                                         static_cast<double>(p));
  const conflux::grid::Grid3D g = conflux::models::best_conflux_grid(n, p, mem);
  const index_t vdefault = factor::default_block_size(n, g);

  conflux::TextTable table("Ablation: COnfLUX block size v (N = " + std::to_string(n) +
                           ", P = " + std::to_string(p) + ", grid " +
                           std::to_string(g.px()) + "x" + std::to_string(g.py()) +
                           "x" + std::to_string(g.pz()) + ")");
  table.set_header({"v", "steps", "volume_words_per_rank", "modeled_time_s",
                    "is_default"});
  for (index_t v = g.pz(); v <= 1024; v *= 2) {
    if (v % g.pz() != 0 || v > n) continue;
    conflux::xsim::Machine m(bench::piz_daint_spec(p, mem),
                             conflux::xsim::ExecMode::Trace);
    factor::FactorOptions opt;
    opt.block_size = v;
    factor::conflux_lu_trace(m, g, n, opt);
    table.add_row({static_cast<long long>(v),
                   static_cast<long long>((n + v - 1) / v), m.avg_comm_volume(),
                   m.modeled_time_overlap(),
                   std::string(v == vdefault ? "<- default" : "")});
  }
  table.print(std::cout);
  std::cout << "\nDesign-choice check: volume is flat-to-rising in v (the O(Nv)\n"
               "A00 broadcasts); time has a shallow optimum where the per-step\n"
               "latency chain stops dominating — the default sits near it.\n\n";

  if (!skip_blas) sweep_local_blas(blas_n);
  return 0;
}
