// Section 7.4 / Lemma 10 reproduction: measured COnfLUX/COnfCHOX volumes
// against the Section 6 lower bounds — the paper's near-optimality claim
// (leading term 1.5x the LU bound; ~3x the Cholesky bound).
//
// Two tables:
//   - modeled: Trace-mode per-rank communication volume at the paper's
//     scales (N up to 65536, P up to 1024) vs the closed-form bound;
//   - measured: Real-mode execution at a host-feasible size with the
//     metrics registry armed — the dm.* byte counters aggregated by
//     obs::audit_data_movement into measured words/rank vs the same bound.
// The measured ratio counts every workspace touch of the shared-memory
// data path, so it sits a constant factor above the modeled communication
// ratio; the gate asserts that factor stays fixed (the implementation
// moves O(lower bound) data end to end).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "daap/bounds.hpp"
#include "obs/audit.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "tensor/random_matrix.hpp"

namespace bench = conflux::bench;
namespace models = conflux::models;
using conflux::index_t;

namespace {

/// Real-mode audited run at a host-feasible (n, p): returns the measured
/// audit with the Trace model's per-rank volume attached for comparison.
conflux::obs::DataMovementAudit measured_audit(bool lu, index_t n, int p) {
  namespace factor = conflux::factor;
  namespace obs = conflux::obs;
  const double nn = static_cast<double>(n);
  const double mem = models::paper_memory_words(nn, static_cast<double>(p));
  const conflux::grid::Grid3D g = models::best_conflux_grid(n, p, mem);
  factor::FactorOptions opt;
  opt.block_size = factor::default_block_size(n, g);
  const conflux::MatrixD a =
      lu ? conflux::random_matrix(n, n, 1) : conflux::random_spd_matrix(n, 2);
  const double modeled = lu ? models::conflux_lu_volume_exact(n, g, opt.block_size)
                            : models::confchox_volume_exact(n, g, opt.block_size);

  const bool was_enabled = conflux::metrics::enabled();
  conflux::metrics::set_enabled(true);
  const conflux::metrics::Snapshot before = conflux::metrics::snapshot();
  {
    conflux::xsim::Machine m(bench::piz_daint_spec(p, mem),
                             conflux::xsim::ExecMode::Real);
    if (lu) {
      factor::conflux_lu(m, g, a.view(), opt);
    } else {
      factor::confchox(m, g, a.view(), opt);
    }
  }
  const conflux::metrics::Snapshot after = conflux::metrics::snapshot();
  conflux::metrics::set_enabled(was_enabled);
  return obs::audit_data_movement(lu ? obs::Kernel::kLu : obs::Kernel::kCholesky,
                                  before, after, nn, static_cast<double>(p),
                                  mem, modeled);
}

}  // namespace

int main(int argc, char** argv) {
  const conflux::Cli cli(argc, argv);
  cli.check_unused();

  conflux::TextTable table(
      "Near-optimality: modeled volume / Section 6 lower bound");
  table.set_header({"kernel", "N", "P", "modeled", "lower_bound", "ratio"});
  for (index_t n : {index_t{16384}, index_t{65536}}) {
    for (int p : {256, 1024}) {
      if (!bench::input_fits(n, p)) continue;
      const double nn = static_cast<double>(n);
      const double mem = models::paper_memory_words(nn, static_cast<double>(p));
      const double lu = bench::run_lu(bench::Impl::Conflux, n, p).avg_volume_words;
      const double lub = models::lu_lower_bound(nn, p, mem);
      table.add_row({std::string("LU"), static_cast<long long>(n),
                     static_cast<long long>(p), lu, lub, lu / lub});
      const double ch =
          bench::run_cholesky(bench::CholImpl::Confchox, n, p).avg_volume_words;
      const double chb = models::cholesky_lower_bound(nn, p, mem);
      table.add_row({std::string("Cholesky"), static_cast<long long>(n),
                     static_cast<long long>(p), ch, chb, ch / chb});
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper claims: leading-term ratio 1.5x for LU (Lemma 10) and ~3x\n"
               "for Cholesky (Section 7.5). The modeled ratios sit above these and\n"
               "grow with P at fixed N (P=256 -> 1024 above), so the excess is not\n"
               "an O(M) term that shrinks with P. Which terms make it up is open\n"
               "(ROADMAP.md: account for every modeled word against Lemma 10).\n";

  // Measured section: Real execution at a host-feasible size, metrics on.
  conflux::TextTable mtable(
      "Measured data movement (Real mode, dm.* counters) vs the same bound");
  mtable.set_header(
      {"kernel", "N", "P", "measured", "lower_bound", "ratio", "model_ratio"});
  const index_t mn = 2048;
  const int mp = 64;
  bool gate_ok = true;
  for (const bool lu : {true, false}) {
    const conflux::obs::DataMovementAudit audit = measured_audit(lu, mn, mp);
    mtable.add_row({std::string(lu ? "LU" : "Cholesky"),
                    static_cast<long long>(mn), static_cast<long long>(mp),
                    audit.measured_words_per_rank, audit.lower_bound_words,
                    audit.measured_ratio, audit.model_ratio});
    // Gate: the measured (every-touch) ratio stays within a fixed factor
    // of the model's (communication-only) ratio. Observed ~3-6x across
    // kernels and grids; 16x headroom means only an asymptotic regression
    // (say, an unblocked re-read of the trailing matrix) trips it.
    const bool ok = std::isfinite(audit.measured_ratio) &&
                    audit.measured_ratio >= 1.0 &&
                    audit.model_ratio > 0.0 &&
                    audit.measured_ratio <= 16.0 * audit.model_ratio;
    if (!ok) {
      std::fprintf(stderr,
                   "error: measured ratio %.2f out of range vs model ratio "
                   "%.2f for %s\n",
                   audit.measured_ratio, audit.model_ratio,
                   lu ? "LU" : "Cholesky");
      gate_ok = false;
    }
  }
  mtable.print(std::cout);
  std::cout << "\nThe measured column counts every workspace touch of the\n"
               "shared-memory Real path (both sides of each copy, operand\n"
               "re-reads per task), so its ratio sits a constant factor above\n"
               "the modeled communication ratio — gated at 16x of the model.\n";
  return gate_ok ? 0 : 1;
}
