// Autotuner implementation: gemm block sweeps through the active
// microkernel, db/lu_nb sweeps through trsm/getrf, and a small persisted
// JSON store keyed by (isa, scalar type). See autotune.hpp for the model.
#include "blas/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "blas/blas.hpp"
#include "blas/lapack.hpp"
#include "sched/taskpool.hpp"
#include "support/json.hpp"
#include "support/stopwatch.hpp"
#include "tensor/random_matrix.hpp"

namespace conflux::xblas::autotune {

namespace {

// The tuning file is machine-written by save_entries, but it lives in a
// user cache directory, so loading must survive arbitrary corruption:
// json::parse is strict, and every field read below falls back on a
// missing or mistyped member.

using JKind = json::Value::Kind;

index_t jnum_index(const json::Value& obj, std::string_view key, index_t fallback) {
  const json::Value* v = obj.get(key);
  if (v == nullptr || !v->is(JKind::kNumber)) return fallback;
  if (!std::isfinite(v->number) || v->number < 0 || v->number > 1e12) return fallback;
  return static_cast<index_t>(v->number);
}

double jnum(const json::Value& obj, std::string_view key, double fallback) {
  const json::Value* v = obj.get(key);
  if (v == nullptr || !v->is(JKind::kNumber)) return fallback;
  return v->number;
}

// ---- timing ---------------------------------------------------------------

// Best-of timing over >= 2 reps (after one warmup) until min_time total.
// fn runs one repetition and returns the seconds of its timed section, so
// callers keep input-restoring copies out of the measurement.
template <typename Fn>
double best_seconds(Fn&& fn, double min_time) {
  fn();  // warmup
  double best = 1e300;
  double total = 0.0;
  int reps = 0;
  while (total < min_time || reps < 2) {
    const double s = fn();
    best = std::min(best, s);
    total += s;
    ++reps;
  }
  return best;
}

// RAII save/restore of the process-wide tuning around a sweep.
class TuningGuard {
 public:
  TuningGuard() : saved_(tuning()) {}
  ~TuningGuard() { tuning() = saved_; }
  TuningGuard(const TuningGuard&) = delete;
  TuningGuard& operator=(const TuningGuard&) = delete;

 private:
  Tuning saved_;
};

template <typename T>
void set_gemm_blocks(index_t mc, index_t kc, index_t nc) {
  if constexpr (std::is_same_v<T, double>) {
    tuning().mc = mc;
    tuning().kc = kc;
    tuning().nc = nc;
  } else {
    // Effective fp32 blocks: kc_f32 is applied without kc_scale.
    tuning().mc_f32 = mc;
    tuning().kc_f32 = kc;
    tuning().nc_f32 = nc;
  }
}

const char* type_name(bool f32) { return f32 ? "f32" : "f64"; }

}  // namespace

std::string default_tuning_path() {
  if (const char* e = std::getenv("XBLAS_TUNING_FILE")) {
    return std::string(e);  // may be "" = persistence disabled
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg) {
    return std::string(xdg) + "/conflux/tuning.json";
  }
  if (const char* home = std::getenv("HOME"); home && *home) {
    return std::string(home) + "/.cache/conflux/tuning.json";
  }
  return "";
}

bool load_entries(const std::string& path, std::vector<Entry>* out) {
  out->clear();
  if (path.empty()) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const std::optional<json::Value> root = json::parse(text);
  if (!root || !root->is(JKind::kObject)) return false;
  const json::Value* version = root->get("version");
  if (version == nullptr || !version->is(JKind::kNumber) ||
      static_cast<int>(version->number) != 1) {
    return false;
  }
  const json::Value* entries = root->get("entries");
  if (entries == nullptr || !entries->is(JKind::kArray)) return false;

  for (const json::Value& je : entries->array) {
    if (!je.is(JKind::kObject)) return false;
    const json::Value* isa_v = je.get("isa");
    const json::Value* type_v = je.get("type");
    if (isa_v == nullptr || !isa_v->is(JKind::kString) || type_v == nullptr ||
        !type_v->is(JKind::kString)) {
      return false;
    }
    Entry e;
    if (!parse_isa(isa_v->string, &e.isa)) continue;  // future ISA: skip, keep
    if (type_v->string != "f64" && type_v->string != "f32") continue;
    e.type = type_v->string;
    e.mc = jnum_index(je, "mc", 0);
    e.kc = jnum_index(je, "kc", 0);
    e.nc = jnum_index(je, "nc", 0);
    e.db = jnum_index(je, "db", 0);
    e.lu_nb = jnum_index(je, "lu_nb", 0);
    e.gflops = jnum(je, "gflops", 0.0);
    e.n = jnum_index(je, "n", 0);
    e.threads = static_cast<int>(jnum_index(je, "threads", 1));
    if (e.mc <= 0 || e.kc <= 0 || e.nc <= 0) continue;  // useless entry
    out->push_back(std::move(e));
  }
  return true;
}

const Entry* find_entry(const std::vector<Entry>& entries, Isa isa,
                        std::string_view type) {
  for (const Entry& e : entries) {
    if (e.isa == isa && e.type == type) return &e;
  }
  return nullptr;
}

bool save_entries(const std::string& path, const std::vector<Entry>& entries) {
  if (path.empty()) return false;
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  if (p.has_parent_path()) {
    fs::create_directories(p.parent_path(), ec);  // best effort
  }
  const fs::path tmp = p.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    json::Writer w(out);
    w.begin_object();
    w.field("version", 1);
    w.key("entries");
    w.begin_array();
    for (const Entry& e : entries) {
      w.begin_object();
      w.field("isa", isa_name(e.isa));
      w.field("type", std::string_view(e.type));
      w.field("mc", static_cast<long long>(e.mc));
      w.field("kc", static_cast<long long>(e.kc));
      w.field("nc", static_cast<long long>(e.nc));
      if (e.db > 0) w.field("db", static_cast<long long>(e.db));
      if (e.lu_nb > 0) w.field("lu_nb", static_cast<long long>(e.lu_nb));
      w.field("gflops", e.gflops);
      w.field("n", static_cast<long long>(e.n));
      w.field("threads", e.threads);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << "\n";
    if (!out.good()) return false;
  }
  fs::rename(tmp, p, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

template <typename T>
SweepBest sweep_gemm(
    index_t n, const std::vector<index_t>& mcs, const std::vector<index_t>& kcs,
    const std::vector<index_t>& ncs, double min_time,
    const std::function<void(index_t, index_t, index_t, double)>& cb,
    const std::function<bool()>& keep_going) {
  TuningGuard guard;
  const MatrixD a64 = random_matrix(n, n, 1);
  const MatrixD b64 = random_matrix(n, n, 2);
  Matrix<T> a(n, n), b(n, n), c(n, n, T{});
  convert<double, T>(a64.view(), a.view());
  convert<double, T>(b64.view(), b.view());
  const double flops = gemm_flops(n, n, n);

  SweepBest best;
  for (const index_t mc : mcs) {
    for (const index_t kc : kcs) {
      for (const index_t nc : ncs) {
        if (keep_going && !keep_going()) return best;
        set_gemm_blocks<T>(mc, kc, nc);
        const double secs = best_seconds(
            [&] {
              Stopwatch sw;
              gemm<T>(Trans::None, Trans::None, T{1}, a.view(), b.view(), T{},
                      c.view());
              return sw.seconds();
            },
            min_time);
        const double gf = flops / secs * 1e-9;
        if (cb) cb(mc, kc, nc, gf);
        if (gf > best.gflops) best = SweepBest{mc, kc, nc, gf};
      }
    }
  }
  return best;
}

template SweepBest sweep_gemm<double>(
    index_t, const std::vector<index_t>&, const std::vector<index_t>&,
    const std::vector<index_t>&, double,
    const std::function<void(index_t, index_t, index_t, double)>&,
    const std::function<bool()>&);
template SweepBest sweep_gemm<float>(
    index_t, const std::vector<index_t>&, const std::vector<index_t>&,
    const std::vector<index_t>&, double,
    const std::function<void(index_t, index_t, index_t, double)>&,
    const std::function<bool()>&);

Report run(const Options& opts) {
  Report rep;
  rep.isa = active_isa();
  Stopwatch total;

  // Budget shaping: a CI smoke budget (a few seconds) runs a coarse grid on
  // a small problem; an install-time budget runs the full grid at the
  // configured size. Per-candidate timing splits what remains.
  const bool quick = opts.budget_seconds < 10.0;
  const index_t n = quick ? std::min<index_t>(opts.n, 384) : opts.n;
  const std::vector<index_t> mcs =
      quick ? std::vector<index_t>{64, 128, 256}
            : std::vector<index_t>{64, 96, 128, 192, 256};
  const std::vector<index_t> kcs = quick ? std::vector<index_t>{256, 512}
                                         : std::vector<index_t>{128, 256, 384, 512};
  const std::vector<index_t> ncs = quick ? std::vector<index_t>{2048}
                                         : std::vector<index_t>{2048, 4096};
  const std::vector<index_t> dbs = quick ? std::vector<index_t>{48, 64}
                                         : std::vector<index_t>{32, 48, 64, 96, 128};
  const std::vector<index_t> lu_nbs = quick ? std::vector<index_t>{32, 48}
                                            : std::vector<index_t>{16, 24, 32, 48, 64};

  const std::size_t gemm_cands = mcs.size() * kcs.size() * ncs.size();
  const std::size_t all_cands = gemm_cands * (opts.tune_f32 ? 2 : 1) +
                                (opts.tune_db ? dbs.size() + lu_nbs.size() : 0);
  const double min_time = std::clamp(
      opts.budget_seconds / (static_cast<double>(all_cands) * 4.0), 0.004,
      opts.min_time);
  const auto keep_going = [&] { return total.seconds() < opts.budget_seconds; };

  int expected = 0;
  const auto verbose_cb = [&](const char* type) {
    return [&, type](index_t mc, index_t kc, index_t nc, double gf) {
      ++rep.candidates_timed;
      if (opts.verbose) {
        std::printf("  autotune %-8s %s mc=%-4lld kc=%-4lld nc=%-5lld %8.2f GF/s\n",
                    isa_name(rep.isa), type, static_cast<long long>(mc),
                    static_cast<long long>(kc), static_cast<long long>(nc), gf);
      }
    };
  };

  // fp64 gemm blocks.
  expected += static_cast<int>(gemm_cands);
  const SweepBest f64 =
      sweep_gemm<double>(n, mcs, kcs, ncs, min_time, verbose_cb("f64"), keep_going);

  // fp32 gemm blocks: effective kc candidates at twice the fp64 depth (same
  // packed-panel byte footprint).
  SweepBest f32;
  if (opts.tune_f32) {
    std::vector<index_t> kcs_f32;
    for (const index_t kc : kcs) kcs_f32.push_back(kc * kc_scale<float>());
    expected += static_cast<int>(gemm_cands);
    f32 = sweep_gemm<float>(n, mcs, kcs_f32, ncs, min_time, verbose_cb("f32"),
                            keep_going);
  }

  // db (trsm diagonal block) and lu_nb (getrf panel width), fp64. Both
  // benefit from the gemm winner being in place while they sweep.
  index_t best_db = 0, best_lu_nb = 0;
  if (opts.tune_db && f64.gflops > 0.0) {
    TuningGuard guard;
    if (f64.mc > 0) set_gemm_blocks<double>(f64.mc, f64.kc, f64.nc);
    const MatrixD b = random_matrix(n, n, 2);
    MatrixD t = random_matrix(n, n, 3);
    for (index_t i = 0; i < n; ++i) t(i, i) += 4.0;
    MatrixD x(n, n, 0.0);
    double best_secs = 1e300;
    for (const index_t db : dbs) {
      if (!keep_going()) break;
      tuning().db = db;
      const double secs = best_seconds(
          [&] {
            copy<double>(b.view(), x.view());
            Stopwatch sw;
            trsm(Side::Left, UpLo::Lower, Trans::None, Diag::NonUnit, 1.0,
                 t.view(), x.view());
            return sw.seconds();
          },
          min_time);
      ++rep.candidates_timed;
      ++expected;
      if (opts.verbose) {
        std::printf("  autotune %-8s db=%-4lld %10.4fs\n", isa_name(rep.isa),
                    static_cast<long long>(db), secs);
      }
      if (secs < best_secs) {
        best_secs = secs;
        best_db = db;
      }
    }
    const MatrixD a = random_matrix(n, n, 1);
    MatrixD lu(n, n);
    std::vector<index_t> ipiv;
    best_secs = 1e300;
    for (const index_t nb : lu_nbs) {
      if (!keep_going()) break;
      tuning().lu_nb = nb;
      const double secs = best_seconds(
          [&] {
            copy<double>(a.view(), lu.view());
            Stopwatch sw;
            getrf(lu.view(), ipiv);
            return sw.seconds();
          },
          min_time);
      ++rep.candidates_timed;
      ++expected;
      if (opts.verbose) {
        std::printf("  autotune %-8s lu_nb=%-4lld %10.4fs\n", isa_name(rep.isa),
                    static_cast<long long>(nb), secs);
      }
      if (secs < best_secs) {
        best_secs = secs;
        best_lu_nb = nb;
      }
    }
    // Phases that never started still count as skipped work below.
    expected += static_cast<int>(dbs.size() + lu_nbs.size()) -
                (expected - static_cast<int>(gemm_cands * (opts.tune_f32 ? 2 : 1)));
  }

  rep.candidates_skipped = std::max(0, expected - rep.candidates_timed);
  rep.seconds = total.seconds();

  if (f64.gflops > 0.0) {
    Entry e;
    e.isa = rep.isa;
    e.type = type_name(false);
    e.mc = f64.mc;
    e.kc = f64.kc;
    e.nc = f64.nc;
    e.db = best_db;
    e.lu_nb = best_lu_nb;
    e.gflops = f64.gflops;
    e.n = n;
    e.threads = sched::TaskPool::instance().width();
    rep.tuned.push_back(std::move(e));
  }
  if (f32.gflops > 0.0) {
    Entry e;
    e.isa = rep.isa;
    e.type = type_name(true);
    e.mc = f32.mc;
    e.kc = f32.kc;  // effective fp32 kc
    e.nc = f32.nc;
    e.gflops = f32.gflops;
    e.n = n;
    e.threads = sched::TaskPool::instance().width();
    rep.tuned.push_back(std::move(e));
  }
  return rep;
}

bool save_report(const std::string& path, const Report& report) {
  if (path.empty() || report.tuned.empty()) return false;
  std::vector<Entry> merged;
  load_entries(path, &merged);  // missing/corrupt = start fresh
  // Replace entries this report re-tuned; keep everything else (other ISAs,
  // the other scalar type when only one was tuned).
  std::vector<Entry> kept;
  for (Entry& e : merged) {
    const bool replaced =
        e.isa == report.isa &&
        find_entry(report.tuned, e.isa, e.type) != nullptr;
    if (!replaced) kept.push_back(std::move(e));
  }
  for (const Entry& e : report.tuned) kept.push_back(e);
  return save_entries(path, kept);
}

}  // namespace conflux::xblas::autotune
