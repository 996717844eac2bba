#include "blas/tuning.hpp"

#include <cstdlib>
#include <string>

#include "blas/autotune.hpp"
#include "blas/microkernel.hpp"

namespace conflux::xblas {

namespace {

// Unset, malformed, or non-positive values all fall back to the default
// (a clamped-to-1 block size from a typo'd negative would be a silent
// performance cliff). XBLAS_SMALL_K is the one knob where 0 is meaningful.
// `applied` (when non-null) is set to true only when the variable actually
// overrode the fallback — Tuning::detect() uses it for source attribution.
index_t env_index(const char* name, index_t fallback, index_t minimum = 1,
                  bool* applied = nullptr) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') return fallback;
  if (v < minimum) return fallback;
  if (applied != nullptr) *applied = true;
  return static_cast<index_t>(v);
}

// Last layer that set block sizes in Tuning::detect(). Written before
// tuning()'s static init completes, read by benches afterwards; plain
// storage is fine (detect() runs under the static-init guard).
const char* g_tuning_source = "default";

Tuning apply_env(Tuning t, bool* applied) {
  t.mc = env_index("XBLAS_MC", t.mc, 1, applied);
  t.kc = env_index("XBLAS_KC", t.kc, 1, applied);
  t.nc = env_index("XBLAS_NC", t.nc, 1, applied);
  t.db = env_index("XBLAS_DB", t.db, 1, applied);
  t.lu_nb = env_index("XBLAS_LU_NB", t.lu_nb, 1, applied);
  t.small_k = env_index("XBLAS_SMALL_K", t.small_k, 0);  // 0 disables
  t.sanitize();
  return t;
}

}  // namespace

void Tuning::sanitize() {
  if (mc < kMR) mc = kMR;
  if (kc < 1) kc = 1;
  if (nc < kNR) nc = kNR;
  if (db < 1) db = 1;
  if (lu_nb < 1) lu_nb = 1;
  if (small_gemm_flops < 0.0) small_gemm_flops = 0.0;
  if (small_k < 0) small_k = 0;
  // fp32 overrides: 0 means "derive from fp64", so only clamp garbage up
  // to the unset state — a negative must not become a 1-row block.
  if (mc_f32 < 0) mc_f32 = 0;
  if (kc_f32 < 0) kc_f32 = 0;
  if (nc_f32 < 0) nc_f32 = 0;
  if (mc_f32 > 0 && mc_f32 < kMR) mc_f32 = kMR;
  if (nc_f32 > 0 && nc_f32 < kNR) nc_f32 = kNR;
}

Tuning tuning_from_env() { return apply_env(Tuning{}, nullptr); }

Tuning Tuning::detect() {
  Tuning t;  // layer 1: compiled-in defaults
  const char* source = "default";

  // Layer 2: persisted autotuner entries for the active microkernel ISA.
  const std::string path = autotune::default_tuning_path();
  std::vector<autotune::Entry> entries;
  if (!path.empty() && autotune::load_entries(path, &entries)) {
    const Isa isa = active_isa();
    if (const autotune::Entry* e = autotune::find_entry(entries, isa, "f64")) {
      t.mc = e->mc;
      t.kc = e->kc;
      t.nc = e->nc;
      if (e->db > 0) t.db = e->db;
      if (e->lu_nb > 0) t.lu_nb = e->lu_nb;
      source = "file";
    }
    if (const autotune::Entry* e = autotune::find_entry(entries, isa, "f32")) {
      t.mc_f32 = e->mc;
      t.kc_f32 = e->kc;  // effective fp32 kc, no kc_scale on top
      t.nc_f32 = e->nc;
      source = "file";
    }
  }

  // Layer 3: XBLAS_* environment overrides always win.
  bool env_applied = false;
  t = apply_env(t, &env_applied);
  if (env_applied) source = "env";

  g_tuning_source = source;
  return t;
}

Tuning& tuning() {
  static Tuning t = Tuning::detect();
  return t;
}

const char* tuning_source() {
  tuning();  // make sure detect() has run
  return g_tuning_source;
}

namespace {
thread_local int tls_thread_cap_value = 0;
}  // namespace

int tls_thread_cap() { return tls_thread_cap_value; }
void set_tls_thread_cap(int cap) { tls_thread_cap_value = cap > 0 ? cap : 0; }

}  // namespace conflux::xblas
