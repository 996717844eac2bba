#include "blas/tuning.hpp"

#include <cstdlib>

namespace conflux::xblas {

namespace {

// Unset, malformed, or non-positive values all fall back to the default
// (a clamped-to-1 block size from a typo'd negative would be a silent
// performance cliff). XBLAS_SMALL_K is the one knob where 0 is meaningful.
// `applied` is set to true only when the variable actually overrode the
// fallback — tuning_source() reports it.
index_t env_index(const char* name, index_t fallback, index_t minimum,
                  bool* applied) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') return fallback;
  if (v < minimum) return fallback;
  *applied = true;
  return static_cast<index_t>(v);
}

// Source of the last Tuning::detect(). Written before tuning()'s static
// init completes, read by benches afterwards; plain storage is fine
// (detect() runs under the static-init guard).
const char* g_tuning_source = "default";

}  // namespace

void Tuning::sanitize() {
  if (mc < kMR) mc = kMR;
  if (kc < 1) kc = 1;
  if (nc < kNR) nc = kNR;
  if (db < 1) db = 1;
  if (lu_nb < 1) lu_nb = 1;
  if (small_gemm_flops < 0.0) small_gemm_flops = 0.0;
  if (small_k < 0) small_k = 0;
}

Tuning Tuning::detect() {
  Tuning t;
  bool applied = false;
  t.mc = env_index("XBLAS_MC", t.mc, 1, &applied);
  t.kc = env_index("XBLAS_KC", t.kc, 1, &applied);
  t.nc = env_index("XBLAS_NC", t.nc, 1, &applied);
  t.db = env_index("XBLAS_DB", t.db, 1, &applied);
  t.lu_nb = env_index("XBLAS_LU_NB", t.lu_nb, 1, &applied);
  t.small_k = env_index("XBLAS_SMALL_K", t.small_k, 0, &applied);  // 0 disables
  t.sanitize();
  g_tuning_source = applied ? "env" : "default";
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
