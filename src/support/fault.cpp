#include "support/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "support/metrics.hpp"

namespace conflux::fault {

namespace {

/// Injected-fault FIRE counts per site, mirrored into the metrics registry
/// (behind its enabled() gate) so fault observability rides the same
/// snapshot/export path as everything else; fault_injection_test reconciles
/// these against the classified Statuses each run produces.
const metrics::Counter& fired_counter(Site site) {
  static const metrics::Counter panel_nan("fault.fired.panel-nan");
  static const metrics::Counter zero_pivot("fault.fired.zero-pivot");
  static const metrics::Counter task_throw("fault.fired.task-throw");
  static const metrics::Counter worker_stall("fault.fired.worker-stall");
  static const metrics::Counter crash_at_step("fault.fired.crash-at-step");
  static const metrics::Counter bitflip("fault.fired.bitflip");
  switch (site) {
    case Site::kPanelNaN: return panel_nan;
    case Site::kZeroPivot: return zero_pivot;
    case Site::kTaskThrow: return task_throw;
    case Site::kWorkerStall: return worker_stall;
    case Site::kCrashAtStep: return crash_at_step;
    case Site::kBitflip: return bitflip;
  }
  return bitflip;
}

/// splitmix64: the standard 64-bit finalizer-style mixer — full avalanche,
/// so consecutive counter values decorrelate completely.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

unsigned parse_site_mask(const char* s) {
  if (s == nullptr || *s == '\0') return (1u << kSiteCount) - 1;
  unsigned mask = 0;
  std::string list(s);
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string item = list.substr(pos, comma - pos);
    for (int i = 0; i < kSiteCount; ++i) {
      if (item == site_name(static_cast<Site>(i))) mask |= 1u << i;
    }
    pos = comma + 1;
  }
  return mask;
}

Config env_config() {
  Config cfg;
  if (const char* s = std::getenv("CONFLUX_FAULT_SEED"); s != nullptr && *s != '\0') {
    cfg.seed = std::strtoull(s, nullptr, 10);
  }
  if (const char* s = std::getenv("CONFLUX_FAULT_RATE"); s != nullptr && *s != '\0') {
    cfg.rate = std::strtod(s, nullptr);
  }
  cfg.site_mask = parse_site_mask(std::getenv("CONFLUX_FAULT_SITES"));
  if (const char* s = std::getenv("CONFLUX_FAULT_STALL_S"); s != nullptr && *s != '\0') {
    cfg.stall_s = std::strtod(s, nullptr);
  }
  return cfg;
}

/// Shared state. The config itself changes only under the mutex (tests and
/// env load); the hot-path `enabled` flag and the counters are atomics so
/// pool workers can consult them without taking the lock.
struct State {
  std::mutex mu;
  Config cfg;
  bool env_loaded = false;
  bool programmatic = false;
  std::atomic<bool> enabled{false};
  std::atomic<long long> injected{0};
  std::atomic<std::uint64_t> counters[kSiteCount] = {};
};

void load_env_locked(State& s);

State& state() {
  // The environment must be loaded before the first `enabled` fast-path
  // check: should_inject/enabled consult the atomic WITHOUT the mutex, so
  // an env-only process (no programmatic configure) would otherwise never
  // arm.
  static State s;
  static const bool env_init = [] {
    std::lock_guard<std::mutex> lock(s.mu);
    load_env_locked(s);
    return true;
  }();
  (void)env_init;
  return s;
}

void load_env_locked(State& s) {
  if (!s.env_loaded) {
    s.cfg = env_config();
    s.env_loaded = true;
    s.enabled.store(s.cfg.rate > 0.0 && s.cfg.site_mask != 0,
                    std::memory_order_relaxed);
  }
}

void reset_counters(State& s) {
  s.injected.store(0, std::memory_order_relaxed);
  for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
}

}  // namespace

const char* site_name(Site site) {
  switch (site) {
    case Site::kPanelNaN: return "panel-nan";
    case Site::kZeroPivot: return "zero-pivot";
    case Site::kTaskThrow: return "task-throw";
    case Site::kWorkerStall: return "worker-stall";
    case Site::kCrashAtStep: return "crash-at-step";
    case Site::kBitflip: return "bitflip";
  }
  return "unknown";
}

void configure(const Config& cfg) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.cfg = cfg;
  s.env_loaded = true;  // a later reset() re-reads the environment
  s.programmatic = true;
  reset_counters(s);
  s.enabled.store(cfg.rate > 0.0 && cfg.site_mask != 0, std::memory_order_relaxed);
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.programmatic = false;
  s.env_loaded = false;
  load_env_locked(s);
  reset_counters(s);
}

bool enabled() { return state().enabled.load(std::memory_order_relaxed); }

Config config() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  load_env_locked(s);
  return s.cfg;
}

bool should_inject(Site site) {
  State& s = state();
  if (!s.enabled.load(std::memory_order_relaxed)) return false;
  Config cfg;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    load_env_locked(s);
    cfg = s.cfg;
  }
  if (cfg.rate <= 0.0 || !cfg.site_armed(site)) return false;
  const std::uint64_t count =
      s.counters[static_cast<int>(site)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = splitmix64(
      cfg.seed * 0x100000001b3ULL + static_cast<std::uint64_t>(site) * 0x9e37ULL +
      count);
  // Top 53 bits as a uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= cfg.rate) return false;
  s.injected.fetch_add(1, std::memory_order_relaxed);
  fired_counter(site).add(1.0);
  return true;
}

long long injected_count() {
  return state().injected.load(std::memory_order_relaxed);
}

}  // namespace conflux::fault
