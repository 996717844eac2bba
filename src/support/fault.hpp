// Fault-injection harness (DESIGN.md "Failure model and degradation
// ladder"): deterministic, seed-driven corruption of the factorization's
// execution, used by the soak test and the CI fault legs to prove that
// every breakdown ends in a classified Status — never a crash, a hang, or a
// silent wrong answer.
//
// Injection is OFF unless explicitly armed (rate > 0), and every decision
// site first checks the one-branch `enabled()` flag, so the fault-free hot
// path costs a single predictable load. Decisions are a pure function of
// (seed, site, per-site opportunity counter) through splitmix64, so a
// failing seed replays exactly.
//
// Configuration: environment (read once, at first use) or programmatic
// (tests; overrides the environment until reset):
//   CONFLUX_FAULT_SEED     decision seed (default 0)
//   CONFLUX_FAULT_RATE     injection probability per opportunity (default 0)
//   CONFLUX_FAULT_SITES    comma list of sites to arm (default: all):
//                          panel-nan, zero-pivot, task-throw, worker-stall,
//                          crash-at-step, bitflip
//   CONFLUX_FAULT_STALL_S  injected worker-stall duration in seconds
//
// Sites:
//   kPanelNaN    poison one entry of the current panel with a quiet NaN
//                before tournament pivoting reads it
//   kZeroPivot   force an exactly-zero pivot in the factored A00 block
//   kTaskThrow   throw std::runtime_error before an index of an outermost
//                TaskPool::parallel_for runs its body (at any width)
//   kWorkerStall sleep a pool worker for stall_s before it runs an index of
//                an outermost parallel_for (cooperative: the stall aborts,
//                and the body is skipped, when the pool cancels); the
//                master never stalls, since it is the one watching
//   kCrashAtStep abort the factorization at a step boundary exactly as a
//                killed process would (kCrashSimulated status), leaving
//                the last checkpoint behind for the resume_* entry points
//   kBitflip     flip one bit of one scalar in the trailing accumulator
//                after a Schur update — the corruption ABFT must catch
#pragma once

#include <cstdint>

namespace conflux::fault {

enum class Site : int {
  kPanelNaN = 0,
  kZeroPivot = 1,
  kTaskThrow = 2,
  kWorkerStall = 3,
  // 4 belonged to a retired site; the values stay because each seeds the
  // site's injection decisions.
  kCrashAtStep = 5,
  kBitflip = 6,
};
/// One past the highest site value.
inline constexpr int kSiteCount = 7;

/// Stable site name ("panel-nan", ...), the CONFLUX_FAULT_SITES vocabulary.
const char* site_name(Site site);

struct Config {
  std::uint64_t seed = 0;
  double rate = 0.0;  ///< injection probability per opportunity; 0 = off
  /// Bit i arms Site(i); default all armed (rate still gates everything).
  unsigned site_mask = (1u << kSiteCount) - 1;
  double stall_s = 0.25;  ///< kWorkerStall sleep duration

  bool site_armed(Site s) const {
    return (site_mask & (1u << static_cast<int>(s))) != 0;
  }
};

/// Install a programmatic configuration (resets the opportunity counters
/// and the injected-fault tally).
void configure(const Config& cfg);
/// Drop any programmatic configuration and return to the environment's.
void reset();

/// True when some armed site can fire (rate > 0). The one check every
/// injection site performs before doing anything else.
bool enabled();
/// The active configuration (programmatic if installed, else environment).
Config config();

/// Deterministic decision for one opportunity at `site`: advances that
/// site's counter and compares the (seed, site, counter) hash against the
/// rate. Always false when the site is unarmed or the rate is 0.
bool should_inject(Site site);

/// Faults injected (should_inject() returned true) since the last
/// configure()/reset().
long long injected_count();

/// RAII programmatic configuration for tests.
class ScopedConfig {
 public:
  explicit ScopedConfig(const Config& cfg) { configure(cfg); }
  ~ScopedConfig() { reset(); }
  ScopedConfig(const ScopedConfig&) = delete;
  ScopedConfig& operator=(const ScopedConfig&) = delete;
};

}  // namespace conflux::fault
