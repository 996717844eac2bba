// Recovery configuration (DESIGN.md "Recovery model"): one env-resolved
// options block shared by the two recovery layers — step-granular
// checkpoint/restart and ABFT checksum verification (the step loop +
// recover/snapshot).
//
// Like support/fault.hpp, configuration comes from the environment (read
// once, at first use) or programmatically (tests and benches; overrides the
// environment until reset()):
//   CONFLUX_CKPT_EVERY    snapshot the factorization state every K outer
//                         steps (0 / unset = checkpointing off; the
//                         recommended production default is
//                         kDefaultCkptEvery)
//   CONFLUX_CKPT_DIR      directory for file-backed snapshots (unset = the
//                         in-memory latest-snapshot registry only; with a
//                         directory, snapshots survive the process and
//                         resume_*() can restart a killed run)
//   CONFLUX_ABFT          1 = maintain a checksum column of the trailing
//                         accumulator every step and sweep-verify it every
//                         abft_every steps (off by default)
//   CONFLUX_ABFT_EVERY    steps between verification sweeps (default
//                         kDefaultAbftEvery; 1 = verify after every step)
#pragma once

#include <cstdint>
#include <string>

namespace conflux::recover {

/// Recommended checkpoint interval when checkpointing is wanted but no
/// K was tuned: frequent enough that a crash loses little work, sparse
/// enough that serialization stays under the bench's 1.05x overhead gate
/// (at K=16 a 32-step run takes one full mid-run snapshot besides the
/// step-0 marker; K=8 spent ~12% of the n=2048 wall on serialization).
inline constexpr std::int64_t kDefaultCkptEvery = 16;

/// Default verification-sweep cadence under ABFT. Checksums are MAINTAINED
/// every step either way; the sweep re-reads the whole live region, so at
/// cadence 1 its memory traffic alone can exceed the bench's 1.10x overhead
/// budget. Corruption surfaces at the next sweep — still well inside the
/// checkpoint interval, so the rollback that follows is identical.
inline constexpr std::int64_t kDefaultAbftEvery = 4;

struct Options {
  std::int64_t ckpt_every = 0;  ///< steps between snapshots; 0 = off
  std::string ckpt_dir;         ///< "" = in-memory registry only
  bool abft = false;            ///< checksum maintenance + periodic sweeps
  std::int64_t abft_every = kDefaultAbftEvery;  ///< steps between sweeps
};

/// The active options (programmatic if installed, else environment).
Options options();

/// Install a programmatic configuration (tests/benches).
void configure(const Options& opt);
/// Drop any programmatic configuration and return to the environment's.
void reset();

/// Thread-local checkpoint suppression (DESIGN.md "Solve service"). The
/// snapshot registry keys on (kind, scalar, n, v, grid) — deliberately, so
/// resume_*() can find an interrupted run's state without the caller
/// naming it — but that key is NOT tenant-aware: two service requests
/// factoring same-shaped matrices would overwrite each other's snapshots,
/// and a service churning through requests would clobber a checkpoint a
/// crashed batch run left behind for resume. Service executor threads
/// therefore suppress checkpoint WRITES for the requests they run (ABFT
/// stays as configured: it is confined to one run).
/// options() reports ckpt_every = 0 / ckpt_dir = "" while a suppression
/// guard is live on the calling thread.
bool checkpoints_suppressed();

class ScopedCheckpointSuppression {
 public:
  ScopedCheckpointSuppression();
  ~ScopedCheckpointSuppression();
  ScopedCheckpointSuppression(const ScopedCheckpointSuppression&) = delete;
  ScopedCheckpointSuppression& operator=(const ScopedCheckpointSuppression&) =
      delete;
};

/// RAII programmatic configuration for tests.
class ScopedOptions {
 public:
  explicit ScopedOptions(const Options& opt) { configure(opt); }
  ~ScopedOptions() { reset(); }
  ScopedOptions(const ScopedOptions&) = delete;
  ScopedOptions& operator=(const ScopedOptions&) = delete;
};

}  // namespace conflux::recover
