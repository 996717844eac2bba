#include "recover/options.hpp"

#include <cstdlib>
#include <mutex>

namespace conflux::recover {

namespace {

Options env_options() {
  Options opt;
  if (const char* s = std::getenv("CONFLUX_CKPT_EVERY"); s != nullptr && *s != '\0') {
    opt.ckpt_every = std::strtoll(s, nullptr, 10);
    if (opt.ckpt_every < 0) opt.ckpt_every = 0;
  }
  if (const char* s = std::getenv("CONFLUX_CKPT_DIR"); s != nullptr && *s != '\0') {
    opt.ckpt_dir = s;
  }
  if (const char* s = std::getenv("CONFLUX_ABFT"); s != nullptr && *s != '\0') {
    opt.abft = (s[0] == '1' || s[0] == 't' || s[0] == 'T' || s[0] == 'y' || s[0] == 'Y');
  }
  if (const char* s = std::getenv("CONFLUX_ABFT_EVERY"); s != nullptr && *s != '\0') {
    opt.abft_every = std::strtoll(s, nullptr, 10);
    if (opt.abft_every < 1) opt.abft_every = 1;
  }
  return opt;
}

struct State {
  std::mutex mu;
  Options opt;
  bool env_loaded = false;
};

State& state() {
  static State s;
  return s;
}

void load_env_locked(State& s) {
  if (!s.env_loaded) {
    s.opt = env_options();
    s.env_loaded = true;
  }
}

}  // namespace

namespace {
// Nesting depth, not a flag: a suppressed executor calling a helper that
// suppresses again must not re-enable checkpoints on inner-guard exit.
thread_local int tls_ckpt_suppressed = 0;
}  // namespace

bool checkpoints_suppressed() { return tls_ckpt_suppressed > 0; }

ScopedCheckpointSuppression::ScopedCheckpointSuppression() {
  ++tls_ckpt_suppressed;
}

ScopedCheckpointSuppression::~ScopedCheckpointSuppression() {
  --tls_ckpt_suppressed;
}

Options options() {
  State& s = state();
  Options opt;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    load_env_locked(s);
    opt = s.opt;
  }
  if (checkpoints_suppressed()) {
    opt.ckpt_every = 0;
    opt.ckpt_dir.clear();
  }
  return opt;
}

void configure(const Options& opt) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.opt = opt;
  s.env_loaded = true;  // a later reset() re-reads the environment
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.env_loaded = false;
  load_env_locked(s);
}

}  // namespace conflux::recover
