#include "factor/step_loop.hpp"

namespace conflux::factor {

MachineLease::MachineLease(xsim::Machine& m, double words) : m_(m), words_(words) {
  for (int r = 0; r < m_.ranks(); ++r) m_.alloc(r, words_);
}

MachineLease::~MachineLease() {
  for (int r = 0; r < m_.ranks(); ++r) m_.release(r, words_);
}

void snapshot_invalid(const std::string& what) {
  throw status_error(Status(StatusCode::kCheckpointInvalid, what));
}

void put_health(recover::SnapshotWriter& w, const FactorHealth& h) {
  w.put_i64(static_cast<std::int64_t>(h.code));
  w.put_i64(h.first_breakdown_step);
  w.put_i64(h.singular_pivots);
  w.put_i64(h.near_singular_pivots);
  w.put_f64(h.growth_factor);
  w.put_f64(h.min_pivot);
}

FactorHealth get_health(recover::SnapshotReader& r,
                        std::initializer_list<StatusCode> accepted) {
  FactorHealth h;
  h.code = static_cast<StatusCode>(r.get_i64());
  if (h.code != StatusCode::kOk &&
      std::find(accepted.begin(), accepted.end(), h.code) == accepted.end()) {
    snapshot_invalid("snapshot health carries a code no factorization records");
  }
  h.first_breakdown_step = r.get_i64();
  h.singular_pivots = r.get_i64();
  h.near_singular_pivots = r.get_i64();
  h.growth_factor = r.get_f64();
  h.min_pivot = r.get_f64();
  return h;
}

StepLoop::StepLoop(xsim::Machine& m, const FactorOptions& opt, bool real,
                   double lease_words)
    : m_(m),
      lease_(m, lease_words),
      real_(real),
      ropt_(recover::options()),
      abft_(real && ropt_.abft),
      rec_(m, opt.record_step_costs) {}

}  // namespace conflux::factor
