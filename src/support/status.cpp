#include "support/status.hpp"

namespace conflux {

std::string_view status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid-argument";
    case StatusCode::kSingularPivot: return "singular-pivot";
    case StatusCode::kNearSingularPivot: return "near-singular-pivot";
    case StatusCode::kNonFinite: return "non-finite";
    case StatusCode::kGrowthOverflow: return "growth-overflow";
    case StatusCode::kNotPositiveDefinite: return "not-positive-definite";
    case StatusCode::kRefineStagnated: return "refine-stagnated";
    case StatusCode::kRefineDiverged: return "refine-diverged";
    case StatusCode::kTaskFailed: return "task-failed";
    case StatusCode::kPoolWedged: return "pool-wedged";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kCheckpointInvalid: return "checkpoint-invalid";
    case StatusCode::kDataCorruption: return "data-corruption";
    case StatusCode::kCrashSimulated: return "crash-simulated";
    case StatusCode::kAdmissionRejected: return "admission-rejected";
  }
  return "unknown";
}

std::string Status::to_string() const {
  if (ok()) return "ok";
  std::string out(status_code_name(code_));
  if (step_ >= 0) {
    out += " at step ";
    out += std::to_string(step_);
  }
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace conflux
