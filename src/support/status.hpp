// Typed error model for the public factor/solve APIs (DESIGN.md "Failure
// model and degradation ladder").
//
// The factorization stack has three distinct failure regimes and the type
// system keeps them apart:
//   - caller misuse (bad shapes, impossible grids): contract_error from
//     check.hpp, a logic_error — the program asked for something undefined;
//   - numerical breakdown (singular pivots, NaN/Inf contamination, growth
//     overflow, refinement stagnation): a *classified* Status carried either
//     inside a Result<T> (the try_* entry points) or on a status_error
//     exception (the throwing entry points) — the request was well-formed
//     but the data defeated the algorithm;
//   - execution failure (a pool task threw, the pool wedged): also a
//     Status, raised by the scheduler rather than the numerics.
//
// A Result<T> can hold an error AND a value at the same time — the
// LAPACK info > 0 convention: an exactly-singular LU still produces factors
// with P A = L U and a bijective permutation (the zero pivot sits on U's
// diagonal), and callers that only need the factorization's residual
// properties may use the degraded value while callers that need to divide
// by U's diagonal must not.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "support/check.hpp"

namespace conflux {

enum class StatusCode : int {
  kOk = 0,
  /// Caller misuse surfaced through a non-throwing API (try_* wrappers map
  /// contract_error here).
  kInvalidArgument,
  /// An exactly-zero pivot was selected (the active column was zero in every
  /// candidate row): the matrix is singular at that elimination step.
  kSingularPivot,
  /// A pivot fell below FactorOptions::pivot_tolerance * max|A| (only raised
  /// when a tolerance is explicitly configured; the default is exact-zero).
  kNearSingularPivot,
  /// NaN or Inf appeared in the input, a panel, or the trailing accumulator.
  kNonFinite,
  /// The element growth factor max|U| / max|A| exceeded the configured (or
  /// auto, 1/(8 eps)) limit: the factors exist but carry no accuracy.
  kGrowthOverflow,
  /// A diagonal block failed its Cholesky factorization.
  kNotPositiveDefinite,
  /// Iterative refinement stopped improving before reaching the tolerance
  /// (cond(A) * eps_fp32 too large): fp32 information is exhausted.
  kRefineStagnated,
  /// A refinement correction made the backward error worse.
  kRefineDiverged,
  /// A parallel_for index on the execution pool threw; the message carries
  /// the original exception's text.
  kTaskFailed,
  /// The pool watchdog saw no index finish for a full interval while the
  /// master was blocked: a wedged worker.
  kPoolWedged,
  /// Work was skipped because a prior failure cancelled the step.
  kCancelled,
  /// A checkpoint snapshot failed validation: bad magic, version mismatch,
  /// truncated payload, or checksum mismatch. Never undefined behaviour —
  /// a corrupt snapshot is rejected before any byte is interpreted.
  kCheckpointInvalid,
  /// An ABFT checksum verification over the trailing accumulator failed:
  /// the in-memory data was corrupted after it was last written (e.g. an
  /// injected bitflip). Recoverable by re-executing from the last snapshot.
  kDataCorruption,
  /// The crash-at-step fault site fired: the run aborted mid-factorization
  /// exactly as a killed process would, leaving the last checkpoint behind
  /// for resume_*() to pick up. Only ever raised by the injection harness.
  kCrashSimulated,
  /// A solve-service request was turned away at admission: the bounded
  /// queue for its priority class was full (DESIGN.md "Solve service").
  /// Back-pressure, not failure — the client retries or sheds load.
  kAdmissionRejected,
};

/// Stable lowercase-kebab name for logs and JSON ("singular-pivot", ...).
std::string_view status_code_name(StatusCode code);

/// A classified outcome: a code, a human-readable message, and (when the
/// failure is tied to a schedule position) the outer-iteration step.
class Status {
 public:
  Status() = default;  // ok
  Status(StatusCode code, std::string message, long long step = -1)
      : code_(code), step_(step), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  /// Outer-iteration step where the failure was detected; -1 = not tied to
  /// a schedule position.
  long long step() const { return step_; }
  const std::string& message() const { return message_; }

  /// "singular-pivot at step 3: <message>" (or "ok").
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  long long step_ = -1;
  std::string message_;
};

/// Thrown by the throwing entry points on hard numerical breakdown or
/// execution failure; carries the full classified Status. Derives from
/// runtime_error (the data or the machine failed), unlike contract_error
/// (the caller's logic failed).
class status_error : public std::runtime_error {
 public:
  explicit status_error(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}

  const Status& status() const { return status_; }
  StatusCode code() const { return status_.code(); }

 private:
  Status status_;
};

/// Outcome-or-value for the non-throwing try_* entry points. Three states:
///   - ok:        status().ok() and has_value()
///   - degraded:  !status().ok() but has_value() — the LAPACK info > 0 case
///   - failed:    !status().ok() and !has_value()
template <typename T>
class Result {
 public:
  /*implicit*/ Result(T value) : has_value_(true), value_(std::move(value)) {}
  /*implicit*/ Result(Status status) : status_(std::move(status)) {
    expects(!status_.ok(), "a value-less Result must carry an error");
  }
  Result(Status status, T degraded_value)
      : status_(std::move(status)), has_value_(true),
        value_(std::move(degraded_value)) {
    expects(!status_.ok(), "a degraded Result must carry an error");
  }

  bool ok() const { return status_.ok(); }
  bool has_value() const { return has_value_; }
  const Status& status() const { return status_; }

  /// The value (possibly degraded). Throws status_error when none exists.
  T& value() & {
    if (!has_value_) throw status_error(status_);
    return value_;
  }
  const T& value() const& {
    if (!has_value_) throw status_error(status_);
    return value_;
  }
  T&& value() && {
    if (!has_value_) throw status_error(status_);
    return std::move(value_);
  }

 private:
  Status status_;
  bool has_value_ = false;
  T value_{};
};

}  // namespace conflux
