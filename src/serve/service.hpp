// SolveService: a batched multi-tenant factor/solve front end over the
// COnfLUX / COnfCHOX cores (DESIGN.md "Solve service").
//
// The service accepts a stream of requests — LU or Cholesky, fp64 direct or
// mixed-precision with fp64 refinement — and executes them on its own small
// executor team, with:
//
//   - bounded admission: each priority class (interactive / normal / batch)
//     has a FIFO queue of depth CONFLUX_SERVE_QUEUE_DEPTH; a submit into a
//     full class is answered kAdmissionRejected immediately (back-pressure,
//     never silent queuing without bound);
//   - priority scheduling: executors always drain the most urgent non-empty
//     class first, and the shared sched::TaskPool is leased in the same
//     (priority, arrival) order, so a batch tenant never holds the pool
//     while an interactive request waits;
//   - a fingerprint-keyed factorization cache (cache.hpp): repeated-solve
//     traffic skips the O(n^3) refactorization, and cached factors are the
//     bitwise-identical factors a cold run would produce (the repo's
//     determinism guarantees make hit and miss responses bitwise equal);
//   - tenant isolation: a request that fails — numerically, through fault
//     injection, or by throwing — is classified into ITS OWN response; the
//     pool lease plus the try_* non-throwing entry points guarantee the
//     failure cannot cancel or poison any other tenant's work, and the
//     next request factors on a healthy pool;
//   - per-request cancellation: a queued request can be cancelled (freeing
//     its admission slot); a running one completes.
//
// Factorizations run under recover::ScopedCheckpointSuppression — the
// snapshot registry is keyed (kind, scalar, n, v, grid) without a tenant
// axis, so service traffic must not clobber a batch run's resumable state.
// ABFT checksums and task retry stay active as configured.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "factor/mixed.hpp"
#include "serve/cache.hpp"
#include "serve/fingerprint.hpp"
#include "support/status.hpp"
#include "tensor/matrix.hpp"

namespace conflux::serve {

enum class Method : std::uint8_t { kLu, kCholesky };
enum class Precision : std::uint8_t { kFp64, kMixed };

/// Priority classes, most urgent first. The numeric value is the admission
/// queue index AND the TaskPool lease priority.
enum class Priority : std::uint8_t { kInteractive = 0, kNormal = 1, kBatch = 2 };
inline constexpr int kPriorityClasses = 3;

struct ServiceOptions {
  /// Executor threads. 0 = CONFLUX_SERVE_THREADS, else 2. Requests are
  /// request-parallel across executors; the factorization itself uses the
  /// shared TaskPool (one leaseholder at a time), and solves run with a
  /// single BLAS thread per executor.
  int threads = 0;
  /// Per-priority-class admission bound. 0 = CONFLUX_SERVE_QUEUE_DEPTH,
  /// else 64.
  int queue_depth = 0;
  /// Factorization-cache budget in 8-byte words. 0 =
  /// CONFLUX_SERVE_CACHE_WORDS, else 64 Mi words.
  double cache_words = 0.0;
  /// Simulated machine ranks each factorization is scheduled over. The
  /// service default is 1 (a node-local solver: no simulated communication
  /// overhead per request); tests raise it to cover real 2.5D grids.
  int ranks = 1;
  /// Per-rank fast-memory words for grid selection when ranks > 1.
  /// 0 = auto: 4 n^2 / ranks, the examples' sizing.
  double memory_words = 0.0;
  factor::FactorOptions factor;
  factor::RefineOptions refine;
  /// Mixed-precision ladder: re-factor in fp64 when the fp32 + refinement
  /// leg cannot deliver (factor/mixed.hpp). The fallback factors are never
  /// cached (they answer one request; the fp32 handle is the cacheable one).
  bool allow_fp64_fallback = true;
};

struct SolveRequest {
  Method method = Method::kLu;
  Precision precision = Precision::kFp64;
  Priority priority = Priority::kNormal;
  /// The n x n system matrix. The VIEW is captured, not copied: it must
  /// stay valid and unmodified until the response is returned (hashing it
  /// is O(n^2); copying it would double every request's footprint).
  ConstViewD a;
  /// The n x nrhs right-hand sides (nrhs = 0 requests a factor-only
  /// warmup). Same lifetime contract as `a`; never written.
  ConstViewD b;
  /// Opaque client tag, echoed in the response (test bookkeeping).
  std::uint64_t tenant = 0;
};

struct SolveResponse {
  /// kOk, a degraded classification (near-singular, refine-stagnated, ...),
  /// a failure (non-finite, task-failed, ...), kCancelled, or
  /// kAdmissionRejected.
  Status status;
  /// The n x nrhs solution. Populated for ok and degraded responses; empty
  /// when the request never produced an iterate.
  MatrixD x;
  factor::FactorHealth health;
  std::uint64_t tenant = 0;
  Fingerprint key;           ///< the factorization-cache key
  bool cache_hit = false;    ///< factors came from the cache
  bool fp64_fallback = false;  ///< mixed ladder stepped down to fp64
  int ir_steps = 0;            ///< refinement corrections (mixed only)
  double backward_error = 0.0; ///< achieved backward error (mixed only)
  double queue_s = 0.0;   ///< admission to execution start
  double factor_s = 0.0;  ///< fingerprint + cache lookup + factorization
  double solve_s = 0.0;   ///< permutation + trsms (+ refinement)
  double total_s = 0.0;   ///< admission to response

  bool ok() const { return status.ok(); }
};

class SolveService {
 public:
  /// Move-only handle on an in-flight request. Resolved by wait(); a
  /// default-constructed or consumed ticket is !valid().
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&&) = default;
    Ticket& operator=(Ticket&&) = default;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    bool valid() const { return state_ != nullptr; }

   private:
    friend class SolveService;
    struct RequestState;
    explicit Ticket(std::shared_ptr<RequestState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<RequestState> state_;
  };

  explicit SolveService(const ServiceOptions& opt = {});
  /// Stops the executors. Queued-but-unstarted requests resolve kCancelled;
  /// running requests complete first. Outstanding tickets stay waitable.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admit a request. Never blocks: a full priority class resolves the
  /// ticket immediately with kAdmissionRejected; a malformed request (a not
  /// square, row mismatch) resolves kInvalidArgument.
  Ticket submit(const SolveRequest& req);

  /// Block until the request resolves; consumes the ticket.
  SolveResponse wait(Ticket& ticket);

  /// Cancel a request. Returns true when it was still queued: the request
  /// is removed (freeing its admission slot) and resolves kCancelled.
  /// Returns false when it already started or finished — a running request
  /// completes and resolves normally.
  bool cancel(Ticket& ticket);

  /// submit + wait.
  SolveResponse solve(const SolveRequest& req);

  /// The serial single-tenant reference: execute `req` on the calling
  /// thread with no queue, no cache and no lease — the same arithmetic the
  /// service performs on a cold miss. The concurrency tests compare every
  /// service response bitwise against this golden.
  static SolveResponse solve_serial(const SolveRequest& req,
                                    const ServiceOptions& opt = {});

  struct Stats {
    long long submitted = 0;
    long long admission_rejected = 0;
    long long cancelled = 0;
    long long ok = 0;
    long long degraded = 0;
    long long failed = 0;
    long long queue_high_water = 0;  ///< max total queued across classes
    FactorCache::Stats cache;
  };
  Stats stats() const;

  FactorCache& cache() { return cache_; }
  const ServiceOptions& options() const { return opt_; }

  /// Test seam: `hook` runs on the executor thread after a request left the
  /// queue and before it executes, so a test can hold an executor busy at a
  /// known point. Set it before the first submit.
  void set_execute_hook(std::function<void()> hook);
  /// True once the destructor has begun stopping the executors.
  bool stopping() const;

 private:
  using Clock = std::chrono::steady_clock;
  using RequestState = Ticket::RequestState;

  void executor_main();
  std::shared_ptr<RequestState> pop_next();
  void execute(RequestState& rs);
  void resolve(RequestState& rs, SolveResponse&& resp);

  ServiceOptions opt_;
  FactorCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  bool stopping_ = false;
  std::function<void()> execute_hook_;
  std::deque<std::shared_ptr<RequestState>> queues_[kPriorityClasses];
  Stats stats_;

  std::vector<std::thread> executors_;
};

/// Derive the factorization-cache key for a request: the content
/// fingerprint of `a` combined with every option that changes the factor
/// bits (method, storage precision, block size, ranks — the grid shape is a
/// function of (n, ranks, memory) and block size feeds the schedule).
Fingerprint request_key(const SolveRequest& req, const ServiceOptions& opt);

}  // namespace conflux::serve
