// Persistent dependency-driven task pool for Real-mode execution
// (DESIGN.md "Pipelined execution and the lookahead time model").
//
// The per-step fork/join of the old `parallel_ranks` thread-team fan-outs
// paid a team spin-up per phase and — worse — forced a full barrier at every
// phase boundary, so step t+1's tournament pivoting waited for step t's
// *entire* Schur gemm even though it only reads the next panel's v columns.
// The pool replaces that with:
//
//   - long-lived workers (std::thread, spawned once and grown on demand,
//     never torn down between steps or factorizations);
//   - tasks with fixed decomposition ids and a small explicit dependency
//     list: a task becomes ready when its dependencies completed, and the
//     factorization schedules express cross-step ordering (urgent stripe
//     before next tournament, lazy remainder before the next gather) as
//     dependencies instead of barriers;
//   - a category per task (Urgent / Lazy / Other): ready urgent work is
//     always dequeued before lazy work, so the pipeline's critical path
//     (next panel) never queues behind bulk trailing updates;
//   - deterministic results by construction: the pool never chooses *what*
//     is computed, only *who* runs it — every output element is written by
//     exactly one task whose decomposition is fixed by the schedule, the
//     two rules of rank_parallel.hpp.
//
// Threading model: the pool is the process's one threading runtime — the
// factor cores' tasks and gemm's parallel loops (src/blas/gemm.cpp) share its
// workers. The calling ("master") thread is part of the team. `parallel_for`
// runs the master plus up to width()-1 workers over a fixed index range
// with no heap allocation; `submit` hands a task to the workers and
// returns immediately; `wait` blocks the master, helping with ready
// non-lazy tasks instead of spinning (so a 2-thread machine still overlaps:
// the worker grinds the lazy gemm while the master executes the next
// panel's tasks). Tasks and parallel_for indices run at width 1, on workers
// and on the helping master alike, so a gemm inside pool work never forks.
// An idle worker polls for ~100 us before it sleeps, so back-to-back
// parallel_for calls (gemm's packing and compute loops) skip the wake-up.
//
// Width, resolved at each use: the calling thread's xblas::ScopedThreadCap
// override if one is set (blas/tuning.hpp), else CONFLUX_POOL_THREADS, else
// the number of CPUs the process may run on. Width 1 short-circuits
// everything: parallel_for runs inline and submit executes the task
// immediately on the caller — the explicit fast path that skips all team
// machinery for single-chunk work.
// Failure semantics (DESIGN.md "Failure model and degradation ladder"):
// an exception thrown inside a task no longer terminates the worker — it is
// captured (non-status exceptions are wrapped into a classified
// status_error with StatusCode::kTaskFailed), the pool cancels the
// remaining graph (pending tasks drain as no-ops, so dependents never
// deadlock on a task that will not produce), and the first captured error
// rethrows on the master at its next wait()/wait_all()/parallel_for() —
// after every live task has drained, so nothing still references the
// master's unwinding state. A watchdog detects a wedged pool: if the master
// blocks for a full interval (CONFLUX_WATCHDOG_S, default 300 s; must
// exceed the longest single task) during which no task retires, the pool
// raises StatusCode::kPoolWedged carrying a dump of the ready/running/
// blocked task ids, cancels, and unwinds — replacing the ctest timeout as
// the deadlock detector. Cancellation is cooperative: injected worker
// stalls (support/fault.hpp) abort when the pool cancels; a genuinely stuck
// worker cannot be unwound safely, so after a grace period the pool throws
// anyway (best effort, dump on stderr) rather than hanging forever.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "tensor/matrix.hpp"

namespace conflux::sched {

using TaskId = std::uint64_t;  ///< 0 is never a valid id ("no task")

/// Cooperative per-request cancellation flag (DESIGN.md "Solve service").
/// The pool's own cancel drain (below) is graph-wide — one failure cancels
/// every pending task, the right semantics WITHIN one factorization. A
/// multi-tenant caller needs the opposite granularity: cancelling one
/// request must not disturb the rest. A CancelToken is that per-request
/// flag: the owner sets it, the executing side polls it at its work
/// boundaries (admission, pre-factor, pre-solve) and drains the request as
/// kCancelled without ever entering the pool — so a cancelled request can
/// never trip the pool's graph-wide unwind. Shared by pointer; thread-safe.
class CancelToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

enum class TaskCategory : std::uint8_t { Other = 0, Urgent = 1, Lazy = 2 };

/// One executed task interval, recorded when tracing is enabled
/// (wall-clock seconds relative to the recording start).
struct TaskSlice {
  std::string name;
  TaskCategory category = TaskCategory::Other;
  long long step = -1;     ///< schedule step the task belongs to (-1 = none)
  int worker = 0;          ///< 0 = master thread, 1.. = pool workers
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Aggregate busy-time accounting since the last reset (always on; two
/// clock reads per task against task bodies that are whole BLAS calls).
struct TaskPoolStats {
  double urgent_busy_s = 0.0;
  double lazy_busy_s = 0.0;
  double other_busy_s = 0.0;
  long long tasks_run = 0;
  /// Transient-failure re-executions of retryable tasks (each re-enqueue
  /// counts once) and tasks whose retry budget ran out (the transient
  /// error then surfaces through the normal first-error-wins path).
  long long retries = 0;
  long long retry_exhausted = 0;
  /// Per-worker busy seconds (index 0 = the master thread when it helps);
  /// a worker's idle time over an interval is elapsed - busy. Feeds the
  /// metrics section of BENCH_factor.json and the watchdog's wedge dump.
  std::vector<double> worker_busy_s;
  double busy_total_s() const { return urgent_busy_s + lazy_busy_s + other_busy_s; }
};

class TaskPool {
 public:
  /// The process-wide pool (workers are shared across factorizations).
  static TaskPool& instance();

  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Team width for work issued right now from the calling thread: its
  /// ScopedThreadCap override, else CONFLUX_POOL_THREADS, else the CPUs the
  /// process may run on. Always >= 1.
  int width() const;

  /// True on a pool worker thread (used by parallel_for to run nested
  /// parallelism inline).
  static bool on_worker_thread();

  /// Submit a task with explicit dependencies. Completed (or unknown)
  /// dependency ids are ignored, so callers can pass stale ids freely.
  /// With width() == 1 the task runs inline before returning (after its
  /// dependencies, which are then complete by construction).
  ///
  /// A `retryable` task opts into bounded transient-failure retry
  /// (DESIGN.md "Recovery model"): when its body throws a status_error
  /// classified kTransientTaskFailure, the pool re-enqueues it — up to
  /// recover::Options::task_retries times, with a short deterministic
  /// backoff — instead of failing the graph; dependents stay blocked until
  /// a run succeeds, so the retry is invisible to the schedule. Only tasks
  /// whose body is idempotent over preserved inputs (the factorization's
  /// fixed-decomposition gemm/trsm blocks) may set it.
  TaskId submit(std::function<void()> fn, const char* name,
                TaskCategory category, long long step,
                const TaskId* deps, std::size_t ndeps,
                bool retryable = false);
  TaskId submit(std::function<void()> fn, const char* name,
                TaskCategory category, long long step,
                const std::vector<TaskId>& deps, bool retryable = false) {
    return submit(std::move(fn), name, category, step, deps.data(), deps.size(),
                  retryable);
  }

  /// Block until the given tasks completed; the caller helps execute ready
  /// Urgent/Other tasks while it waits (never Lazy ones: getting stuck in a
  /// long trailing update would defeat the lookahead). If any task failed
  /// (or the watchdog fired) since the last rethrow, drains every live task
  /// and rethrows the first captured error.
  void wait(const TaskId* ids, std::size_t n);
  void wait(TaskId id) { wait(&id, 1); }
  void wait(const std::vector<TaskId>& ids) { wait(ids.data(), ids.size()); }
  /// Block until every submitted task completed (same error semantics).
  void wait_all();

  /// Watchdog interval override for tests; <= 0 restores CONFLUX_WATCHDOG_S
  /// (default 300 s). The interval must exceed the longest single task.
  void set_watchdog_seconds(double seconds);
  double watchdog_seconds() const;

  /// Deterministic team execution of body(i) for i in [0, n): the fixed
  /// chunk decomposition is "one index per task", indices are claimed
  /// atomically by the master and the workers, and the call returns when
  /// all n finished. Allocation-free. Runs inline when the width is 1, the
  /// caller is itself a pool worker, or n < 2.
  template <typename Body>
  void parallel_for(index_t n, Body&& body) {
    if (n <= 0) return;
    const int w = (n > 1 && !on_worker_thread()) ? width() : 1;
    if (w <= 1) {
      for (index_t i = 0; i < n; ++i) body(i);
      return;
    }
    ParallelJob job;
    using B = std::remove_reference_t<Body>;
    job.run = [](void* ctx, index_t i) { (*static_cast<B*>(ctx))(i); };
    job.ctx = const_cast<void*>(static_cast<const void*>(std::addressof(body)));
    job.total = n;
    run_parallel_job(job, w);
  }

  /// Exclusive, priority-ordered lease on the pool for multi-tenant
  /// masters (DESIGN.md "Solve service"). The pool's failure semantics are
  /// graph-wide — first error wins, every pending task drains — which is
  /// correct within ONE factorization but poison across tenants: tenant A's
  /// injected fault must never unwind tenant B's schedule, and a rethrow
  /// must land on the master that owns the failing graph. The lease
  /// serializes pool-using masters so exactly one factorization's graph is
  /// live at a time; contending requests queue by (priority, arrival) —
  /// lower priority value first, FIFO within a class — which is what makes
  /// the service's submission priority-aware all the way down to the pool.
  /// Masters that never touch the pool (cache-hit solves) need no lease.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept : pool_(other.pool_) { other.pool_ = nullptr; }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        other.pool_ = nullptr;
      }
      return *this;
    }
    ~Lease() { release(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    bool held() const { return pool_ != nullptr; }
    void release();

   private:
    friend class TaskPool;
    explicit Lease(TaskPool* pool) : pool_(pool) {}
    TaskPool* pool_ = nullptr;
  };

  /// Block until the pool is exclusively ours; contenders are granted in
  /// ascending (priority, arrival-order). Re-entrant acquisition from the
  /// thread that already holds the lease would self-deadlock — the caller
  /// owns that invariant (the service acquires once per request).
  Lease acquire_lease(int priority);

  /// Start recording executed-task slices (clears any previous recording).
  void start_recording();
  /// Stop recording and hand back the slices, ordered by completion.
  std::vector<TaskSlice> stop_recording();

  void reset_stats();
  TaskPoolStats stats() const;

 private:
  TaskPool() = default;

  struct Task {
    std::function<void()> fn;
    const char* name = "";
    TaskCategory category = TaskCategory::Other;
    long long step = -1;
    int pending_deps = 0;
    bool retryable = false;  ///< transient failures re-enqueue (bounded)
    int attempts = 0;        ///< completed runs that failed transiently
    std::vector<TaskId> dependents;
    /// Submit time (seconds, record_t0_ epoch), stamped only while the
    /// metrics registry is enabled; < 0 = unstamped. Feeds the urgent/lazy
    /// sojourn-latency histograms (submit -> completion).
    double submit_s = -1.0;
  };

  /// Type-erased allocation-free parallel-for job (claimed index by index).
  struct ParallelJob {
    void (*run)(void*, index_t) = nullptr;
    void* ctx = nullptr;
    index_t total = 0;
    index_t next = 0;     // next unclaimed index (guarded by mutex_)
    index_t done = 0;     // completed indices (guarded by mutex_)
    index_t skipped = 0;  // indices abandoned after a body threw
  };

  void run_parallel_job(ParallelJob& job, int team_width);
  void ensure_workers(int want);  // callers hold mutex_
  void worker_main(int worker_index);
  /// Pop the best ready task id (urgent/other before lazy); 0 if none.
  TaskId pop_ready(bool allow_lazy);
  void execute_task(TaskId id, Task&& task, int worker_index);
  void finish_task(TaskId id, Task& task, int worker_index, double t0, double t1);
  /// Run one task body through the fault-injection sites and the BLAS
  /// thread cap. Throws whatever the body (or an injected fault) throws.
  /// Retryable tasks additionally pass the transient-task-throw site (the
  /// "fails N times, then succeeds" soak for bounded retry).
  void run_task_body(const std::function<void()>& fn, bool retryable);
  /// Handle a retryable task whose body just threw (call inside the catch
  /// block): if the failure is transient and the retry budget allows,
  /// restore the body into the live map entry, re-enqueue after a short
  /// deterministic backoff, and return true — the caller must then NOT
  /// finish the task. Returns false when the error should surface normally.
  bool retry_task(TaskId id, Task&& task);
  /// Record the in-flight exception (call inside a catch block) as the
  /// pool's first error and cancel the remaining graph.
  void capture_failure(const char* name, long long step);
  /// wait() without the error rethrow (used for dependency waits).
  void wait_impl(const TaskId* ids, std::size_t n);
  /// If an error is pending: drain every live task, clear the cancelled
  /// state, and rethrow the first captured error.
  void rethrow_if_failed();
  /// One blocked-master wait slice with watchdog accounting; returns false
  /// when the caller should give up waiting (unrecoverable wedge).
  bool blocked_wait(std::unique_lock<std::mutex>& lock,
                    std::chrono::steady_clock::time_point& give_up);
  std::string dump_state_locked() const;
  void stall_cooperatively(double seconds);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: new ready work / shutdown
  /// Bumped whenever work is posted; ends an idle worker's spin early.
  std::atomic<std::uint64_t> work_posted_{0};
  std::condition_variable done_cv_;  ///< waiters: a task or job index finished
  std::vector<std::thread> workers_;
  std::unordered_map<TaskId, Task> tasks_;  ///< submitted, not yet completed
  std::deque<TaskId> ready_;       ///< ready Urgent/Other tasks (FIFO)
  std::deque<TaskId> ready_lazy_;  ///< ready Lazy tasks (FIFO)
  ParallelJob* job_ = nullptr;     ///< active parallel_for, if any
  TaskId next_id_ = 1;
  long long live_tasks_ = 0;  ///< submitted and not yet finished
  long long retired_ = 0;     ///< total finished tasks (watchdog progress)
  bool stop_ = false;
  bool cancelled_ = false;          ///< pending task bodies are skipped
  std::exception_ptr error_;        ///< first captured failure
  double watchdog_override_ = 0.0;  ///< tests; <= 0 = env/default

  bool recording_ = false;
  std::vector<TaskSlice> slices_;
  std::chrono::steady_clock::time_point record_t0_;
  TaskPoolStats stats_;

  // Lease state (separate lock: lease waits are long — a whole
  // factorization — and must not interact with the watchdog's blocked-wait
  // accounting on mutex_).
  void release_lease();
  mutable std::mutex lease_mutex_;
  std::condition_variable lease_cv_;
  bool lease_held_ = false;
  std::uint64_t lease_next_seq_ = 0;
  /// Waiting acquirers as (priority, arrival seq); the minimum is granted.
  std::vector<std::pair<int, std::uint64_t>> lease_waiters_;
};

}  // namespace conflux::sched
