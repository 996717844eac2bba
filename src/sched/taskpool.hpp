// Persistent worker pool for Real-mode execution: the process's one
// threading runtime (DESIGN.md "The persistent task pool").
//
// The factor cores' step phases and gemm's parallel loops
// (src/blas/gemm.cpp) both run as `parallel_for` calls on the same
// long-lived workers (std::thread, spawned once and grown on demand, never
// torn down between calls). A call runs body(i) for every i in a fixed
// index range: the calling ("master") thread and up to width()-1 workers
// claim indices one at a time, and the call returns when all of them
// finished — the end of a call is the phase barrier. Results are
// deterministic by construction: the decomposition into indices is fixed
// by the caller, never by the width, and every output element is written
// by exactly one index (the two rules of rank_parallel.hpp); the pool only
// chooses *who* runs an index. An index's own loops never fork: a
// parallel_for issued from inside an index runs as a plain loop, and pool
// threads run at an xblas thread cap of 1. An idle worker polls for
// ~100 us before it sleeps, so back-to-back calls (gemm's packing and
// compute loops) skip the wake-up.
//
// Width, resolved at each call: the calling thread's xblas::ScopedThreadCap
// override if one is set (blas/tuning.hpp), else CONFLUX_POOL_THREADS, else
// the number of CPUs the process may run on. Width 1 (or a single index)
// runs every index on the caller, with no team machinery.
//
// Failure semantics (DESIGN.md "Failure model and degradation ladder"): an
// exception thrown by an index never terminates a worker. It is captured
// (non-status exceptions are wrapped into a classified status_error with
// StatusCode::kTaskFailed), the unclaimed indices are skipped, and once
// every claimed index finished the first captured error rethrows at the
// call — so nothing still references the caller's unwinding state. A
// watchdog detects a wedged call: if the master blocks for a full interval
// (CONFLUX_WATCHDOG_S, default 300 s; must exceed the longest single index)
// during which no index finishes, the call fails with
// StatusCode::kPoolWedged carrying a state dump, and the pool cancels.
// Cancellation is cooperative: injected worker stalls (support/fault.hpp)
// abort when the pool cancels; a genuinely stuck worker cannot be unwound
// safely, so after a grace period the call throws anyway (best effort, dump
// on stderr) rather than hanging forever. The fault sites kTaskThrow and
// kWorkerStall fire per index of an outermost call.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "tensor/matrix.hpp"

namespace conflux::sched {

/// Cooperative per-request cancellation flag (DESIGN.md "Solve service").
/// A pool failure cancels the rest of ONE call, the right semantics within
/// one factorization. A multi-tenant caller needs a per-request flag: the
/// owner sets it, the executing side polls it at its work boundaries
/// (admission, pre-factor, pre-solve) and drains the request as kCancelled
/// without ever entering the pool. Shared by pointer; thread-safe.
class CancelToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// One executed parallel_for index, recorded while recording is on
/// (wall-clock seconds relative to the recording start).
struct TaskSlice {
  std::string name;
  long long step = -1;     ///< schedule step of the call (-1 = none)
  int worker = 0;          ///< 0 = master thread, 1.. = pool workers
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Busy-time accounting of the indices executed while recording was on,
/// since the last reset. Every index counts as `other`; the urgent and
/// lazy buckets stay for the benchmark report's schema and read 0.
struct TaskPoolStats {
  double urgent_busy_s = 0.0;
  double lazy_busy_s = 0.0;
  double other_busy_s = 0.0;
  long long tasks_run = 0;
  /// Per-worker busy seconds (index 0 = the master thread); a worker's
  /// idle time over an interval is elapsed - busy.
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

  /// Watchdog interval override for tests; <= 0 restores CONFLUX_WATCHDOG_S
  /// (default 300 s). The interval must exceed the longest single index.
  void set_watchdog_seconds(double seconds);
  double watchdog_seconds() const;

  /// Deterministic team execution of body(i) for i in [0, n): indices are
  /// claimed one at a time by the master and the workers, and the call
  /// returns when all n finished (or rethrows the first failure). `name`
  /// and `step` label the recorded slices. Allocation-free. Inside an
  /// index it is a plain loop.
  template <typename Body>
  void parallel_for(index_t n, Body&& body, const char* name = "parallel-for",
                    long long step = -1) {
    if (n <= 0) return;
    if (in_pool_work()) {
      for (index_t i = 0; i < n; ++i) body(i);
      return;
    }
    if ((n == 1 || width() <= 1) && !instrumented()) {
      // Nothing to share, record or inject: a plain loop on the caller.
      try {
        for (index_t i = 0; i < n; ++i) body(i);
      } catch (...) {
        rethrow_classified(name, step);
      }
      return;
    }
    ParallelJob job;
    using B = std::remove_reference_t<Body>;
    job.run = [](void* ctx, index_t i) { (*static_cast<B*>(ctx))(i); };
    job.ctx = const_cast<void*>(static_cast<const void*>(std::addressof(body)));
    job.total = n;
    job.name = name;
    job.step = step;
    run_job(job);
  }

  /// Exclusive, priority-ordered lease on the pool for multi-tenant
  /// masters (DESIGN.md "Solve service"). One call runs at a time (a second
  /// thread's call runs inline), and a failure must land on the master
  /// that owns it; the lease serializes pool-using masters so exactly one
  /// factorization drives the pool at a time. Contending requests queue by
  /// (priority, arrival) — lower priority value first, FIFO within a class
  /// — which is what makes the service's submission priority-aware all the
  /// way down to the pool. Masters that never touch the pool (cache-hit
  /// solves) need no lease.
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

  /// Start recording executed indices as slices and into stats() (clears
  /// any previous recording). Untraced calls read no clocks.
  void start_recording();
  /// Stop recording and hand back the slices, ordered by completion.
  std::vector<TaskSlice> stop_recording();

  void reset_stats();
  TaskPoolStats stats() const;

 private:
  TaskPool() = default;

  /// Type-erased allocation-free parallel-for job (claimed index by index).
  struct ParallelJob {
    void (*run)(void*, index_t) = nullptr;
    void* ctx = nullptr;
    index_t total = 0;
    const char* name = "";
    long long step = -1;
    bool instrumented = false;  // recording or fault injection armed
    int width = 1;        // workers 1..width-1 join the master
    index_t next = 0;     // next unclaimed index (guarded by mutex_)
    index_t done = 0;     // completed indices (guarded by mutex_)
    index_t skipped = 0;  // indices abandoned after a failure
  };

  /// True on a pool worker, and on the master while it runs an index.
  static bool in_pool_work();
  /// Recording or fault injection is armed: indices go through run_index.
  bool instrumented() const;
  /// Rethrow the in-flight exception (call inside a catch block) as a
  /// classified status_error naming the call.
  [[noreturn]] static void rethrow_classified(const char* name, long long step);
  void run_job(ParallelJob& job);
  /// Run one index through the fault sites, the body and the recorder;
  /// throws whatever the body (or an injected fault) throws.
  void run_index(const ParallelJob& job, index_t i, int worker_index);
  /// Record `error` as the job's failure (the first one wins), skip its
  /// unclaimed indices and cancel. Called with mutex_ held.
  void fail_locked(ParallelJob& job, std::exception_ptr error);
  /// One blocked-master wait slice with watchdog accounting; returns false
  /// when the caller should give up waiting (unrecoverable wedge).
  bool blocked_wait(std::unique_lock<std::mutex>& lock, const ParallelJob& job,
                    std::chrono::steady_clock::time_point& give_up);
  std::string dump_state_locked(const ParallelJob& job) const;
  /// Sleep for an injected stall; false if the pool cancelled meanwhile.
  bool stall_cooperatively(double seconds);
  void ensure_workers(int want);  // callers hold mutex_
  void worker_main(int worker_index);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: new job / shutdown
  /// Bumped whenever a job is posted; ends an idle worker's spin early.
  std::atomic<std::uint64_t> work_posted_{0};
  std::condition_variable done_cv_;  ///< master: an index finished
  std::vector<std::thread> workers_;
  ParallelJob* job_ = nullptr;  ///< active team parallel_for, if any
  /// Bumped per team job: a worker that outlives its job (a give-up after
  /// a wedge) never touches a later one.
  std::uint64_t job_seq_ = 0;
  long long retired_ = 0;       ///< finished indices (watchdog progress)
  bool stop_ = false;
  bool cancelled_ = false;          ///< the active job failed or wedged
  std::exception_ptr error_;        ///< first captured failure of the job
  double watchdog_override_ = 0.0;  ///< tests; <= 0 = env/default

  std::atomic<bool> recording_{false};
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
