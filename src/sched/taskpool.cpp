#include "sched/taskpool.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "blas/tuning.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/status.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace conflux::sched {

namespace {

thread_local bool tls_in_pool_work = false;

/// Marks the calling thread as running pool indices while it lives.
class ScopedPoolWork {
 public:
  explicit ScopedPoolWork(bool on) : saved_(tls_in_pool_work) {
    tls_in_pool_work = saved_ || on;
  }
  ~ScopedPoolWork() { tls_in_pool_work = saved_; }
  ScopedPoolWork(const ScopedPoolWork&) = delete;
  ScopedPoolWork& operator=(const ScopedPoolWork&) = delete;

 private:
  bool saved_;
};

int env_pool_threads() {
  static const int value = [] {
    const char* s = std::getenv("CONFLUX_POOL_THREADS");
    if (s == nullptr || *s == '\0') return 0;
    const long v = std::strtol(s, nullptr, 10);
    return v > 0 ? static_cast<int>(v) : 0;
  }();
  return value;
}

/// CPUs this process may run on (its affinity mask), read once.
int available_cpus() {
  static const int value = [] {
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
      return CPU_COUNT(&set);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return value;
}

/// How long an idle worker, or a master whose parallel_for indices are all
/// claimed, polls before blocking on a condition variable.
constexpr std::chrono::microseconds kIdleSpin{100};

double env_watchdog_seconds() {
  static const double value = [] {
    const char* s = std::getenv("CONFLUX_WATCHDOG_S");
    if (s == nullptr || *s == '\0') return 300.0;
    const double v = std::strtod(s, nullptr);
    return v > 0.0 ? v : 300.0;
  }();
  return value;
}

/// Classify the in-flight exception (must be called inside a catch block):
/// status_error passes through untouched; anything else is wrapped into a
/// classified kTaskFailed carrying the original message.
std::exception_ptr classify_current_exception(const char* name, long long step) {
  try {
    throw;
  } catch (const status_error&) {
    return std::current_exception();
  } catch (const std::exception& e) {
    return std::make_exception_ptr(status_error(
        Status(StatusCode::kTaskFailed,
               std::string("task '") + name + "' threw: " + e.what(), step)));
  } catch (...) {
    return std::make_exception_ptr(status_error(
        Status(StatusCode::kTaskFailed,
               std::string("task '") + name + "' threw a non-std exception",
               step)));
  }
}

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

TaskPool& TaskPool::instance() {
  static TaskPool pool;
  return pool;
}

TaskPool::~TaskPool() {
  // Workers mid-index finish it (join waits), then see stop_ and exit; an
  // injected stall aborts on the cancellation.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
    cancelled_ = true;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int TaskPool::width() const {
  if (const int w = xblas::tls_thread_cap(); w > 0) return w;
  if (const int env = env_pool_threads(); env > 0) return env;
  return available_cpus();
}

bool TaskPool::in_pool_work() { return tls_in_pool_work; }

bool TaskPool::instrumented() const {
  return recording_.load(std::memory_order_relaxed) || fault::enabled();
}

void TaskPool::rethrow_classified(const char* name, long long step) {
  std::rethrow_exception(classify_current_exception(name, step));
}

void TaskPool::set_watchdog_seconds(double seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  watchdog_override_ = seconds;
}

double TaskPool::watchdog_seconds() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return watchdog_override_ > 0.0 ? watchdog_override_ : env_watchdog_seconds();
}

void TaskPool::ensure_workers(int want) {
  while (static_cast<int>(workers_.size()) < want) {
    const int index = static_cast<int>(workers_.size()) + 1;  // 0 = master
    workers_.emplace_back([this, index] { worker_main(index); });
  }
}

bool TaskPool::stall_cooperatively(double seconds) {
  // Sleep in short slices, aborting as soon as the pool cancels, so a
  // watchdog-initiated unwind drains promptly instead of waiting out the
  // full stall.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cancelled_ || stop_) return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

void TaskPool::run_index(const ParallelJob& job, index_t i, int worker_index) {
  if (!job.instrumented) {
    job.run(job.ctx, i);
    return;
  }
  if (fault::enabled()) {
    // Only a worker stalls: the master is the one watching the call.
    if (worker_index > 0 && fault::should_inject(fault::Site::kWorkerStall) &&
        !stall_cooperatively(fault::config().stall_s)) {
      return;  // cancelled while stalled: the body never runs
    }
    if (fault::should_inject(fault::Site::kTaskThrow)) {
      throw std::runtime_error("injected pool-task fault");
    }
  }
  if (!recording_.load(std::memory_order_relaxed)) {
    job.run(job.ctx, i);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  job.run(job.ctx, i);
  const auto t1 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  if (!recording_.load(std::memory_order_relaxed)) return;
  const double s0 = seconds(t0 - record_t0_);
  const double s1 = seconds(t1 - record_t0_);
  stats_.other_busy_s += s1 - s0;
  ++stats_.tasks_run;
  const auto w = static_cast<std::size_t>(worker_index);
  if (stats_.worker_busy_s.size() <= w) stats_.worker_busy_s.resize(w + 1, 0.0);
  stats_.worker_busy_s[w] += s1 - s0;
  slices_.push_back(TaskSlice{job.name, job.step, worker_index, s0, s1});
}

void TaskPool::fail_locked(ParallelJob& job, std::exception_ptr error) {
  if (!error_) error_ = std::move(error);  // later failures are cascade
  cancelled_ = true;
  job.skipped += job.total - job.next;
  job.next = job.total;
}

std::string TaskPool::dump_state_locked(const ParallelJob& job) const {
  std::string out = "job '" + std::string(job.name) +
                    "' step=" + std::to_string(job.step) +
                    ": indices=" + std::to_string(job.total) +
                    " claimed=" + std::to_string(job.next) +
                    " done=" + std::to_string(job.done) +
                    " skipped=" + std::to_string(job.skipped) +
                    " workers=" + std::to_string(workers_.size());
  for (std::size_t w = 0; w < stats_.worker_busy_s.size(); ++w) {
    out += (w == 0 ? "; busy_s master=" : " w" + std::to_string(w) + "=") +
           std::to_string(stats_.worker_busy_s[w]);
  }
  // With metrics armed the dump carries the runtime picture that led up to
  // the hang (the registry mutex is below the pool mutex in the lock order:
  // metrics calls never wait on the pool).
  if (metrics::enabled()) {
    const std::string m = metrics::debug_string();
    if (!m.empty()) out += "; metrics: " + m;
  }
  return out;
}

bool TaskPool::blocked_wait(std::unique_lock<std::mutex>& lock,
                            const ParallelJob& job,
                            std::chrono::steady_clock::time_point& give_up) {
  // Called with mutex_ held, every index claimed. Watchdog accounting: a
  // full interval with no finished index while we are blocked means the
  // call is wedged (a stuck worker) — classify, cancel, and keep draining.
  // Cooperative stalls abort on cancellation; if the call STILL makes no
  // progress for a grace interval after being declared wedged, give up on
  // waiting entirely (best effort: the caller throws the wedge error).
  const double interval = watchdog_override_ > 0.0 ? watchdog_override_
                                                   : env_watchdog_seconds();
  const long long before = retired_;
  const auto status =
      done_cv_.wait_for(lock, std::chrono::duration<double>(interval));
  if (status != std::cv_status::timeout || retired_ != before ||
      job.done + job.skipped >= job.total) {
    return true;  // progress (or at least a wakeup): keep waiting normally
  }
  const auto grace = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(2.0 * interval));
  if (!error_) {
    error_ = std::make_exception_ptr(status_error(
        Status(StatusCode::kPoolWedged,
               "no parallel_for index finished within the watchdog interval (" +
                   std::to_string(interval) + " s); " + dump_state_locked(job),
               job.step)));
    cancelled_ = true;
    give_up = std::chrono::steady_clock::now() + grace;
    return true;
  }
  if (give_up == std::chrono::steady_clock::time_point{}) {
    // An index failed earlier and another is still stuck: arm the deadline
    // now so a permanently stuck worker cannot pin the master forever.
    give_up = std::chrono::steady_clock::now() + grace;
    return true;
  }
  if (std::chrono::steady_clock::now() >= give_up) {
    std::fprintf(stderr, "conflux: task pool wedged beyond recovery: %s\n",
                 dump_state_locked(job).c_str());
    return false;
  }
  return true;
}

void TaskPool::run_job(ParallelJob& job) {
  job.instrumented = instrumented();
  const int w = job.total > 1 ? width() : 1;
  std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
  if (w > 1) lock.lock();
  if (w <= 1 || job_ != nullptr) {
    // Width 1, one index, or another thread's call holds the team: every
    // index runs here, and a failure is this call's own, never the pool's.
    if (lock.owns_lock()) lock.unlock();
    const ScopedPoolWork in_work(job.total > 1);
    try {
      for (index_t i = 0; i < job.total; ++i) run_index(job, i, 0);
    } catch (...) {
      rethrow_classified(job.name, job.step);
    }
    return;
  }
  ensure_workers(w - 1);
  job.width = w;
  job_ = &job;
  ++job_seq_;
  lock.unlock();
  work_posted_.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_all();

  // The master claims indices alongside the workers.
  lock.lock();
  {
    const ScopedPoolWork in_work(true);
    const xblas::ScopedThreadCap cap(1);
    while (job.next < job.total) {
      const index_t i = job.next++;
      lock.unlock();
      std::exception_ptr error;
      try {
        run_index(job, i, 0);
      } catch (...) {
        error = classify_current_exception(job.name, job.step);
      }
      lock.lock();
      if (error) fail_locked(job, std::move(error));
      ++job.done;
      ++retired_;
    }
  }
  // The other indices usually finish within microseconds of the master's
  // last one: poll briefly before paying for a sleep and a wake-up.
  const auto spin_end = std::chrono::steady_clock::now() + kIdleSpin;
  while (job.done + job.skipped < job.total &&
         std::chrono::steady_clock::now() < spin_end) {
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
  }
  auto give_up = std::chrono::steady_clock::time_point{};
  while (job.done + job.skipped < job.total) {
    if (!blocked_wait(lock, job, give_up)) break;
  }
  job_ = nullptr;
  std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  cancelled_ = false;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void TaskPool::worker_main(int worker_index) {
  tls_in_pool_work = true;
  xblas::set_tls_thread_cap(1);
  std::unique_lock<std::mutex> lock(mutex_);
  bool spun = false;
  for (;;) {
    if (stop_) return;
    if (job_ != nullptr && worker_index < job_->width && job_->next < job_->total) {
      spun = false;
      ParallelJob& job = *job_;
      const std::uint64_t seq = job_seq_;
      const index_t i = job.next++;
      lock.unlock();
      std::exception_ptr error;
      try {
        run_index(job, i, worker_index);
      } catch (...) {
        error = classify_current_exception(job.name, job.step);
      }
      lock.lock();
      // The master gave up on a wedged job: it is gone, leave it alone.
      if (job_ != &job || job_seq_ != seq) continue;
      if (error) fail_locked(job, std::move(error));
      ++retired_;
      if (++job.done + job.skipped >= job.total) {
        lock.unlock();
        done_cv_.notify_all();
        lock.lock();
      }
      continue;
    }
    if (!spun) {
      // Idle: stay awake briefly before sleeping, so the next job of a
      // back-to-back sequence (gemm's packing and compute loops, a step's
      // row blocks) finds this worker running instead of paying a wake-up.
      // The spin ends early when work is posted; the state is re-checked
      // under the lock before any sleep, so no wake-up can be lost.
      spun = true;
      const std::uint64_t seen = work_posted_.load(std::memory_order_relaxed);
      lock.unlock();
      const auto spin_end = std::chrono::steady_clock::now() + kIdleSpin;
      while (work_posted_.load(std::memory_order_relaxed) == seen &&
             std::chrono::steady_clock::now() < spin_end) {
        std::this_thread::yield();
      }
      lock.lock();
      continue;
    }
    spun = false;
    work_cv_.wait(lock);
  }
}

void TaskPool::Lease::release() {
  if (pool_ != nullptr) {
    pool_->release_lease();
    pool_ = nullptr;
  }
}

TaskPool::Lease TaskPool::acquire_lease(int priority) {
  std::unique_lock<std::mutex> lock(lease_mutex_);
  const std::pair<int, std::uint64_t> me{priority, lease_next_seq_++};
  lease_waiters_.push_back(me);
  lease_cv_.wait(lock, [&] {
    if (lease_held_) return false;
    // Granted only when no waiter outranks us: lowest (priority, seq) wins.
    for (const auto& w : lease_waiters_) {
      if (w < me) return false;
    }
    return true;
  });
  lease_held_ = true;
  for (std::size_t i = 0; i < lease_waiters_.size(); ++i) {
    if (lease_waiters_[i] == me) {
      lease_waiters_.erase(lease_waiters_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  return Lease(this);
}

void TaskPool::release_lease() {
  {
    std::unique_lock<std::mutex> lock(lease_mutex_);
    lease_held_ = false;
  }
  lease_cv_.notify_all();
}

void TaskPool::start_recording() {
  std::unique_lock<std::mutex> lock(mutex_);
  slices_.clear();
  record_t0_ = std::chrono::steady_clock::now();
  recording_.store(true, std::memory_order_relaxed);
}

std::vector<TaskSlice> TaskPool::stop_recording() {
  std::unique_lock<std::mutex> lock(mutex_);
  recording_.store(false, std::memory_order_relaxed);
  return std::move(slices_);
}

void TaskPool::reset_stats() {
  std::unique_lock<std::mutex> lock(mutex_);
  stats_ = TaskPoolStats{};
}

TaskPoolStats TaskPool::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace conflux::sched
