#include "sched/taskpool.hpp"

#include <cstdio>
#include <cstdlib>

#include "blas/tuning.hpp"
#include "recover/options.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/status.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace conflux::sched {

namespace {

thread_local bool tls_on_worker = false;

// Pool runtime metrics (DESIGN.md "Observability"): queue-depth gauges set
// under the pool mutex on every transition, sojourn-latency histograms
// (submit -> completion, so queueing delay counts — the number that shows
// lazy work yielding to urgent work) and a task counter. All behind the
// registry's single relaxed-load branch.
const metrics::Gauge g_ready_depth("pool.ready_depth");
const metrics::Gauge g_ready_lazy_depth("pool.ready_lazy_depth");
const metrics::Counter g_tasks_run("pool.tasks_run");
constexpr std::initializer_list<double> kLatencyBounds = {
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};
const metrics::Histogram g_latency_urgent("pool.latency_urgent_s", kLatencyBounds);
const metrics::Histogram g_latency_lazy("pool.latency_lazy_s", kLatencyBounds);
const metrics::Histogram g_latency_other("pool.latency_other_s", kLatencyBounds);
// Bounded-retry accounting (DESIGN.md "Recovery model"): re-enqueues of
// retryable tasks after a transient failure, and budget exhaustions (the
// transient error then surfaces through first-error-wins). recover_test
// reconciles these against the injected transient-task-throw count.
const metrics::Counter g_task_retries("recover.task_retries");
const metrics::Counter g_task_retry_exhausted("recover.task_retry_exhausted");

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

/// True when the in-flight exception (must be called inside a catch block)
/// is a transient-classified task failure — the only class bounded retry
/// absorbs. Everything else (numerical breakdown, plain kTaskFailed,
/// cancellation) surfaces immediately: re-running a task that divides by a
/// zero pivot produces the same zero pivot.
bool current_exception_is_transient() {
  try {
    throw;
  } catch (const status_error& e) {
    return e.code() == StatusCode::kTransientTaskFailure;
  } catch (...) {
    return false;
  }
}

/// Deterministic exponential backoff before a retry: long enough to let a
/// contended resource clear, short enough (6.4 ms cap) to stay far below
/// any watchdog interval.
void retry_backoff(int completed_attempts) {
  const int shift = completed_attempts < 5 ? completed_attempts : 5;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(0.0002 * static_cast<double>(1 << shift)));
}

}  // namespace

TaskPool& TaskPool::instance() {
  static TaskPool pool;
  return pool;
}

TaskPool::~TaskPool() {
  // Shutdown ordering: mark the pool stopped AND cancelled, and empty the
  // ready queues under the lock, so no task body starts once destruction
  // begins — a task queued behind an error unwind must not race the member
  // teardown below. Workers mid-task finish that task (join waits), then
  // see stop_ and exit; only then are the queues/map destroyed.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
    cancelled_ = true;
    ready_.clear();
    ready_lazy_.clear();
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

bool TaskPool::on_worker_thread() { return tls_on_worker; }

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

void TaskPool::stall_cooperatively(double seconds) {
  // Injected worker stall: sleep in short slices, aborting as soon as the
  // pool cancels (so a watchdog-initiated unwind drains promptly instead of
  // waiting out the full stall).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cancelled_ || stop_) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void TaskPool::run_task_body(const std::function<void()>& fn, bool retryable) {
  if (fault::enabled()) {
    if (fault::should_inject(fault::Site::kWorkerStall)) {
      stall_cooperatively(fault::config().stall_s);
    }
    if (fault::should_inject(fault::Site::kTaskThrow)) {
      throw std::runtime_error("injected pool-task fault");
    }
    // Transient faults are only injected into tasks that opted into retry:
    // the site exists to exercise the retry machinery, and a non-retryable
    // body (a parallel_for index, a one-shot reduction) has no re-execution
    // contract to test. The per-site counter advances on every opportunity,
    // so a re-executed task draws a fresh decision and eventually succeeds.
    if (retryable && fault::should_inject(fault::Site::kTransientTaskThrow)) {
      throw status_error(Status(StatusCode::kTransientTaskFailure,
                                "injected transient task fault"));
    }
  }
  // Pool work never forks, even when the helping master executes it
  // (tuning.hpp, tls_thread_cap).
  xblas::ScopedThreadCap cap(1);
  fn();
}

void TaskPool::capture_failure(const char* name, long long step) {
  std::exception_ptr ep = classify_current_exception(name, step);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!error_) error_ = ep;  // first failure wins; later ones were cascade
    cancelled_ = true;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
}

TaskId TaskPool::submit(std::function<void()> fn, const char* name,
                        TaskCategory category, long long step,
                        const TaskId* deps, std::size_t ndeps,
                        bool retryable) {
  const int w = width();
  if (w <= 1 && !on_worker_thread()) {
    // Single-thread fast path: honor the dependencies (they may still be
    // running on workers spawned under an earlier, wider configuration),
    // then run inline with no queue traffic at all. A pending error is NOT
    // rethrown here — the task is skipped (cancelled) and the error
    // surfaces at the caller's next wait, the same as the threaded path.
    wait_impl(deps, ndeps);
    bool skip;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      skip = cancelled_;
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (!skip) {
      // Inline retry loop, mirroring retry_task() on the threaded path:
      // transient failures of a retryable task re-run in place (there is no
      // queue to re-enqueue into) until success or budget exhaustion.
      int attempts = 0;
      for (;;) {
        try {
          run_task_body(fn, retryable);
          break;
        } catch (...) {
          if (retryable && current_exception_is_transient()) {
            if (attempts < recover::options().task_retries) {
              {
                std::unique_lock<std::mutex> lock(mutex_);
                ++stats_.retries;
              }
              if (metrics::enabled()) g_task_retries.add(1.0);
              retry_backoff(attempts);
              ++attempts;
              continue;
            }
            {
              std::unique_lock<std::mutex> lock(mutex_);
              ++stats_.retry_exhausted;
            }
            if (metrics::enabled()) g_task_retry_exhausted.add(1.0);
          }
          capture_failure(name, step);
          break;
        }
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    Task done;
    done.name = name;
    done.category = category;
    done.step = step;
    TaskId id;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      id = next_id_++;
      ++live_tasks_;
      if (metrics::enabled()) {
        // Inline execution: the task was "submitted" when it started.
        done.submit_s = std::chrono::duration<double>(t0 - record_t0_).count();
      }
      auto [it, inserted] = tasks_.emplace(id, std::move(done));
      finish_task(id, it->second, /*worker_index=*/0,
                  std::chrono::duration<double>(t0 - record_t0_).count(),
                  std::chrono::duration<double>(t1 - record_t0_).count());
    }
    done_cv_.notify_all();
    return id;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  ensure_workers(w - 1);
  const TaskId id = next_id_++;
  Task task;
  task.fn = std::move(fn);
  task.name = name;
  task.category = category;
  task.step = step;
  task.retryable = retryable;
  if (metrics::enabled()) {
    task.submit_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - record_t0_)
                        .count();
  }
  for (std::size_t i = 0; i < ndeps; ++i) {
    // A still-pending or currently-running dependency blocks the new task
    // (running tasks keep their map entry until finish_task); a completed
    // or unknown id is simply ignored.
    auto it = tasks_.find(deps[i]);
    if (it != tasks_.end()) {
      it->second.dependents.push_back(id);
      ++task.pending_deps;
    }
  }
  const bool ready = task.pending_deps == 0;
  ++live_tasks_;
  tasks_.emplace(id, std::move(task));
  if (ready) {
    (category == TaskCategory::Lazy ? ready_lazy_ : ready_).push_back(id);
    if (metrics::enabled()) {
      g_ready_depth.set(static_cast<double>(ready_.size()));
      g_ready_lazy_depth.set(static_cast<double>(ready_lazy_.size()));
    }
    lock.unlock();
    work_posted_.fetch_add(1, std::memory_order_relaxed);
    work_cv_.notify_one();
  }
  return id;
}

TaskId TaskPool::pop_ready(bool allow_lazy) {
  if (!ready_.empty()) {
    const TaskId id = ready_.front();
    ready_.pop_front();
    if (metrics::enabled()) g_ready_depth.set(static_cast<double>(ready_.size()));
    return id;
  }
  if (allow_lazy && !ready_lazy_.empty()) {
    const TaskId id = ready_lazy_.front();
    ready_lazy_.pop_front();
    if (metrics::enabled()) {
      g_ready_lazy_depth.set(static_cast<double>(ready_lazy_.size()));
    }
    return id;
  }
  return 0;
}

void TaskPool::finish_task(TaskId id, Task& task, int worker_index, double t0,
                           double t1) {
  // Called with mutex_ held.
  const double dur = t1 > t0 ? t1 - t0 : 0.0;
  switch (task.category) {
    case TaskCategory::Urgent: stats_.urgent_busy_s += dur; break;
    case TaskCategory::Lazy: stats_.lazy_busy_s += dur; break;
    case TaskCategory::Other: stats_.other_busy_s += dur; break;
  }
  ++stats_.tasks_run;
  if (static_cast<int>(stats_.worker_busy_s.size()) <= worker_index) {
    stats_.worker_busy_s.resize(static_cast<std::size_t>(worker_index) + 1, 0.0);
  }
  stats_.worker_busy_s[static_cast<std::size_t>(worker_index)] += dur;
  if (metrics::enabled()) {
    g_tasks_run.add(1.0);
    // Sojourn latency (submit -> completion); only tasks stamped at submit
    // time count, so an enable mid-flight cannot fabricate epoch-sized
    // latencies.
    if (task.submit_s >= 0.0 && t1 >= task.submit_s) {
      const double sojourn = t1 - task.submit_s;
      switch (task.category) {
        case TaskCategory::Urgent: g_latency_urgent.record(sojourn); break;
        case TaskCategory::Lazy: g_latency_lazy.record(sojourn); break;
        case TaskCategory::Other: g_latency_other.record(sojourn); break;
      }
    }
  }
  if (recording_) {
    TaskSlice s;
    s.name = task.name;
    s.category = task.category;
    s.step = task.step;
    s.worker = worker_index;
    s.start_s = t0;
    s.end_s = t1;
    slices_.push_back(std::move(s));
  }
  bool woke_ready = false;
  for (TaskId dep : task.dependents) {
    auto it = tasks_.find(dep);
    if (it == tasks_.end()) continue;
    if (--it->second.pending_deps == 0) {
      (it->second.category == TaskCategory::Lazy ? ready_lazy_ : ready_)
          .push_back(dep);
      woke_ready = true;
    }
  }
  if (woke_ready && metrics::enabled()) {
    g_ready_depth.set(static_cast<double>(ready_.size()));
    g_ready_lazy_depth.set(static_cast<double>(ready_lazy_.size()));
  }
  tasks_.erase(id);
  --live_tasks_;
  ++retired_;
  // A cancellation whose error was already consumed (a wedge that later
  // resolved, the give-up drain having unwound first) must not poison the
  // pool forever: once the graph is empty with no error pending, new work
  // is accepted again.
  if (live_tasks_ == 0 && !error_) cancelled_ = false;
  if (woke_ready) {
    work_posted_.fetch_add(1, std::memory_order_relaxed);
    work_cv_.notify_all();
  }
}

void TaskPool::execute_task(TaskId id, Task&& task, int worker_index) {
  // Called WITHOUT the lock: the caller popped `id` from a ready queue and
  // moved the map entry's body out (the entry itself stays registered so
  // wait() and dependency registration keep seeing the task as live).
  bool skip;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // A prior failure cancels the rest of the graph: the task still
    // "finishes" (so dependents unblock and waiters make progress) but its
    // body never runs — the drain that prevents both deadlock and
    // use-after-unwind.
    skip = cancelled_;
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (!skip) {
    try {
      run_task_body(task.fn, task.retryable);
    } catch (...) {
      // Bounded retry: a transient failure of a retryable task re-enqueues
      // it (dependents stay blocked, nothing finishes) instead of failing
      // the graph. retry_task() owns that decision; on false the error
      // surfaces through the normal first-error-wins capture.
      if (retry_task(id, std::move(task))) return;
      capture_failure(task.name, task.step);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    Task& rec = tasks_[id];
    rec.name = task.name;
    rec.category = task.category;
    rec.step = task.step;
    rec.submit_s = task.submit_s;
    // New dependents may have been registered on the entry while the task
    // ran; merge rather than overwrite.
    rec.dependents.insert(rec.dependents.end(), task.dependents.begin(),
                          task.dependents.end());
    finish_task(id, rec, worker_index,
                std::chrono::duration<double>(t0 - record_t0_).count(),
                std::chrono::duration<double>(t1 - record_t0_).count());
  }
  done_cv_.notify_all();
}

bool TaskPool::retry_task(TaskId id, Task&& task) {
  // Called inside execute_task's catch block, WITHOUT the lock. Only a
  // transient-classified failure of a retryable task within budget is
  // absorbed; everything else falls through to capture_failure. The moved-in
  // task still owns the body (the map entry's fn was nulled when the task
  // was popped), so on retry it is simply put back and re-enqueued.
  if (!task.retryable || !current_exception_is_transient()) return false;
  const int budget = recover::options().task_retries;
  if (task.attempts >= budget) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++stats_.retry_exhausted;
    }
    if (metrics::enabled()) g_task_retry_exhausted.add(1.0);
    return false;
  }
  retry_backoff(task.attempts);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // A failure elsewhere cancelled the graph while this body ran (or the
    // pool is shutting down): a retry would be skipped anyway, so let the
    // transient error surface instead — first error wins as usual.
    if (cancelled_ || stop_) return false;
    Task& rec = tasks_[id];
    rec.fn = std::move(task.fn);
    rec.name = task.name;
    rec.category = task.category;
    rec.step = task.step;
    rec.submit_s = task.submit_s;
    rec.retryable = true;
    rec.attempts = task.attempts + 1;
    // Dependents registered on the entry while the failed run executed are
    // already on rec; merge the ones carried by the popped copy.
    rec.dependents.insert(rec.dependents.end(), task.dependents.begin(),
                          task.dependents.end());
    (rec.category == TaskCategory::Lazy ? ready_lazy_ : ready_).push_back(id);
    ++stats_.retries;
    if (metrics::enabled()) {
      g_task_retries.add(1.0);
      g_ready_depth.set(static_cast<double>(ready_.size()));
      g_ready_lazy_depth.set(static_cast<double>(ready_lazy_.size()));
    }
  }
  work_cv_.notify_one();
  return true;
}

std::string TaskPool::dump_state_locked() const {
  // Called with mutex_ held. A popped-but-running task has fn == nullptr;
  // a dependency-blocked one has pending_deps > 0; the rest sit in a ready
  // queue.
  std::string out = "live tasks: " + std::to_string(live_tasks_);
  int listed = 0;
  long long retry_backlog = 0;
  for (const auto& [id, task] : tasks_) {
    if (task.attempts > 0) ++retry_backlog;
    if (listed == 32) out += " ...";
    if (listed++ >= 32) continue;  // keep counting the retry backlog
    out += " [#" + std::to_string(id) + " " + task.name +
           " step=" + std::to_string(task.step) +
           (task.pending_deps > 0
                ? " blocked(" + std::to_string(task.pending_deps) + " deps)"
                : (task.fn == nullptr ? " running" : " ready")) +
           (task.attempts > 0 ? " attempts=" + std::to_string(task.attempts)
                              : "") +
           "]";
  }
  // Retry state distinguishes a retry storm (tasks failing transiently over
  // and over — live work with nonzero attempts, a climbing retry total)
  // from a genuine dependency deadlock (no retries, nothing running).
  if (stats_.retries > 0 || stats_.retry_exhausted > 0 || retry_backlog > 0) {
    out += "; retries=" + std::to_string(stats_.retries) +
           " exhausted=" + std::to_string(stats_.retry_exhausted) +
           " retry_backlog=" + std::to_string(retry_backlog);
  }
  for (std::size_t w = 0; w < stats_.worker_busy_s.size(); ++w) {
    out += (w == 0 ? "; busy_s master=" : " w" + std::to_string(w) + "=") +
           std::to_string(stats_.worker_busy_s[w]);
  }
  // A wedge dump with metrics armed carries the full runtime picture —
  // counters, queue depths, latency histograms — of the state that led up
  // to the hang (the registry mutex is below the pool mutex in the lock
  // order: metrics calls never wait on the pool).
  if (metrics::enabled()) {
    const std::string m = metrics::debug_string();
    if (!m.empty()) out += "; metrics: " + m;
  }
  return out;
}

bool TaskPool::blocked_wait(std::unique_lock<std::mutex>& lock,
                            std::chrono::steady_clock::time_point& give_up) {
  // Called with mutex_ held, nothing helpable in the queues. Watchdog
  // accounting: a full interval with zero retirements while we are blocked
  // means the pool is wedged (a stuck worker or an unsatisfiable
  // dependency) — classify, cancel, and keep draining. Cooperative stalls
  // abort on cancellation; if the pool STILL makes no progress for a grace
  // interval after being declared wedged, give up on waiting entirely
  // (best effort: the caller throws the wedge error with the state dump).
  const double interval = watchdog_override_ > 0.0 ? watchdog_override_
                                                   : env_watchdog_seconds();
  const long long before = retired_;
  const auto status =
      done_cv_.wait_for(lock, std::chrono::duration<double>(interval));
  if (status != std::cv_status::timeout || retired_ != before ||
      live_tasks_ == 0) {
    return true;  // progress (or at least a wakeup): keep waiting normally
  }
  if (!error_) {
    const std::string dump = dump_state_locked();
    error_ = std::make_exception_ptr(status_error(
        Status(StatusCode::kPoolWedged,
               "no task retired within the watchdog interval (" +
                   std::to_string(interval) + " s); " + dump)));
    cancelled_ = true;
    give_up = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(2.0 * interval));
    work_cv_.notify_all();
    done_cv_.notify_all();
    return true;
  }
  if (give_up == std::chrono::steady_clock::time_point{}) {
    // The failure was captured elsewhere (another waiter's watchdog, or a
    // thrown task) and THIS drain loop started with an unarmed deadline:
    // arm it now so a permanently stuck worker cannot pin the waiter
    // forever.
    give_up = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(2.0 * interval));
    return true;
  }
  if (std::chrono::steady_clock::now() >= give_up) {
    std::fprintf(stderr, "conflux: task pool wedged beyond recovery: %s\n",
                 dump_state_locked().c_str());
    return false;
  }
  return true;
}

void TaskPool::wait_impl(const TaskId* ids, std::size_t n) {
  if (n == 0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  auto give_up = std::chrono::steady_clock::time_point{};
  for (;;) {
    bool all_done = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (ids[i] != 0 && tasks_.count(ids[i]) != 0) {
        all_done = false;
        break;
      }
    }
    if (all_done) return;
    // Help with ready non-lazy work instead of blocking: on a machine with
    // few threads this is what lets the next panel's tasks run while the
    // workers grind the previous step's lazy remainder. Once cancelled,
    // help with lazy work too — draining is all that is left to do.
    const TaskId ready_id = pop_ready(/*allow_lazy=*/cancelled_);
    if (ready_id != 0) {
      auto it = tasks_.find(ready_id);
      Task task = std::move(it->second);
      it->second.fn = nullptr;  // entry stays until finish_task (wait() keys on it)
      lock.unlock();
      execute_task(ready_id, std::move(task), /*worker_index=*/0);
      lock.lock();
      continue;
    }
    if (!blocked_wait(lock, give_up)) return;
  }
}

void TaskPool::rethrow_if_failed() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!error_) return;
  }
  // Drain EVERYTHING before unwinding the caller: live tasks may reference
  // state the caller is about to destroy. Cancelled bodies are no-ops, so
  // this is fast unless a worker is genuinely stuck — then blocked_wait's
  // give-up path bounds the drain.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto give_up = std::chrono::steady_clock::time_point{};
    while (live_tasks_ > 0) {
      const TaskId ready_id = pop_ready(/*allow_lazy=*/true);
      if (ready_id != 0) {
        auto it = tasks_.find(ready_id);
        Task task = std::move(it->second);
        it->second.fn = nullptr;
        lock.unlock();
        execute_task(ready_id, std::move(task), /*worker_index=*/0);
        lock.lock();
        continue;
      }
      if (!blocked_wait(lock, give_up)) break;
    }
  }
  std::exception_ptr ep;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ep = error_;
    error_ = nullptr;
    // Only lift the cancellation once the graph is empty: a task submitted
    // before the failure must never run its body after the unwind.
    if (live_tasks_ == 0) cancelled_ = false;
  }
  std::rethrow_exception(ep);
}

void TaskPool::wait(const TaskId* ids, std::size_t n) {
  wait_impl(ids, n);
  rethrow_if_failed();
}

void TaskPool::wait_all() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto give_up = std::chrono::steady_clock::time_point{};
    for (;;) {
      if (live_tasks_ == 0 && job_ == nullptr) break;
      const TaskId ready_id = pop_ready(/*allow_lazy=*/true);
      if (ready_id != 0) {
        auto it = tasks_.find(ready_id);
        Task task = std::move(it->second);
        it->second.fn = nullptr;
        lock.unlock();
        execute_task(ready_id, std::move(task), /*worker_index=*/0);
        lock.lock();
        continue;
      }
      if (!blocked_wait(lock, give_up)) break;
    }
  }
  rethrow_if_failed();
}

void TaskPool::run_parallel_job(ParallelJob& job, int team_width) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (job_ != nullptr) {
    // Re-entrant parallel_for (a helped task spawning one): run inline.
    lock.unlock();
    for (index_t i = 0; i < job.total; ++i) job.run(job.ctx, i);
    return;
  }
  ensure_workers(team_width - 1);
  job_ = &job;
  lock.unlock();
  work_posted_.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_all();

  // Master claims indices alongside the workers. A body that throws (on
  // either side) records the pool error and abandons the unclaimed tail —
  // `skipped` keeps the completion accounting exact.
  lock.lock();
  {
    xblas::ScopedThreadCap cap(1);
    while (job.next < job.total) {
      const index_t i = job.next++;
      lock.unlock();
      try {
        job.run(job.ctx, i);
      } catch (...) {
        capture_failure("parallel-for", -1);
        lock.lock();
        job.skipped += job.total - job.next;
        job.next = job.total;
        ++job.done;
        continue;
      }
      lock.lock();
      ++job.done;
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
    if (!blocked_wait(lock, give_up)) break;
  }
  job_ = nullptr;
  lock.unlock();
  rethrow_if_failed();
}

void TaskPool::worker_main(int worker_index) {
  tls_on_worker = true;
  // Work running on a worker never forks: the pool itself is the
  // parallelism (tuning.hpp, tls_thread_cap).
  xblas::set_tls_thread_cap(1);
  std::unique_lock<std::mutex> lock(mutex_);
  bool spun = false;
  for (;;) {
    if (stop_) return;
    if (job_ != nullptr && job_->next < job_->total) {
      spun = false;
      ParallelJob& job = *job_;
      const index_t i = job.next++;
      lock.unlock();
      bool failed = false;
      try {
        job.run(job.ctx, i);
      } catch (...) {
        capture_failure("parallel-for", -1);
        failed = true;
      }
      lock.lock();
      if (failed) {
        job.skipped += job.total - job.next;
        job.next = job.total;
      }
      if (++job.done + job.skipped >= job.total) {
        lock.unlock();
        done_cv_.notify_all();
        lock.lock();
      }
      continue;
    }
    const TaskId id = pop_ready(/*allow_lazy=*/true);
    if (id != 0) {
      spun = false;
      auto it = tasks_.find(id);
      Task task = std::move(it->second);
      it->second.fn = nullptr;
      lock.unlock();
      execute_task(id, std::move(task), worker_index);
      lock.lock();
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
  recording_ = true;
  slices_.clear();
  record_t0_ = std::chrono::steady_clock::now();
}

std::vector<TaskSlice> TaskPool::stop_recording() {
  std::unique_lock<std::mutex> lock(mutex_);
  recording_ = false;
  return std::move(slices_);
}

void TaskPool::reset_stats() {
  std::unique_lock<std::mutex> lock(mutex_);
  stats_ = TaskPoolStats{};
  stats_.worker_busy_s.clear();
}

TaskPoolStats TaskPool::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace conflux::sched
