#include "serve/service.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "blas/tuning.hpp"
#include "factor/confchox.hpp"
#include "factor/conflux_lu.hpp"
#include "models/models.hpp"
#include "recover/options.hpp"
#include "sched/taskpool.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "xsim/machine.hpp"

namespace conflux::serve {

namespace {

const metrics::Counter g_requests("serve.requests");
const metrics::Counter g_rejected("serve.rejected");
const metrics::Counter g_cancelled("serve.cancelled");
const metrics::Counter g_resp_ok("serve.responses.ok");
const metrics::Counter g_resp_degraded("serve.responses.degraded");
const metrics::Counter g_resp_failed("serve.responses.failed");
const metrics::Gauge g_queue_depth("serve.queue.depth");

constexpr std::initializer_list<double> kLatencyBounds = {
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0};
const metrics::Histogram g_lat_total("serve.latency.total_s", kLatencyBounds);
const metrics::Histogram g_lat_queue("serve.latency.queue_s", kLatencyBounds);
const metrics::Histogram g_lat_factor("serve.latency.factor_s", kLatencyBounds);
const metrics::Histogram g_lat_solve("serve.latency.solve_s", kLatencyBounds);

int env_int(const char* name, int fallback) {
  if (const char* s = std::getenv(name); s != nullptr && *s != '\0') {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fallback;
}

ServiceOptions resolve_options(ServiceOptions opt) {
  if (opt.threads <= 0) opt.threads = env_int("CONFLUX_SERVE_THREADS", 2);
  if (opt.queue_depth <= 0)
    opt.queue_depth = env_int("CONFLUX_SERVE_QUEUE_DEPTH", 64);
  if (opt.ranks < 1) opt.ranks = 1;
  // cache_words <= 0 is resolved by FactorCache itself.
  return opt;
}

/// Machine + grid for one request: deterministic in (n, options) only, so
/// the service and the serial golden plan identically.
struct Plan {
  xsim::MachineSpec spec;
  grid::Grid3D grid{1, 1, 1};
};

Plan plan_for(index_t n, const ServiceOptions& opt) {
  Plan plan;
  const double nn = static_cast<double>(n);
  plan.spec.memory_words = opt.memory_words > 0.0
                               ? opt.memory_words
                               : std::max(1.0, 4.0 * nn * nn /
                                                   static_cast<double>(opt.ranks));
  if (opt.ranks > 1) {
    plan.grid = models::best_conflux_grid(n, opt.ranks, plan.spec.memory_words);
  }
  plan.spec.num_ranks = plan.grid.ranks();
  return plan;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Copy the request's RHS into the response's solution buffer (handles
/// strided client views; nrhs = 0 yields an n x 0 solution).
MatrixD rhs_copy(const SolveRequest& req) {
  MatrixD x(req.a.rows(), req.b.cols());
  if (req.b.cols() > 0) copy(req.b, x.view());
  return x;
}

/// Execute one request end to end: fingerprint, cache, factor (under the
/// pool lease when serving), solve. This one function IS both the service
/// path (cache + lease) and the serial golden (no cache, no lease) — the
/// arithmetic is shared by construction, which is what the bitwise
/// response-equality contract rests on.
SolveResponse run_request(const SolveRequest& req, const ServiceOptions& opt,
                          FactorCache* cache, bool use_lease) {
  SolveResponse resp;
  resp.tenant = req.tenant;
  if (req.a.rows() != req.a.cols()) {
    resp.status = Status(StatusCode::kInvalidArgument,
                         "solve request matrix must be square");
    return resp;
  }
  if (req.b.cols() > 0 && req.b.rows() != req.a.rows()) {
    resp.status = Status(StatusCode::kInvalidArgument,
                         "solve request rhs rows must match the matrix");
    return resp;
  }

  const auto factor_t0 = std::chrono::steady_clock::now();
  {
    prof::ScopedSpan span("serve.fingerprint");
    resp.key = request_key(req, opt);
  }

  // The factor handle this request will solve through: either pinned from
  // the cache or freshly computed (and, when healthy, published to it).
  std::shared_ptr<const CachedFactor> entry = cache ? cache->lookup(resp.key)
                                                    : nullptr;
  resp.cache_hit = entry != nullptr;

  // Factor on a miss. Service traffic must not clobber the snapshot
  // registry (keyed without a tenant axis), and exactly one request's task
  // graph may be live on the shared pool — a tenant's failure then unwinds
  // its own graph only.
  StatusCode fp32_reason = StatusCode::kOk;  // why the mixed fp32 leg ended
  if (entry == nullptr) {
    prof::ScopedSpan span("serve.factor");
    recover::ScopedCheckpointSuppression no_ckpt;
    auto lease = use_lease ? sched::TaskPool::instance().acquire_lease(
                                 static_cast<int>(req.priority))
                           : sched::TaskPool::Lease();
    const Plan plan = plan_for(req.a.rows(), opt);
    xsim::Machine m(plan.spec, xsim::ExecMode::Real);
    // Healthy factors are cacheable; degraded/failed ones never enter, and
    // any stale healthy entry for this content is dropped (a fault-injected
    // re-factorization of previously cached content must not leave the old
    // handle answering for a matrix the service just failed on).
    auto publish_fp64 = [&](auto result) {
      if (!result.has_value()) {
        resp.status = result.status();
        if (cache) cache->invalidate(resp.key);
        return;
      }
      const bool healthy = result.ok();
      if (!healthy) {
        resp.status = result.status();
        if (cache) cache->invalidate(resp.key);
      }
      auto handle = std::make_shared<CachedFactor>(
          CachedFactor{std::move(result).value()});
      if (healthy && cache) cache->insert(resp.key, handle);
      entry = std::move(handle);
    };
    auto publish_fp32 = [&](auto result) -> StatusCode {
      if (result.has_value() && result.ok()) {
        auto handle = std::make_shared<CachedFactor>(
            CachedFactor{std::move(result).value()});
        if (cache) cache->insert(resp.key, handle);
        entry = std::move(handle);
        return StatusCode::kOk;
      }
      if (cache) cache->invalidate(resp.key);
      return result.status().code();
    };
    if (req.precision == Precision::kFp64) {
      if (req.method == Method::kLu) {
        publish_fp64(factor::try_conflux_lu(m, plan.grid, req.a, opt.factor));
      } else {
        publish_fp64(factor::try_confchox(m, plan.grid, req.a, opt.factor));
      }
      if (entry == nullptr) {  // hard failure, classified in resp.status
        resp.factor_s = seconds_since(factor_t0);
        return resp;
      }
    } else {
      // Mixed: factor in fp32. A failed or degraded fp32 factorization
      // sends the ladder to the fp64 leg below (factor/mixed.hpp semantics:
      // degraded fp32 factors carry no refinable accuracy either).
      MatrixF a32(req.a.rows(), req.a.cols());
      convert(req.a, a32.view());
      const ConstViewF a32v = a32.view();
      if (req.method == Method::kLu) {
        fp32_reason =
            publish_fp32(factor::try_conflux_lu(m, plan.grid, a32v, opt.factor));
      } else {
        fp32_reason =
            publish_fp32(factor::try_confchox(m, plan.grid, a32v, opt.factor));
      }
    }
  }
  resp.factor_s = seconds_since(factor_t0);

  // Solve. Solves and refinement run leaseless, so they run at width 1 and
  // stay off the pool (both paths, so the golden and the service run the
  // identical kernel configuration); the leased fp64 fallback factorization
  // below keeps the pool's full width.
  const auto solve_t0 = std::chrono::steady_clock::now();
  prof::ScopedSpan span("serve.solve");
  if (req.precision == Precision::kFp64) {
    xblas::ScopedThreadCap cap(1);
    resp.health = entry->health();
    resp.x = rhs_copy(req);
    if (req.b.cols() > 0) {
      if (req.method == Method::kLu) {
        factor::conflux_lu_solve(std::get<factor::LuResult>(entry->handle),
                                 resp.x.view());
      } else {
        factor::confchox_solve(std::get<factor::CholResult>(entry->handle),
                               resp.x.view());
      }
    }
    resp.status = resp.health.to_status();
    resp.solve_s = seconds_since(solve_t0);
    return resp;
  }

  // Mixed-precision ladder: refine against the fp32 factors, fall back to a
  // fresh fp64 factor + direct solve when refinement cannot deliver.
  if (entry != nullptr) {
    xblas::ScopedThreadCap cap(1);
    resp.health = entry->health();
    resp.x = rhs_copy(req);
    const factor::RefineReport rep =
        req.method == Method::kLu
            ? factor::refine_lu(std::get<factor::LuResultF>(entry->handle),
                                req.a, resp.x.view(), opt.refine)
            : factor::refine_cholesky(
                  std::get<factor::CholResultF>(entry->handle), req.a,
                  resp.x.view(), opt.refine);
    resp.ir_steps = rep.steps;
    resp.backward_error = rep.backward_error;
    if (rep.converged) {
      resp.status = Status();
      resp.solve_s = seconds_since(solve_t0);
      return resp;
    }
    fp32_reason = rep.code;
  }
  if (!opt.allow_fp64_fallback) {
    resp.status = Status(fp32_reason == StatusCode::kOk
                             ? StatusCode::kRefineStagnated
                             : fp32_reason,
                         "mixed-precision leg did not converge and the fp64 "
                         "fallback is disabled");
    resp.solve_s = seconds_since(solve_t0);
    return resp;
  }

  // fp64 fallback leg: answers this request only, never cached (the fp32
  // handle is the cacheable artifact of a mixed request).
  resp.fp64_fallback = true;
  {
    recover::ScopedCheckpointSuppression no_ckpt;
    auto lease = use_lease ? sched::TaskPool::instance().acquire_lease(
                                 static_cast<int>(req.priority))
                           : sched::TaskPool::Lease();
    const Plan plan = plan_for(req.a.rows(), opt);
    xsim::Machine m(plan.spec, xsim::ExecMode::Real);
    if (req.method == Method::kLu) {
      auto r = factor::try_conflux_lu(m, plan.grid, req.a, opt.factor);
      if (!r.has_value()) {
        // resp.x keeps the fp32 leg's best iterate when one exists; the
        // failed status says not to trust it (Result degraded semantics).
        resp.status = r.status();
        resp.solve_s = seconds_since(solve_t0);
        return resp;
      }
      resp.health = r.value().health;
      resp.x = rhs_copy(req);
      if (req.b.cols() > 0) factor::conflux_lu_solve(r.value(), resp.x.view());
      resp.status = resp.health.to_status();
    } else {
      auto r = factor::try_confchox(m, plan.grid, req.a, opt.factor);
      if (!r.has_value()) {
        // resp.x keeps the fp32 leg's best iterate when one exists; the
        // failed status says not to trust it (Result degraded semantics).
        resp.status = r.status();
        resp.solve_s = seconds_since(solve_t0);
        return resp;
      }
      resp.health = r.value().health;
      resp.x = rhs_copy(req);
      if (req.b.cols() > 0) factor::confchox_solve(r.value(), resp.x.view());
      resp.status = resp.health.to_status();
    }
  }
  if (req.b.cols() > 0) {
    xblas::ScopedThreadCap cap(1);
    resp.backward_error =
        factor::solve_backward_error(req.a, resp.x.view(), req.b);
  }
  resp.solve_s = seconds_since(solve_t0);
  return resp;
}

}  // namespace

Fingerprint request_key(const SolveRequest& req, const ServiceOptions& opt) {
  Fingerprint key = fingerprint(req.a);
  key = fingerprint_combine(
      key, (static_cast<std::uint64_t>(req.method) << 8) |
               static_cast<std::uint64_t>(req.precision));
  key = fingerprint_combine(key,
                            static_cast<std::uint64_t>(opt.factor.block_size));
  key = fingerprint_combine(key, static_cast<std::uint64_t>(opt.ranks));
  return key;
}

struct SolveService::Ticket::RequestState {
  SolveRequest req;
  Clock::time_point submit_t;
  sched::CancelToken token;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  SolveResponse resp;
};

SolveService::SolveService(const ServiceOptions& opt)
    : opt_(resolve_options(opt)), cache_(opt_.cache_words) {
  executors_.reserve(static_cast<std::size_t>(opt_.threads));
  for (int i = 0; i < opt_.threads; ++i) {
    executors_.emplace_back([this] { executor_main(); });
  }
}

SolveService::~SolveService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : executors_) t.join();
  // Executors stop without draining: whatever is still queued resolves as
  // cancelled so outstanding tickets never wedge a waiter.
  for (auto& q : queues_) {
    while (!q.empty()) {
      auto rs = std::move(q.front());
      q.pop_front();
      SolveResponse resp;
      resp.tenant = rs->req.tenant;
      resp.status = Status(StatusCode::kCancelled, "solve service stopped");
      resolve(*rs, std::move(resp));
    }
  }
}

SolveService::Ticket SolveService::submit(const SolveRequest& req) {
  auto state = std::make_shared<RequestState>();
  state->req = req;
  state->submit_t = Clock::now();
  g_requests.add(1.0);

  if (req.a.rows() != req.a.cols() ||
      (req.b.cols() > 0 && req.b.rows() != req.a.rows())) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.submitted;
    }
    SolveResponse resp;
    resp.tenant = req.tenant;
    resp.status = Status(StatusCode::kInvalidArgument,
                         "malformed solve request (shape mismatch)");
    resolve(*state, std::move(resp));
    return Ticket(state);
  }

  bool rejected = false;
  bool stopped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stopping_) {
      stopped = true;
    } else {
      const auto cls = static_cast<std::size_t>(req.priority);
      if (static_cast<int>(queues_[cls].size()) >= opt_.queue_depth) {
        rejected = true;
      } else {
        queues_[cls].push_back(state);
        long long depth = 0;
        for (const auto& q : queues_) depth += static_cast<long long>(q.size());
        stats_.queue_high_water = std::max(stats_.queue_high_water, depth);
        g_queue_depth.set(static_cast<double>(depth));
      }
    }
  }
  if (stopped) {
    SolveResponse resp;
    resp.tenant = req.tenant;
    resp.status = Status(StatusCode::kCancelled, "solve service stopped");
    resolve(*state, std::move(resp));
  } else if (rejected) {
    SolveResponse resp;
    resp.tenant = req.tenant;
    resp.status =
        Status(StatusCode::kAdmissionRejected,
               "admission queue full for this priority class — retry later");
    resolve(*state, std::move(resp));
  } else {
    work_cv_.notify_one();
  }
  return Ticket(state);
}

SolveResponse SolveService::wait(Ticket& ticket) {
  expects(ticket.valid(), "wait() needs a live ticket");
  auto state = std::move(ticket.state_);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done; });
  return std::move(state->resp);
}

bool SolveService::cancel(Ticket& ticket) {
  if (!ticket.valid()) return false;
  auto state = ticket.state_;
  bool removed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& q = queues_[static_cast<std::size_t>(state->req.priority)];
    auto it = std::find(q.begin(), q.end(), state);
    if (it != q.end()) {
      q.erase(it);
      removed = true;
      long long depth = 0;
      for (const auto& qq : queues_) depth += static_cast<long long>(qq.size());
      g_queue_depth.set(static_cast<double>(depth));
    }
  }
  // Close the pop/execute window too: an executor that already popped this
  // request checks the token once more before factoring.
  state->token.cancel();
  if (removed) {
    SolveResponse resp;
    resp.tenant = state->req.tenant;
    resp.status = Status(StatusCode::kCancelled, "cancelled while queued");
    resolve(*state, std::move(resp));
  }
  return removed;
}

SolveResponse SolveService::solve(const SolveRequest& req) {
  Ticket t = submit(req);
  return wait(t);
}

SolveResponse SolveService::solve_serial(const SolveRequest& req,
                                         const ServiceOptions& opt) {
  const ServiceOptions ropt = resolve_options(opt);
  SolveResponse resp = run_request(req, ropt, nullptr, /*use_lease=*/false);
  resp.total_s = resp.factor_s + resp.solve_s;
  return resp;
}

SolveService::Stats SolveService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.cache = cache_.stats();
  return s;
}

void SolveService::set_execute_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  execute_hook_ = std::move(hook);
}

bool SolveService::stopping() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopping_;
}

auto SolveService::pop_next() -> std::shared_ptr<RequestState> {
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.wait(lock, [&] {
    if (stopping_) return true;
    for (const auto& q : queues_) {
      if (!q.empty()) return true;
    }
    return false;
  });
  if (stopping_) return nullptr;
  for (auto& q : queues_) {
    if (q.empty()) continue;
    auto rs = std::move(q.front());
    q.pop_front();
    long long depth = 0;
    for (const auto& qq : queues_) depth += static_cast<long long>(qq.size());
    g_queue_depth.set(static_cast<double>(depth));
    return rs;
  }
  return nullptr;  // unreachable: the predicate saw a non-empty queue
}

void SolveService::executor_main() {
  for (;;) {
    auto rs = pop_next();
    if (rs == nullptr) return;
    if (execute_hook_) execute_hook_();
    if (rs->token.cancelled()) {
      SolveResponse resp;
      resp.tenant = rs->req.tenant;
      resp.status = Status(StatusCode::kCancelled, "cancelled while queued");
      resolve(*rs, std::move(resp));
      continue;
    }
    execute(*rs);
  }
}

void SolveService::execute(RequestState& rs) {
  const double queue_s = seconds_since(rs.submit_t);
  SolveResponse resp;
  // Tenant isolation backstop: nothing a request does — numerics, fault
  // injection, a bug in a handler — may take the executor down. try_* entry
  // points classify everything they know; this catch is for the rest.
  try {
    resp = run_request(rs.req, opt_, &cache_, /*use_lease=*/true);
  } catch (const status_error& e) {
    resp = SolveResponse{};
    resp.tenant = rs.req.tenant;
    resp.status = e.status();
  } catch (const std::exception& e) {
    resp = SolveResponse{};
    resp.tenant = rs.req.tenant;
    resp.status = Status(StatusCode::kTaskFailed, e.what());
  }
  resp.queue_s = queue_s;
  resolve(rs, std::move(resp));
}

void SolveService::resolve(RequestState& rs, SolveResponse&& resp) {
  resp.total_s = seconds_since(rs.submit_t);
  g_lat_total.record(resp.total_s);
  g_lat_queue.record(resp.queue_s);
  g_lat_factor.record(resp.factor_s);
  g_lat_solve.record(resp.solve_s);
  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (resp.status.code()) {
      case StatusCode::kOk:
        ++stats_.ok;
        g_resp_ok.add(1.0);
        break;
      case StatusCode::kCancelled:
        ++stats_.cancelled;
        g_cancelled.add(1.0);
        break;
      case StatusCode::kAdmissionRejected:
        ++stats_.admission_rejected;
        g_rejected.add(1.0);
        break;
      default:
        if (resp.x.rows() > 0) {
          ++stats_.degraded;
          g_resp_degraded.add(1.0);
        } else {
          ++stats_.failed;
          g_resp_failed.add(1.0);
        }
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(rs.mu);
    rs.resp = std::move(resp);
    rs.done = true;
  }
  rs.cv.notify_all();
}

}  // namespace conflux::serve
