// Solve-service concurrency proof (ISSUE 9): a deterministic multi-client
// harness over serve::SolveService asserting the service's four core
// contracts under real concurrent load:
//
//   1. determinism — every response a concurrent client receives is BITWISE
//      equal to the serial single-tenant golden for the same request (fixed
//      per-client seeds, no barriers: clients race freely and the answers
//      may not depend on the interleaving);
//   2. cache transparency — a cache-hit response is bitwise identical to
//      the cold-miss response for the same content, and eviction under a
//      tiny budget never corrupts an in-flight solve;
//   3. back-pressure and cancellation — a full priority class rejects at
//      admission with kAdmissionRejected, cancelling a queued request frees
//      its slot, and neither wedges the pool;
//   4. tenant isolation — with a fault site armed, only the tenant whose
//      request actually factors degrades; cached tenants keep their bitwise
//      goldens and the pool serves subsequent requests cleanly.
//
// The pool runs with 2 threads (pinned before first use) so lease handoff
// and executor contention are real, and small sizes keep the whole file
// ASan/UBSan-friendly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "tensor/example_problems.hpp"
#include "tensor/random_matrix.hpp"

namespace conflux {
namespace {

using serve::Method;
using serve::Precision;
using serve::Priority;
using serve::ServiceOptions;
using serve::SolveRequest;
using serve::SolveResponse;
using serve::SolveService;

// CONFLUX_POOL_THREADS is read once at the pool's first width() call; pin
// it before any test via a file-scope initializer (fault_injection_test
// idiom) so the lease serializes real multi-threaded masters.
const bool g_pool_env = [] {
  ::setenv("CONFLUX_POOL_THREADS", "2", /*overwrite=*/1);
  return true;
}();

ServiceOptions test_options(int threads, int queue_depth = 64) {
  ServiceOptions opt;
  opt.threads = threads;
  opt.queue_depth = queue_depth;
  opt.cache_words = 16.0 * 1024.0 * 1024.0;
  opt.factor.block_size = 16;
  return opt;
}

/// The deterministic request universe the clients draw from: a few
/// workload-shaped SPD matrices (usable by LU and Cholesky alike) in
/// several sizes, plus matching RHS panels.
struct Problem {
  MatrixD a;
  MatrixD b;
};

const std::vector<Problem>& problems() {
  static const std::vector<Problem> probs = [] {
    std::vector<Problem> out;
    const index_t sizes[] = {48, 64, 80};
    for (int i = 0; i < 3; ++i) {
      Problem p;
      p.a = kfac_kronecker_factor(sizes[i], /*seed=*/100 + i);
      p.b = random_matrix(sizes[i], 3, /*seed=*/200 + i);
      out.push_back(std::move(p));
    }
    return out;
  }();
  return probs;
}

SolveRequest make_request(int problem, Method method, Precision precision,
                          std::uint64_t tenant) {
  SolveRequest req;
  req.method = method;
  req.precision = precision;
  req.a = problems()[static_cast<std::size_t>(problem)].a.view();
  req.b = problems()[static_cast<std::size_t>(problem)].b.view();
  req.tenant = tenant;
  return req;
}

void expect_bitwise(const SolveResponse& got, const SolveResponse& golden,
                    const char* what) {
  ASSERT_TRUE(got.ok()) << what << ": " << got.status.to_string();
  ASSERT_TRUE(golden.ok()) << what << " golden: " << golden.status.to_string();
  ASSERT_EQ(got.key, golden.key) << what << ": cache keys must agree";
  ASSERT_EQ(got.x, golden.x) << what << ": responses must be bitwise equal";
}

// --------------------------------------------------------------------------
// 1. Concurrent clients vs serial goldens.
// --------------------------------------------------------------------------

TEST(ServeConcurrency, FourClientsMatchSerialGoldensBitwise) {
  const ServiceOptions opt = test_options(/*threads=*/4);

  // Request mix: every (problem, method, precision) combination the clients
  // can draw. Goldens computed serially, before any service exists.
  struct Combo {
    int problem;
    Method method;
    Precision precision;
  };
  std::vector<Combo> combos;
  for (int p = 0; p < 3; ++p) {
    combos.push_back({p, Method::kLu, Precision::kFp64});
    combos.push_back({p, Method::kCholesky, Precision::kFp64});
    combos.push_back({p, Method::kLu, Precision::kMixed});
    combos.push_back({p, Method::kCholesky, Precision::kMixed});
  }
  std::vector<SolveResponse> goldens;
  for (const Combo& c : combos) {
    goldens.push_back(SolveService::solve_serial(
        make_request(c.problem, c.method, c.precision, /*tenant=*/999), opt));
    ASSERT_TRUE(goldens.back().ok())
        << "serial golden " << goldens.back().status.to_string();
  }

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 9;
  SolveService service(opt);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  // Responses collected per client (fixed seeds, so each client's request
  // sequence is deterministic regardless of scheduling).
  std::vector<std::vector<std::pair<int, SolveResponse>>> received(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(7000 + c));  // per-client seed
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int pick = static_cast<int>(
            rng.uniform_int(static_cast<std::uint64_t>(combos.size())));
        const Combo& combo = combos[static_cast<std::size_t>(pick)];
        SolveRequest req = make_request(combo.problem, combo.method,
                                        combo.precision,
                                        static_cast<std::uint64_t>(c));
        req.priority = static_cast<Priority>(r % 3);
        SolveResponse resp = service.solve(req);
        if (!resp.ok()) failures.fetch_add(1);
        received[static_cast<std::size_t>(c)].emplace_back(pick,
                                                           std::move(resp));
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  for (int c = 0; c < kClients; ++c) {
    for (const auto& [pick, resp] : received[static_cast<std::size_t>(c)]) {
      expect_bitwise(resp, goldens[static_cast<std::size_t>(pick)],
                     "concurrent client response");
    }
  }

  // The mix repeats combos across clients, so the cache must have served
  // some of the traffic — and every hit above was bitwise-checked.
  const SolveService::Stats stats = service.stats();
  EXPECT_GT(stats.cache.hits, 0);
  EXPECT_GT(stats.cache.misses, 0);
  EXPECT_EQ(stats.failed, 0);
}

// --------------------------------------------------------------------------
// 2. Cache transparency.
// --------------------------------------------------------------------------

TEST(ServeCache, HitIsBitwiseIdenticalToColdMiss) {
  SolveService service(test_options(/*threads=*/1));
  const SolveRequest req =
      make_request(0, Method::kLu, Precision::kFp64, /*tenant=*/1);

  const SolveResponse cold = service.solve(req);
  ASSERT_TRUE(cold.ok()) << cold.status.to_string();
  EXPECT_FALSE(cold.cache_hit);

  const SolveResponse hot = service.solve(req);
  ASSERT_TRUE(hot.ok()) << hot.status.to_string();
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_EQ(hot.x, cold.x) << "cache hit must reproduce the cold solve bitwise";
  EXPECT_EQ(hot.key, cold.key);

  const SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache.misses, 1);
  EXPECT_EQ(stats.cache.hits, 1);
}

TEST(ServeCache, MixedPrecisionHitRefinesAgainstCachedFp32Factors) {
  SolveService service(test_options(/*threads=*/1));
  const SolveRequest req =
      make_request(1, Method::kCholesky, Precision::kMixed, /*tenant=*/2);

  const SolveResponse cold = service.solve(req);
  ASSERT_TRUE(cold.ok()) << cold.status.to_string();
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_FALSE(cold.fp64_fallback);
  EXPECT_LE(cold.backward_error, 1e-13);

  const SolveResponse hot = service.solve(req);
  ASSERT_TRUE(hot.ok()) << hot.status.to_string();
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_EQ(hot.ir_steps, cold.ir_steps);
  EXPECT_EQ(hot.x, cold.x)
      << "refinement against cached fp32 factors must be bitwise reproducible";
}

TEST(ServeCache, EvictionUnderPressureNeverCorruptsInFlightSolves) {
  // Budget fits roughly ONE factor handle, so every new content evicts the
  // previous tenant's entry while that tenant may still be mid-solve.
  ServiceOptions opt = test_options(/*threads=*/4);
  opt.cache_words = 7000.0;  // one 80x80 fp64 handle ~ 6.4k words

  std::vector<SolveResponse> goldens;
  for (int p = 0; p < 3; ++p) {
    goldens.push_back(SolveService::solve_serial(
        make_request(p, Method::kCholesky, Precision::kFp64, 0), opt));
    ASSERT_TRUE(goldens.back().ok());
  }

  SolveService service(opt);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 8; ++r) {
        const int p = (c + r) % 3;  // clients rotate out of phase
        const SolveResponse resp = service.solve(make_request(
            p, Method::kCholesky, Precision::kFp64,
            static_cast<std::uint64_t>(c)));
        ASSERT_TRUE(resp.ok()) << resp.status.to_string();
        ASSERT_EQ(resp.x, goldens[static_cast<std::size_t>(p)].x)
            << "eviction traffic corrupted a response";
      }
    });
  }
  for (auto& t : clients) t.join();

  const SolveService::Stats stats = service.stats();
  EXPECT_GT(stats.cache.evictions, 0)
      << "budget was meant to force eviction traffic";
  EXPECT_LE(stats.cache.resident_words, 7000.0);
}

// --------------------------------------------------------------------------
// 3. Admission, priority, cancellation.
// --------------------------------------------------------------------------

TEST(ServeAdmission, FullClassRejectsAndCancellationFreesTheSlot) {
  // One executor, one slot per class: the blocker (interactive class)
  // occupies the executor, then the normal class's single slot fills.
  ServiceOptions opt = test_options(/*threads=*/1, /*queue_depth=*/1);
  SolveService service(opt);

  const MatrixD big = kfac_kronecker_factor(384, /*seed=*/11);
  const MatrixD bigb = random_matrix(384, 2, /*seed=*/12);
  SolveRequest blocker;
  blocker.method = Method::kCholesky;
  blocker.priority = Priority::kInteractive;
  blocker.a = big.view();
  blocker.b = bigb.view();
  SolveService::Ticket blocker_ticket = service.submit(blocker);

  SolveRequest normal = make_request(0, Method::kLu, Precision::kFp64, 20);
  SolveService::Ticket queued = service.submit(normal);   // fills the slot
  SolveService::Ticket rejected = service.submit(normal); // class is full
  SolveResponse rejected_resp = service.wait(rejected);
  EXPECT_EQ(rejected_resp.status.code(), StatusCode::kAdmissionRejected);

  // Cancelling the queued request frees the slot immediately...
  EXPECT_TRUE(service.cancel(queued));
  SolveResponse cancelled_resp = service.wait(queued);
  EXPECT_EQ(cancelled_resp.status.code(), StatusCode::kCancelled);

  // ...so the same class admits again, and everything completes cleanly.
  SolveService::Ticket readmitted = service.submit(normal);
  const SolveResponse ok_resp = service.wait(readmitted);
  ASSERT_TRUE(ok_resp.ok()) << ok_resp.status.to_string();
  const SolveResponse blocker_resp = service.wait(blocker_ticket);
  ASSERT_TRUE(blocker_resp.ok()) << blocker_resp.status.to_string();

  const SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.admission_rejected, 1);
  EXPECT_EQ(stats.cancelled, 1);
}

TEST(ServeAdmission, InteractiveOvertakesBatchInTheQueue) {
  ServiceOptions opt = test_options(/*threads=*/1, /*queue_depth=*/4);
  SolveService service(opt);

  const MatrixD big = kfac_kronecker_factor(320, /*seed=*/13);
  SolveRequest blocker;
  blocker.method = Method::kCholesky;
  blocker.priority = Priority::kInteractive;
  blocker.a = big.view();
  SolveService::Ticket blocker_ticket = service.submit(blocker);

  SolveRequest batch = make_request(0, Method::kCholesky, Precision::kFp64, 30);
  batch.priority = Priority::kBatch;
  SolveRequest interactive =
      make_request(1, Method::kCholesky, Precision::kFp64, 31);
  interactive.priority = Priority::kInteractive;

  // Batch is submitted FIRST but must start after the interactive request:
  // its time-in-queue must cover the interactive request's queue + service.
  SolveService::Ticket batch_ticket = service.submit(batch);
  SolveService::Ticket inter_ticket = service.submit(interactive);
  const SolveResponse inter_resp = service.wait(inter_ticket);
  const SolveResponse batch_resp = service.wait(batch_ticket);
  ASSERT_TRUE(inter_resp.ok());
  ASSERT_TRUE(batch_resp.ok());
  EXPECT_GE(batch_resp.queue_s, inter_resp.queue_s + inter_resp.factor_s)
      << "batch request must not start before the interactive one finishes";
  (void)service.wait(blocker_ticket);
}

TEST(ServeAdmission, MalformedRequestIsClassifiedNotExecuted) {
  SolveService service(test_options(/*threads=*/1));
  const MatrixD rect = random_matrix(8, 6, 1);
  SolveRequest req;
  req.a = rect.view();
  const SolveResponse resp = service.solve(req);
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
}

TEST(ServeAdmission, FactorOnlyWarmupThenSolveHitsTheCache) {
  SolveService service(test_options(/*threads=*/1));
  SolveRequest warm = make_request(2, Method::kLu, Precision::kFp64, 40);
  warm.b = ConstViewD();  // nrhs = 0: factor-only warmup
  const SolveResponse warm_resp = service.solve(warm);
  ASSERT_TRUE(warm_resp.ok()) << warm_resp.status.to_string();
  EXPECT_EQ(warm_resp.x.cols(), 0);
  EXPECT_FALSE(warm_resp.cache_hit);

  const SolveResponse solved =
      service.solve(make_request(2, Method::kLu, Precision::kFp64, 40));
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved.cache_hit) << "the warmup must have populated the cache";
}

TEST(ServeAdmission, DestructionResolvesQueuedRequestsAsCancelled) {
  const MatrixD big = kfac_kronecker_factor(320, /*seed=*/14);
  SolveService::Ticket blocker_ticket;
  SolveService::Ticket queued;
  {
    SolveService service(test_options(/*threads=*/1, /*queue_depth=*/4));
    // Hold the only executor inside the blocker until the destructor has
    // set the stop flag, so the queued request can never be popped.
    std::promise<void> busy;
    std::future<void> executor_busy = busy.get_future();
    std::atomic<bool> first{true};
    service.set_execute_hook([&] {
      if (!first.exchange(false)) return;
      busy.set_value();
      while (!service.stopping()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    SolveRequest blocker;
    blocker.method = Method::kCholesky;
    blocker.a = big.view();
    blocker_ticket = service.submit(blocker);
    executor_busy.wait();
    queued = service.submit(make_request(0, Method::kLu, Precision::kFp64, 50));
    // Service destructs here: the blocker completes, the queued request
    // must resolve (as cancelled), and no waiter may wedge.
  }
  SolveService stub(test_options(1));  // unrelated service; tickets outlive theirs
  // wait() only touches the request state, which the ticket keeps alive.
  const SolveResponse blocker_resp = stub.wait(blocker_ticket);
  EXPECT_TRUE(blocker_resp.ok()) << blocker_resp.status.to_string();
  const SolveResponse resp = stub.wait(queued);
  EXPECT_EQ(resp.status.code(), StatusCode::kCancelled);
}

// --------------------------------------------------------------------------
// 4. Fault injection: the failing tenant is the only casualty.
// --------------------------------------------------------------------------

TEST(ServeFaults, InjectedTenantDegradesAloneAndServiceRecovers) {
  const ServiceOptions opt = test_options(/*threads=*/2);

  // Tenants B, C, D: goldens + a warm cache, faults off.
  std::vector<SolveResponse> goldens;
  for (int p = 0; p < 3; ++p) {
    goldens.push_back(SolveService::solve_serial(
        make_request(p, Method::kCholesky, Precision::kFp64, 0), opt));
    ASSERT_TRUE(goldens.back().ok());
  }
  SolveService service(opt);
  for (int p = 0; p < 3; ++p) {
    const SolveResponse warm = service.solve(
        make_request(p, Method::kCholesky, Precision::kFp64, 60));
    ASSERT_TRUE(warm.ok()) << warm.status.to_string();
  }

  // Tenant A's matrix is new content: serving it must factor, and with the
  // panel-nan site at rate 1 that factorization MUST fail classified.
  const MatrixD fresh = kfac_kronecker_factor(64, /*seed=*/999);
  SolveRequest doomed;
  doomed.method = Method::kCholesky;
  doomed.a = fresh.view();
  doomed.tenant = 666;
  {
    fault::Config cfg;
    cfg.seed = 1;
    cfg.rate = 1.0;
    cfg.site_mask = 1u << static_cast<int>(fault::Site::kPanelNaN);
    fault::ScopedConfig scoped(cfg);

    std::thread attacker([&] {
      const SolveResponse resp = service.solve(doomed);
      EXPECT_FALSE(resp.ok()) << "armed panel-nan must fail the cold factor";
      EXPECT_EQ(resp.status.code(), StatusCode::kNonFinite)
          << resp.status.to_string();
      EXPECT_EQ(resp.x.rows(), 0) << "a failed factor yields no solution";
    });
    // Concurrently, the cached tenants keep their bitwise goldens: their
    // requests never factor, so the armed site cannot touch them.
    std::vector<std::thread> bystanders;
    for (int p = 0; p < 3; ++p) {
      bystanders.emplace_back([&, p] {
        for (int r = 0; r < 4; ++r) {
          const SolveResponse resp = service.solve(
              make_request(p, Method::kCholesky, Precision::kFp64, 60));
          ASSERT_TRUE(resp.ok()) << resp.status.to_string();
          ASSERT_TRUE(resp.cache_hit);
          ASSERT_EQ(resp.x, goldens[static_cast<std::size_t>(p)].x)
              << "a bystander tenant's response changed under injection";
        }
      });
    }
    attacker.join();
    for (auto& t : bystanders) t.join();
  }

  // Faults disarmed: the pool and service must serve tenant A's content
  // cleanly — the earlier failure poisoned nothing.
  const SolveResponse after = service.solve(doomed);
  ASSERT_TRUE(after.ok()) << after.status.to_string();
  const SolveResponse after_golden = SolveService::solve_serial(doomed, opt);
  EXPECT_EQ(after.x, after_golden.x);

  const SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.failed, 1);  // tenant A's injected request, nothing else
}

}  // namespace
}  // namespace conflux
