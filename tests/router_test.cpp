// router_test.cpp — the sharded replica router: deterministic least-loaded
// dispatch, per-tenant admission (token bucket + weighted fair in-flight
// shares), replica-kill failover with zero lost futures, deadline-aware
// retries that never extend the original deadline, health-probe heal, and
// the fully-dark-fleet degraded path. Faults are scheduled through
// fault::ReplicaPlan (replica-scoped, keyed on ServerConfig::fault_domain)
// so the same replicas die at the same dispatches on every run — this
// binary runs directly under the CI ThreadSanitizer job with
// TSDX_LOCK_ORDER=1.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/extractor.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sdl/description.hpp"
#include "serve/admission.hpp"
#include "serve/error.hpp"
#include "serve/fallback.hpp"
#include "serve/fault/inject.hpp"
#include "serve/router.hpp"
#include "sim/clipgen.hpp"

namespace core = tsdx::core;
namespace obs = tsdx::obs;
namespace sdl = tsdx::sdl;
namespace serve = tsdx::serve;
namespace fault = tsdx::serve::fault;
namespace sim = tsdx::sim;

using Clock = serve::Router::Clock;

namespace {

core::ModelConfig micro_config() {
  core::ModelConfig cfg;
  cfg.frames = 2;
  cfg.image_size = 8;
  cfg.patch_size = 4;
  cfg.tubelet_frames = 1;
  cfg.dim = 8;
  cfg.depth = 1;
  cfg.heads = 2;
  cfg.attention = core::AttentionKind::kDividedST;
  return cfg;
}

std::shared_ptr<core::ScenarioExtractor> make_frozen_extractor(
    std::uint64_t seed = 7) {
  auto extractor =
      std::make_shared<core::ScenarioExtractor>(micro_config(), seed);
  extractor->freeze();
  return extractor;
}

std::vector<sim::VideoClip> make_clips(std::size_t count,
                                       std::uint64_t seed = 11) {
  const core::ModelConfig cfg = micro_config();
  sim::RenderConfig render;
  render.height = render.width = cfg.image_size;
  render.frames = cfg.frames;
  sim::ClipGenerator gen(render, seed);
  std::vector<sim::VideoClip> clips;
  clips.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    clips.push_back(gen.generate().video);
  }
  return clips;
}

std::shared_ptr<serve::MajorityFallback> make_fallback() {
  sdl::SlotLabels labels{};
  std::array<float, sdl::kNumSlots> confidence{};
  confidence.fill(1.0f);
  return std::make_shared<serve::MajorityFallback>(labels, confidence);
}

bool is_degraded(const core::ExtractionResult& result) {
  return !result.warnings.empty() &&
         result.warnings.front() == serve::kDegradedWarning;
}

/// Replicas of one worker, batches of one: each replica's extract dispatch
/// N is exactly its Nth request, so ReplicaPlan call indices map 1:1 to
/// per-replica requests.
serve::RouterConfig sequential_router(std::size_t replicas) {
  serve::RouterConfig cfg;
  cfg.replicas = replicas;
  cfg.server.workers = 1;
  cfg.server.max_batch = 1;
  cfg.server.queue_capacity = 8;
  cfg.metrics = std::make_shared<obs::Registry>();
  return cfg;
}

/// Poll `counter` until it reads `value` (5 s cap); false on timeout.
bool await_count(obs::Counter& counter, std::uint64_t value) {
  const auto give_up = Clock::now() + std::chrono::seconds(5);
  while (counter.value() < value && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return counter.value() >= value;
}

/// Inline-mode fleet: workers = 0, so nothing resolves until drain() — the
/// router's view of per-replica load is frozen between submits, which makes
/// the least-loaded pick sequence exactly reproducible.
serve::RouterConfig inline_router(std::size_t replicas) {
  serve::RouterConfig cfg = sequential_router(replicas);
  cfg.server.workers = 0;
  return cfg;
}

}  // namespace

// ---- dispatch policy ------------------------------------------------------------

// With workers = 0 no request resolves between submits, so the least-loaded
// pick is a pure function of the queue the previous submits built: equal
// load ties break to the lowest index, and each dispatch alternates the
// fleet deterministically.
TEST(RouterTest, LeastLoadedDispatchAlternatesDeterministically) {
  serve::Router router(make_frozen_extractor(), inline_router(2));
  const auto clips = make_clips(6);

  std::vector<std::future<core::ExtractionResult>> futures;
  for (const auto& clip : clips) futures.push_back(router.submit(clip));

  // Submits 1,3,5 land on replica0 (ties -> lowest index), 2,4,6 on
  // replica1 (strictly less loaded after each odd submit).
  auto& registry = router.metrics_registry();
  EXPECT_EQ(registry.counter("route.replica_dispatched.0").value(), 3u);
  EXPECT_EQ(registry.counter("route.replica_dispatched.1").value(), 3u);

  router.drain();
  for (auto& future : futures) EXPECT_FALSE(is_degraded(future.get()));
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.pending, 0u);
}

// Plain happy path through live workers, with the route.* series visible in
// both metric exports.
TEST(RouterTest, HealthyFleetServesPrimaryAnswers) {
  serve::Router router(make_frozen_extractor(), sequential_router(2));
  const auto clips = make_clips(4);

  std::vector<std::future<core::ExtractionResult>> futures;
  for (const auto& clip : clips) futures.push_back(router.submit(clip));
  for (auto& future : futures) EXPECT_FALSE(is_degraded(future.get()));
  router.drain();

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.replica_states.size(), 2u);
  EXPECT_NE(router.metrics_json().find("route.completed"), std::string::npos);
  EXPECT_NE(router.metrics_text().find("route_completed 4"),
            std::string::npos);
}

// ---- admission control ----------------------------------------------------------

// Weighted fair in-flight shares: once the fleet is congested
// (congestion_window in flight), tenant A (weight 3) keeps 3 of 4 slots and
// tenant B (weight 1) keeps 1 — further submits from either are rejected
// with a typed error and counted per tenant, without touching any queue.
TEST(RouterTest, CongestedFleetEnforcesWeightedFairShares) {
  serve::RouterConfig cfg = inline_router(1);
  cfg.admission.congestion_window = 4;
  cfg.admission.tenants = {{"A", 3.0}, {"B", 1.0}};
  serve::Router router(make_frozen_extractor(), cfg);
  const auto clips = make_clips(1);

  std::vector<std::future<core::ExtractionResult>> futures;
  futures.push_back(router.submit(clips[0], std::nullopt, "A"));
  futures.push_back(router.submit(clips[0], std::nullopt, "A"));
  futures.push_back(router.submit(clips[0], std::nullopt, "A"));
  futures.push_back(router.submit(clips[0], std::nullopt, "B"));

  // 4 in flight = the congestion window: both tenants sit at their caps.
  EXPECT_THROW(router.submit(clips[0], std::nullopt, "A"),
               serve::AdmissionRejectedError);
  EXPECT_THROW(router.submit(clips[0], std::nullopt, "B"),
               serve::AdmissionRejectedError);

  EXPECT_EQ(router.admission().tenant_admitted("A"), 3u);
  EXPECT_EQ(router.admission().tenant_rejected("A"), 1u);
  EXPECT_EQ(router.admission().tenant_admitted("B"), 1u);
  EXPECT_EQ(router.admission().tenant_rejected("B"), 1u);

  router.drain();
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.completed, 4u);
}

// Token buckets with caller-supplied clocks: the aggregate refill is split
// by weight (A:4x over B), bursts are bounded by the bucket depth, and the
// refill after exactly 0.5 s restores exactly rate x 0.5 tokens.
TEST(RouterTest, TokenBucketSplitsAggregateRateByWeight) {
  obs::Registry registry;
  serve::AdmissionConfig cfg;
  cfg.aggregate_rate_per_s = 10.0;
  cfg.burst_seconds = 0.5;
  cfg.tenants = {{"A", 4.0}, {"B", 1.0}};
  serve::AdmissionController admission(cfg, registry);

  const auto t0 = Clock::now();
  // A: rate 8/s, depth 4. B: rate 2/s, depth max(1, 1) = 1.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(admission.admit("A", t0), serve::AdmitVerdict::kAdmitted);
  }
  EXPECT_EQ(admission.admit("A", t0), serve::AdmitVerdict::kRateLimited);
  EXPECT_EQ(admission.admit("B", t0), serve::AdmitVerdict::kAdmitted);
  EXPECT_EQ(admission.admit("B", t0), serve::AdmitVerdict::kRateLimited);

  const auto t1 = t0 + std::chrono::milliseconds(500);
  // Refill: A earns 8 x 0.5 = 4 tokens, B earns 2 x 0.5 = 1.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(admission.admit("A", t1), serve::AdmitVerdict::kAdmitted);
  }
  EXPECT_EQ(admission.admit("A", t1), serve::AdmitVerdict::kRateLimited);
  EXPECT_EQ(admission.admit("B", t1), serve::AdmitVerdict::kAdmitted);
  EXPECT_EQ(admission.admit("B", t1), serve::AdmitVerdict::kRateLimited);

  EXPECT_EQ(admission.admitted(), 10u);
  EXPECT_EQ(admission.rejected(), 4u);
  EXPECT_EQ(admission.in_flight(), 10u);
  for (int i = 0; i < 6; ++i) admission.on_done("A");
  for (int i = 0; i < 2; ++i) admission.on_done("B");
  EXPECT_EQ(admission.in_flight(), 2u);
}

// Tenants need no pre-registration: an unknown tenant is admitted at
// default_weight, and its arrival renormalizes everyone's share of the
// aggregate refill.
TEST(RouterTest, UnknownTenantsGetDefaultWeightAndRenormalizeRates) {
  obs::Registry registry;
  serve::AdmissionConfig cfg;
  cfg.aggregate_rate_per_s = 6.0;
  cfg.burst_seconds = 1.0;
  serve::AdmissionController admission(cfg, registry);

  const auto t0 = Clock::now();
  // Alone, tenant x owns the whole 6/s budget: bucket depth 6.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(admission.admit("x", t0), serve::AdmitVerdict::kAdmitted);
  }
  EXPECT_EQ(admission.admit("x", t0), serve::AdmitVerdict::kRateLimited);

  // Tenant y appears (default weight): the budget now splits 3/s each.
  EXPECT_EQ(admission.admit("y", t0), serve::AdmitVerdict::kAdmitted);

  const auto t1 = t0 + std::chrono::seconds(1);
  // x refills at its renormalized 3/s and its depth shrank to 3.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(admission.admit("x", t1), serve::AdmitVerdict::kAdmitted);
  }
  EXPECT_EQ(admission.admit("x", t1), serve::AdmitVerdict::kRateLimited);
}

// ---- failover & retries ---------------------------------------------------------

// A replica-scoped kill plan murders replica0's every dispatch: the first
// attempt fails there, the retry spends a budget token, backs off, and fails
// over to replica1 — one retry, one failover, zero lost requests.
TEST(RouterTest, ReplicaKillFailsOverToHealthySibling) {
  serve::Router router(make_frozen_extractor(), sequential_router(2));
  const auto clips = make_clips(1);

  fault::FaultPlan plan;
  plan.replica_plans = {{/*domain=*/0, /*kill_from_call=*/1, {}, {}}};
  fault::ScopedFaultPlan armed(plan);

  // Both replicas idle -> the tie-break targets replica0 first.
  auto future = router.submit(clips[0]);
  EXPECT_FALSE(is_degraded(future.get()));
  router.drain();

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failovers, 1u);
  auto& registry = router.metrics_registry();
  EXPECT_EQ(registry.counter("route.replica_failures.0").value(), 1u);
  EXPECT_EQ(registry.counter("route.retries").value(), 1u);
}

// Deadline propagation through retries: the retried request keeps the
// ORIGINAL submit_within deadline. When the remaining budget cannot cover
// backoff + retry_cost_floor, the router fails fast with
// DeadlineExceededError instead of burning a doomed attempt.
TEST(RouterTest, InsufficientDeadlineBudgetFailsFastWithoutRetry) {
  serve::RouterConfig cfg = sequential_router(2);
  cfg.retry_backoff = std::chrono::microseconds(50000);      // 50 ms
  cfg.retry_backoff_cap = std::chrono::microseconds(50000);
  cfg.retry_cost_floor = std::chrono::microseconds(10000);   // 10 ms
  serve::Router router(make_frozen_extractor(), cfg);
  const auto clips = make_clips(1);

  fault::FaultPlan plan;
  plan.replica_plans = {{/*domain=*/0, /*kill_from_call=*/1, {}, {}},
                        {/*domain=*/1, /*kill_from_call=*/1, {}, {}}};
  fault::ScopedFaultPlan armed(plan);

  // 20 ms of budget can never fit a >= 25 ms backoff + 10 ms floor: after
  // the first attempt fails, the router must fail fast — with the deadline
  // error, not the injected fault — and never extend the deadline.
  auto future =
      router.submit_within(clips[0], std::chrono::milliseconds(20));
  EXPECT_THROW(future.get(), serve::DeadlineExceededError);
  router.drain();

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

// A replica that stalls mid-extract past the deadline + grace is abandoned:
// the request fails with DeadlineExceededError at roughly the deadline (not
// after the full stall), and the stall is charged to the replica's failure
// streak.
TEST(RouterTest, WedgedReplicaIsAbandonedAtTheDeadline) {
  serve::Router router(make_frozen_extractor(), sequential_router(1));
  const auto clips = make_clips(1);

  fault::FaultPlan plan;
  fault::ReplicaPlan wedge;
  wedge.domain = 0;
  wedge.stall_on_calls = {1};
  wedge.stall = std::chrono::microseconds(200000);  // 200 ms
  plan.replica_plans = {wedge};
  fault::ScopedFaultPlan armed(plan);

  const auto start = Clock::now();
  auto future = router.submit_within(clips[0], std::chrono::milliseconds(20));
  EXPECT_THROW(future.get(), serve::DeadlineExceededError);
  const auto elapsed = Clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(150));  // not the full stall

  router.drain();  // waits out the stalled batch inside the replica
  auto& registry = router.metrics_registry();
  EXPECT_EQ(registry.counter("route.replica_failures.0").value(), 1u);
  EXPECT_EQ(router.stats().failed, 1u);
}

// A clip of the wrong geometry is the caller's error, not a shard fault:
// each fails alone with std::invalid_argument, unretried and without a
// retry-storm anomaly, and every replica stays UP — so the next well-formed
// clip is answered by the fleet.
TEST(RouterTest, MalformedClipFailsAloneAndLeavesTheFleetUp) {
  serve::Router router(make_frozen_extractor(), sequential_router(2));
  const auto clips = make_clips(1);
  obs::Counter& storms =
      obs::Registry::global().counter("slo.anomalies.retry_storm");
  const std::uint64_t storms_before = storms.value();

  for (int i = 0; i < 2; ++i) {
    sim::VideoClip malformed = clips[0];
    malformed.data.pop_back();  // one value short
    auto future = router.submit(std::move(malformed));
    EXPECT_THROW(future.get(), std::invalid_argument);
  }
  EXPECT_EQ(router.replica_state(0), serve::ReplicaState::kUp);
  EXPECT_EQ(router.replica_state(1), serve::ReplicaState::kUp);
  EXPECT_FALSE(is_degraded(router.submit(clips[0]).get()));
  router.drain();

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.retries, 0u);
  auto& registry = router.metrics_registry();
  EXPECT_EQ(registry.counter("route.replica_failures.0").value(), 0u);
  EXPECT_EQ(registry.counter("route.replica_failures.1").value(), 0u);
  EXPECT_EQ(storms.value(), storms_before);
}

// A request backing off after a replica fault holds no thread: another
// request, answered by the healthy replica meanwhile, resolves at once —
// not after the first request's backoff. A and B fail on replica0 (which
// then goes DOWN) and wait out 200-400 ms backoffs; C goes to replica1.
TEST(RouterTest, HealthyAnswerDoesNotWaitBehindAnotherRequestsBackoff) {
  serve::RouterConfig cfg = sequential_router(2);
  cfg.retry_backoff = std::chrono::microseconds(400000);
  cfg.retry_backoff_cap = std::chrono::microseconds(400000);
  cfg.down_after_failures = 2;
  cfg.heal_backoff = std::chrono::seconds(30);  // no passive heal mid-test
  serve::Router router(make_frozen_extractor(), cfg);
  const auto clips = make_clips(1);
  obs::Counter& failures =
      router.metrics_registry().counter("route.replica_failures.0");

  fault::FaultPlan plan;
  plan.replica_plans = {{/*domain=*/0, /*kill_from_call=*/1, {}, {}}};
  fault::ScopedFaultPlan armed(plan);

  // Both replicas idle: A, then B, go to replica0 by the index tie-break.
  auto a = router.submit(clips[0]);
  ASSERT_TRUE(await_count(failures, 1));
  auto b = router.submit(clips[0]);
  ASSERT_TRUE(await_count(failures, 2));
  ASSERT_EQ(router.replica_state(0), serve::ReplicaState::kDown);

  auto c = router.submit(clips[0]);
  EXPECT_FALSE(is_degraded(c.get()));
  EXPECT_NE(a.wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "C resolved only after A's backoff";

  EXPECT_NO_THROW(a.get());
  EXPECT_NO_THROW(b.get());
  router.drain();
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.failovers, 2u);
}

// Mid-stream replica death under concurrent load: replica0 hard-dies after
// its 2nd dispatch; every one of the 12 requests must still resolve exactly
// once, successfully, via retry + failover, and replica0 must end DOWN.
TEST(RouterTest, MidStreamReplicaDeathLosesNothing) {
  serve::RouterConfig cfg = sequential_router(2);
  cfg.retry_budget_floor = 16.0;  // ample: this test is about failover
  cfg.down_after_failures = 3;
  cfg.heal_backoff = std::chrono::seconds(30);  // no passive heal mid-test
  serve::Router router(make_frozen_extractor(), cfg);
  const auto clips = make_clips(1);

  fault::FaultPlan plan;
  plan.replica_plans = {{/*domain=*/0, /*kill_from_call=*/3, {}, {}}};
  fault::ScopedFaultPlan armed(plan);

  std::vector<std::future<core::ExtractionResult>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(router.submit(clips[0]));
  std::size_t ok = 0;
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
    ++ok;
  }
  router.drain();

  EXPECT_EQ(ok, 12u);
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(router.replica_state(0), serve::ReplicaState::kDown);
  EXPECT_EQ(router.replica_state(1), serve::ReplicaState::kUp);
}

// ---- fleet-dark degradation -----------------------------------------------------

// Every replica killed + a fleet fallback: the router answers degraded
// (kDegradedWarning) instead of failing — robustness floor intact.
TEST(RouterTest, FullyDarkFleetDegradesToFallback) {
  serve::RouterConfig cfg = sequential_router(2);
  cfg.fallback = make_fallback();
  serve::Router router(make_frozen_extractor(), cfg);
  const auto clips = make_clips(1);

  router.kill_replica(0);
  router.kill_replica(1);
  EXPECT_EQ(router.replica_state(0), serve::ReplicaState::kDown);
  EXPECT_EQ(router.replica_state(1), serve::ReplicaState::kDown);

  const core::ExtractionResult result = router.submit(clips[0]).get();
  EXPECT_TRUE(is_degraded(result));
  router.drain();

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

// The same dark fleet without a fallback fails typed: the caller can tell
// "the fleet is gone" from every other failure mode.
TEST(RouterTest, FullyDarkFleetWithoutFallbackFailsTyped) {
  serve::Router router(make_frozen_extractor(), sequential_router(2));
  const auto clips = make_clips(1);

  router.kill_replica(0);
  router.kill_replica(1);
  auto future = router.submit(clips[0]);
  EXPECT_THROW(future.get(), serve::NoReplicaAvailableError);
  router.drain();
  EXPECT_EQ(router.stats().failed, 1u);
}

// kill + revive round trip: traffic steers away from the killed replica and
// returns to it after revive (ties break back to index 0).
TEST(RouterTest, ReviveRestoresKilledReplicaToRotation) {
  serve::Router router(make_frozen_extractor(), sequential_router(2));
  const auto clips = make_clips(1);
  auto& registry = router.metrics_registry();

  EXPECT_NO_THROW(router.submit(clips[0]).get());  // idle tie -> replica0
  EXPECT_EQ(registry.counter("route.replica_dispatched.0").value(), 1u);

  router.kill_replica(0);
  EXPECT_NO_THROW(router.submit(clips[0]).get());  // only replica1 remains
  EXPECT_EQ(registry.counter("route.replica_dispatched.1").value(), 1u);

  router.revive_replica(0);
  EXPECT_EQ(router.replica_state(0), serve::ReplicaState::kUp);
  EXPECT_NO_THROW(router.submit(clips[0]).get());  // idle tie -> replica0
  EXPECT_EQ(registry.counter("route.replica_dispatched.0").value(), 2u);
  router.drain();
  EXPECT_EQ(router.stats().completed, 3u);
}

// ---- health probes --------------------------------------------------------------

// A replica demoted DOWN by a fault streak is readmitted by an active heal
// probe once the fault script is disarmed — and serves primary traffic
// again.
TEST(RouterTest, HealthProbeReadmitsRecoveredReplica) {
  serve::RouterConfig cfg = sequential_router(2);
  cfg.down_after_failures = 3;
  cfg.probe_interval = std::chrono::milliseconds(10);
  cfg.probe_clip = make_clips(1, /*seed=*/23)[0];
  cfg.retry_budget_floor = 16.0;
  serve::Router router(make_frozen_extractor(), cfg);
  const auto clips = make_clips(1);

  {
    fault::FaultPlan plan;
    plan.replica_plans = {{/*domain=*/0, /*kill_from_call=*/1, {}, {}}};
    fault::ScopedFaultPlan armed(plan);
    // Three sequential requests: each first targets idle replica0, fails
    // there (streak 1..3), and fails over to replica1.
    for (int i = 0; i < 3; ++i) {
      EXPECT_NO_THROW(router.submit(clips[0]).get());
    }
    EXPECT_EQ(router.replica_state(0), serve::ReplicaState::kDown);
  }  // plan disarmed: replica0's server is healthy again

  // The probe thread submits probe_clip to the DOWN replica and marks it UP
  // on success. Bounded wait: 10 ms cadence, give it 5 s of slack.
  const auto give_up = Clock::now() + std::chrono::seconds(5);
  while (router.replica_state(0) != serve::ReplicaState::kUp &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(router.replica_state(0), serve::ReplicaState::kUp);

  EXPECT_NO_THROW(router.submit(clips[0]).get());
  router.drain();
  EXPECT_EQ(router.stats().failed, 0u);
}

// ---- accounting agreement --------------------------------------------------------

// Every route.* count derives from the ticket's own flight record, as every
// serve.* count derives from the replica request's: over a seeded mix of
// completions, failovers, retry-exhausted failures, deadline expiries and
// admission rejections, the router records, the route.* counters and
// RouterStats agree, and the replicas' records agree with the serve.*
// counters of the registry they share.
TEST(RouterTest, RecordsCountersAndStatsAgree) {
  using Outcome = obs::Recorder::Outcome;
  serve::RouterConfig cfg = sequential_router(2);
  cfg.max_attempts = 2;
  cfg.retry_budget_floor = 16.0;
  cfg.retry_backoff = std::chrono::microseconds(100);
  cfg.heal_backoff = std::chrono::seconds(30);  // no passive heal mid-test
  cfg.admission.aggregate_rate_per_s = 1.0;
  cfg.admission.burst_seconds = 16.0;  // 16 tokens, then ~1 per second
  serve::Router router(make_frozen_extractor(), cfg);
  const auto clips = make_clips(2);
  obs::Recorder::global().clear();

  // Replica0 dies from its 3rd dispatch, replica1 from its 8th: together
  // they can answer at most 9 requests, so the rest fail over and then
  // fail.
  fault::FaultPlan plan;
  plan.replica_plans = {{/*domain=*/0, /*kill_from_call=*/3, {}, {}},
                        {/*domain=*/1, /*kill_from_call=*/8, {}, {}}};
  fault::ScopedFaultPlan armed(plan);
  std::mt19937_64 rng(20241017);
  std::vector<std::future<core::ExtractionResult>> futures;
  for (std::size_t i = 0; i < 20; ++i) {
    std::optional<Clock::time_point> deadline;
    if (rng() % 4 == 0) deadline = Clock::now() - std::chrono::milliseconds(1);
    try {
      futures.push_back(router.submit(clips[i % clips.size()], deadline));
    } catch (const serve::AdmissionRejectedError&) {
      // counted by admission as route.shed
    }
  }
  for (auto& future : futures) future.wait();
  router.drain();

  std::map<Outcome, std::uint64_t> routed;
  std::map<Outcome, std::uint64_t> served;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  for (const obs::Recorder::Record& r : obs::Recorder::global().snapshot()) {
    if (r.kind == obs::Recorder::Kind::kRouter) {
      ++routed[r.outcome];
      retries += r.attempts;
      failovers += r.failovers;
    } else {
      ++served[r.outcome];
    }
  }
  auto& registry = router.metrics_registry();
  const auto counter = [&](const char* name) {
    return registry.counter(name).value();
  };
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(routed[Outcome::kInFlight], 0u);
  EXPECT_EQ(served[Outcome::kInFlight], 0u);

  const std::uint64_t completed =
      routed[Outcome::kCompleted] + routed[Outcome::kDegraded];
  const std::uint64_t failed = routed[Outcome::kFailed] +
                               routed[Outcome::kDeadlineExpired] +
                               routed[Outcome::kCancelled];
  EXPECT_EQ(counter("route.completed"), completed);
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(counter("route.degraded"), routed[Outcome::kDegraded]);
  EXPECT_EQ(stats.degraded, routed[Outcome::kDegraded]);
  EXPECT_EQ(counter("route.failed"), failed);
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(counter("route.retries"), retries);
  EXPECT_EQ(stats.retries, retries);
  EXPECT_EQ(counter("route.failovers"), failovers);
  EXPECT_EQ(stats.failovers, failovers);
  EXPECT_EQ(stats.shed, routed[Outcome::kRejected]);
  EXPECT_EQ(stats.admitted, completed + failed);
  EXPECT_EQ(stats.pending, 0u);

  EXPECT_EQ(counter("serve.completed"),
            served[Outcome::kCompleted] + served[Outcome::kDegraded]);
  EXPECT_EQ(counter("serve.failed"), served[Outcome::kFailed]);
  EXPECT_EQ(counter("serve.deadline_expired"),
            served[Outcome::kDeadlineExpired]);
  EXPECT_EQ(counter("serve.shed"), served[Outcome::kShed]);
  EXPECT_EQ(counter("serve.cancelled"), served[Outcome::kCancelled]);
  EXPECT_EQ(counter("serve.rejected"), served[Outcome::kRejected]);

  // The seeded mix exercised each router outcome it aimed at.
  EXPECT_GT(routed[Outcome::kCompleted], 0u);
  EXPECT_GT(routed[Outcome::kFailed], 0u);
  EXPECT_GT(routed[Outcome::kDeadlineExpired], 0u);
  EXPECT_GT(routed[Outcome::kRejected], 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(failovers, 0u);
}
