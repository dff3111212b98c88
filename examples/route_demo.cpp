// route_demo — scaling the extractor service out: a Router fronting three
// InferenceServer replicas with per-tenant admission control, least-loaded
// dispatch, health-probe failover and deadline-aware retries. The demo
// scripts the full operational arc (DESIGN.md §15 "Router & admission
// control"):
//
//   1. two tenants with different fair-share weights stream requests
//      through the healthy fleet;
//   2. replica 1 is hard-killed mid-stream (a fault plan fails every
//      dispatch it takes from then on) — its requests are retried on its
//      siblings, no request is lost;
//   3. the replica is revived and rejoins the rotation;
//   4. the route.* metrics surface is dumped as JSON.
//
// The demo exits 1 unless phase 2 retried and failed over at least once and
// failed nothing.
//
// Flags:
//   --smoke   smaller model and request counts, for CI (seconds).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "obs/metrics.hpp"
#include "sdl/description.hpp"
#include "serve/fallback.hpp"
#include "serve/fault/inject.hpp"
#include "serve/router.hpp"
#include "serve/thread_pool.hpp"
#include "sim/clipgen.hpp"

namespace core = tsdx::core;
namespace obs = tsdx::obs;
namespace sdl = tsdx::sdl;
namespace serve = tsdx::serve;
namespace fault = tsdx::serve::fault;
namespace sim = tsdx::sim;

namespace {

struct TenantScript {
  const char* name;
  std::size_t requests;
};

void print_fleet(serve::Router& router) {
  const serve::RouterStats stats = router.stats();
  std::printf("  fleet:");
  for (std::size_t i = 0; i < stats.replica_states.size(); ++i) {
    std::printf(" replica%zu=%s", i,
                serve::to_string(stats.replica_states[i]));
  }
  std::printf("  (completed=%llu failed=%llu degraded=%llu retries=%llu "
              "failovers=%llu)\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.degraded),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.failovers));
}

/// Each tenant streams its requests from its own producer thread; every
/// future is consumed so nothing resolves silently.
void stream(serve::Router& router, const std::vector<sim::VideoClip>& clips,
            const std::vector<TenantScript>& tenants) {
  serve::ThreadPool::run(tenants.size(), [&](std::size_t t) {
    std::size_t rejected = 0;
    std::vector<std::future<core::ExtractionResult>> futures;
    for (std::size_t i = 0; i < tenants[t].requests; ++i) {
      try {
        futures.push_back(router.submit_within(
            clips[i % clips.size()], std::chrono::milliseconds(500),
            tenants[t].name));
      } catch (const serve::AdmissionRejectedError&) {
        ++rejected;  // over rate or fair share — visible in route.shed
      }
    }
    for (auto& future : futures) {
      try {
        static_cast<void>(future.get());
      } catch (const std::exception&) {
        // expired or exhausted retries — classified by route.failed.
      }
    }
    static_cast<void>(rejected);
  });
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  // A frozen random-init extractor: routing behaviour is independent of
  // model quality, so the demo skips training (see examples/quickstart.cpp
  // for the training walkthrough).
  sim::RenderConfig render;
  render.height = render.width = smoke ? 16 : 32;
  render.frames = smoke ? 4 : 8;
  core::ModelConfig mc;
  mc.frames = render.frames;
  mc.image_size = render.height;
  mc.patch_size = 8;
  mc.dim = smoke ? 16 : 32;
  mc.depth = 2;
  mc.heads = 4;
  mc.attention = core::AttentionKind::kDividedST;
  auto extractor = std::make_shared<core::ScenarioExtractor>(mc, 7);
  extractor->freeze();

  sim::ClipGenerator gen(render, 11);
  std::vector<sim::VideoClip> clips;
  for (int i = 0; i < 8; ++i) clips.push_back(gen.generate().video);

  // The fleet: 3 replicas, and two tenants — "interactive" owns 3x the
  // fair share of "batch", which matters once the fleet is congested.
  sdl::SlotLabels labels{};
  std::array<float, sdl::kNumSlots> confidence{};
  confidence.fill(1.0f);

  serve::RouterConfig rc;
  rc.replicas = 3;
  rc.server.workers = 1;
  rc.server.max_batch = 4;
  rc.server.queue_capacity = 16;
  rc.admission.congestion_window = 24;
  rc.admission.tenants = {{"interactive", 3.0}, {"batch", 1.0}};
  rc.fallback = std::make_shared<serve::MajorityFallback>(labels, confidence);
  rc.retry_budget_floor = 16.0;
  rc.metrics = std::make_shared<obs::Registry>();
  serve::Router router(extractor, rc);

  const std::size_t per_tenant = smoke ? 12 : 40;
  const std::vector<TenantScript> tenants = {{"interactive", per_tenant},
                                             {"batch", per_tenant}};

  std::printf("== phase 1: healthy fleet, two tenants (weights 3:1) ==\n");
  stream(router, clips, tenants);
  print_fleet(router);
  auto& registry = router.metrics_registry();
  for (const char* tenant : {"interactive", "batch"}) {
    std::printf("  tenant %-12s admitted=%llu rejected=%llu\n", tenant,
                static_cast<unsigned long long>(
                    router.admission().tenant_admitted(tenant)),
                static_cast<unsigned long long>(
                    router.admission().tenant_rejected(tenant)));
  }
  for (std::size_t i = 0; i < router.replica_count(); ++i) {
    std::printf("  replica%zu dispatched=%llu\n", i,
                static_cast<unsigned long long>(
                    registry
                        .counter("route.replica_dispatched." +
                                 std::to_string(i))
                        .value()));
  }

  std::printf("\n== phase 2: replica 1 killed; traffic fails over ==\n");
  const serve::RouterStats before_kill = router.stats();
  serve::RouterStats after_kill;
  {
    // Hard-down from replica 1's next dispatch on (arming restarts the
    // per-domain dispatch count, so the next one is #1): requests already
    // routed to it fail there and are retried on its siblings.
    fault::ReplicaPlan kill;
    kill.domain = 1;
    kill.kill_from_call = 1;
    fault::FaultPlan plan;
    plan.replica_plans.push_back(kill);
    fault::ScopedFaultPlan killed(plan);
    stream(router, clips, tenants);
    print_fleet(router);
    after_kill = router.stats();
  }
  const std::uint64_t retries = after_kill.retries - before_kill.retries;
  const std::uint64_t failovers = after_kill.failovers - before_kill.failovers;
  const std::uint64_t failed = after_kill.failed - before_kill.failed;
  std::printf("  phase 2: retries=%llu failovers=%llu failed=%llu\n",
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(failovers),
              static_cast<unsigned long long>(failed));

  std::printf("\n== phase 3: replica 1 revived ==\n");
  router.revive_replica(1);
  stream(router, clips, tenants);
  print_fleet(router);

  router.drain();

  std::printf("\n== route.* metrics (registry JSON) ==\n%s\n",
              router.metrics_json().c_str());
  if (retries == 0 || failovers == 0 || failed != 0) {
    std::fprintf(stderr,
                 "route_demo: phase 2 did not fail over cleanly (retries=%llu "
                 "failovers=%llu failed=%llu)\n",
                 static_cast<unsigned long long>(retries),
                 static_cast<unsigned long long>(failovers),
                 static_cast<unsigned long long>(failed));
    return 1;
  }
  return 0;
}
