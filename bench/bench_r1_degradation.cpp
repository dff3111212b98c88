// R-R1 — Graceful degradation under overload (tsdx::serve fault tolerance):
// drive the server with an *open-loop* arrival process (requests arrive on a
// clock, whether or not earlier ones finished — unlike R-S1's closed loop,
// where clients self-throttle) at multiples of its measured capacity, and
// report where every request went: answered by the primary model, answered
// degraded by the fallback, shed by the bounded queue, or expired at its
// deadline.
//
// Expected shape: below capacity everything completes on the primary. Past
// capacity the bounded queue saturates; sustained saturation trips the
// circuit breaker, and the mix shifts from primary to degraded-fallback
// answers (cheap, O(1)) plus shed/expired requests — but the server keeps
// answering and never wedges. This is the quantitative version of the
// fault-tolerance contract in DESIGN.md §9.
//
// R-R2 (second half of this binary) scales the same open-loop arrival
// process out over a tsdx::serve::Router fleet of 1/2/4 replicas and runs a
// three-phase arc per fleet size: steady load, hard-kill of replica 0 at
// peak, then revive. The acceptance contract: goodput (answered/s, primary
// + degraded) retains >= 70% through the kill — via failover retries when a
// sibling exists, via the fleet fallback when the fleet goes fully dark —
// and recovers after the heal. --smoke runs reduced request counts and
// writes BENCH_R1.json for the CI gate (tools/bench_gate.py vs
// bench/BENCH_R1_baseline.json, which gates goodput_retention and
// recovery_ratio per fleet shape — ratios, so the gate is
// machine-speed-independent).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/fallback.hpp"
#include "serve/queue.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/thread_pool.hpp"
#include "sim/clipgen.hpp"

using namespace tsdx;
using namespace tsdx::bench;

namespace {

constexpr std::size_t kClipPool = 16;
constexpr std::size_t kCalibrationClips = 24;

std::vector<sim::VideoClip> make_clip_pool() {
  sim::ClipGenerator gen(render_config(), kDataSeed);
  std::vector<sim::VideoClip> clips;
  clips.reserve(kClipPool);
  for (std::size_t i = 0; i < kClipPool; ++i) {
    clips.push_back(gen.generate().video);
  }
  return clips;
}

/// All-zero slot labels (straight road, day, clear, sparse, ego cruising,
/// no salient actor) — the degraded answer used while the circuit is open.
std::shared_ptr<serve::MajorityFallback> make_fallback() {
  sdl::SlotLabels labels{};
  std::array<float, sdl::kNumSlots> confidence{};
  confidence.fill(1.0f);
  return std::make_shared<serve::MajorityFallback>(labels, confidence);
}

struct LoadPoint {
  double multiplier = 0.0;     ///< offered load as a fraction of capacity
  double offered_cps = 0.0;    ///< offered clips/s
  double answered_cps = 0.0;   ///< completed (primary + degraded) clips/s
  serve::ServerStats stats;
};

LoadPoint run_load_point(
    const std::shared_ptr<const core::ScenarioExtractor>& extractor,
    double multiplier, double capacity_cps, double service_ms,
    const std::vector<sim::VideoClip>& clips, std::size_t requests) {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  // A small queue + shed-oldest keeps waiting time bounded: under overload
  // the freshest clips win, which is the right policy for live video.
  cfg.queue_capacity = 8;
  cfg.overflow = serve::OverflowPolicy::kShedOldest;
  cfg.fallback = make_fallback();
  // Saturation (not faults) is the trip condition under overload: a queue
  // pinned at capacity for ~4 service times means the primary has fallen
  // behind and the fallback should absorb the excess.
  cfg.circuit.saturation_window =
      std::chrono::milliseconds(static_cast<long>(4.0 * service_ms) + 1);
  cfg.circuit.cooldown =
      std::chrono::milliseconds(static_cast<long>(8.0 * service_ms) + 1);
  serve::InferenceServer server(extractor, cfg);

  const double offered_cps = multiplier * capacity_cps;
  const auto interval = std::chrono::duration_cast<
      serve::InferenceServer::Clock::duration>(
      std::chrono::duration<double>(1.0 / offered_cps));
  // Deadline budget: a request older than ~6 service times is stale; expire
  // it rather than serve an answer nobody is waiting for any more.
  const auto deadline_budget = std::chrono::duration_cast<
      serve::InferenceServer::Clock::duration>(
      std::chrono::duration<double, std::milli>(6.0 * service_ms));

  std::vector<std::future<core::ExtractionResult>> futures;
  futures.reserve(requests);
  const auto start = serve::InferenceServer::Clock::now();
  auto next_arrival = start;
  for (std::size_t i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(next_arrival);
    next_arrival += interval;
    const auto now = serve::InferenceServer::Clock::now();
    futures.push_back(
        server.submit(clips[i % clips.size()], now + deadline_budget));
  }
  server.drain();
  const double seconds = std::chrono::duration<double>(
                             serve::InferenceServer::Clock::now() - start)
                             .count();
  // Consume every future so no exception is silently dropped; the stats
  // counters classify the outcomes.
  for (auto& f : futures) {
    try {
      static_cast<void>(f.get());
    } catch (const std::exception&) {
      // shed / expired / stopped — counted by the server.
    }
  }

  LoadPoint point;
  point.multiplier = multiplier;
  point.offered_cps = offered_cps;
  point.stats = server.stats();
  point.answered_cps = static_cast<double>(point.stats.completed) / seconds;
  return point;
}

// ---- R-R2: multi-replica overload arc -------------------------------------------

struct FleetPhase {
  double answered_cps = 0.0;
  double p99_ms = 0.0;
  std::uint64_t completed = 0;   ///< primary + degraded answers this phase
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;      ///< expired / shed / exhausted retries
  std::uint64_t retries = 0;
};

struct FleetRow {
  std::size_t replicas = 0;
  FleetPhase before, kill, heal;
  double retention = 0.0;  ///< kill answered/s over before answered/s
  double recovery = 0.0;   ///< heal answered/s over before answered/s
};

/// Block until the router has resolved every accepted request, without
/// tearing it down (drain() is terminal; the arc reuses one router across
/// its three phases).
void settle(serve::Router& router) {
  while (router.stats().pending != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// One open-loop phase against a live router: `requests` arrivals at
/// `offered_cps`, each with a deadline, completion latency measured
/// client-side by a waiter pool. `kill_at` (if set) hard-kills replica 0
/// after that many arrivals — mid-stream, the way real replicas die.
FleetPhase run_fleet_phase(serve::Router& router,
                           const std::vector<sim::VideoClip>& clips,
                           std::size_t requests, double offered_cps,
                           double deadline_ms,
                           std::optional<std::size_t> kill_at) {
  using Clock = serve::Router::Clock;
  const serve::RouterStats before = router.stats();

  struct InFlight {
    Clock::time_point submitted;
    std::future<core::ExtractionResult> future;
  };
  serve::BoundedQueue<InFlight> inflight(requests + 1,
                                         serve::OverflowPolicy::kReject);
  LatencyHistogram hist;
  std::mutex hist_mutex;
  serve::ThreadPool waiters;
  waiters.spawn(4, [&](std::size_t) {
    while (auto item = inflight.pop()) {
      try {
        static_cast<void>(item->future.get());
      } catch (const std::exception&) {
        continue;  // expired / shed — classified by the router's counters
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - item->submitted)
                            .count();
      std::lock_guard<std::mutex> lock(hist_mutex);
      hist.record(ms);
    }
  });

  const auto interval =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / offered_cps));
  const auto deadline_budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(deadline_ms));
  const auto start = Clock::now();
  auto next_arrival = start;
  for (std::size_t i = 0; i < requests; ++i) {
    if (kill_at && i == *kill_at) router.kill_replica(0);
    std::this_thread::sleep_until(next_arrival);
    next_arrival += interval;
    const auto now = Clock::now();
    InFlight entry;
    entry.submitted = now;
    try {
      entry.future =
          router.submit(clips[i % clips.size()], now + deadline_budget);
    } catch (const std::exception&) {
      continue;  // refused at the front door — counted as route.shed
    }
    static_cast<void>(inflight.push(std::move(entry)));
  }
  settle(router);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  inflight.close();
  waiters.join();

  const serve::RouterStats after = router.stats();
  FleetPhase phase;
  phase.completed = after.completed - before.completed;
  phase.degraded = after.degraded - before.degraded;
  phase.failed = after.failed - before.failed;
  phase.retries = after.retries - before.retries;
  phase.answered_cps = static_cast<double>(phase.completed) / seconds;
  phase.p99_ms = hist.count() > 0 ? hist.percentile(99.0) : 0.0;
  return phase;
}

/// The full arc for one fleet size: steady -> kill replica 0 at peak ->
/// revive. Offered load is 0.7x the fleet's nominal capacity (N x the
/// calibrated single-worker rate) so the *healthy* fleet has headroom and
/// the kill is what pushes the survivors into overload.
FleetRow run_fleet_arc(
    const std::shared_ptr<const core::ScenarioExtractor>& extractor,
    std::size_t replicas, double capacity_cps, double service_ms,
    const std::vector<sim::VideoClip>& clips, std::size_t requests) {
  serve::RouterConfig cfg;
  cfg.replicas = replicas;
  cfg.server.workers = 1;
  cfg.server.max_batch = 8;
  cfg.server.queue_capacity = 8;
  // kReject (not shed-oldest): a full replica queue bounces the dispatch so
  // the *router* spills it to a less-loaded sibling — and only sheds to the
  // fleet fallback when every queue is full.
  cfg.server.overflow = serve::OverflowPolicy::kReject;
  cfg.fallback = make_fallback();
  cfg.max_attempts = 3;
  cfg.retry_budget_floor = 16.0;
  cfg.metrics = std::make_shared<obs::Registry>();
  serve::Router router(extractor, cfg);

  // Offered load: 0.7x the fleet's *usable* capacity. Replicas only add
  // throughput up to the core count — on a 1-core CI host a 4-replica fleet
  // still serves ~1x the calibrated rate, and offering 2.8x would drown
  // every phase equally and measure nothing but the fallback. The ratios
  // stay meaningful on any machine: the healthy fleet has headroom, the
  // kill is what removes capacity.
  const std::size_t cores = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  const double offered_cps =
      0.7 * static_cast<double>(std::min(replicas, cores)) * capacity_cps;
  // Deadline: ~8 service times — enough headroom for one failover retry,
  // tight enough that a wedged fleet expires requests instead of queueing
  // answers nobody is waiting for.
  const double deadline_ms = 8.0 * service_ms;

  FleetRow row;
  row.replicas = replicas;
  // Unrecorded warmup: fault the code paths and thread stacks in (first
  // extract per worker is cold) so `before` measures steady state, not
  // startup — the retention/recovery ratios divide by it.
  static_cast<void>(run_fleet_phase(router, clips, requests / 2, offered_cps,
                                    deadline_ms, std::nullopt));
  row.before = run_fleet_phase(router, clips, requests, offered_cps,
                               deadline_ms, std::nullopt);
  row.kill = run_fleet_phase(router, clips, requests, offered_cps,
                             deadline_ms, requests / 3);
  router.revive_replica(0);
  row.heal = run_fleet_phase(router, clips, requests, offered_cps,
                             deadline_ms, std::nullopt);
  router.drain();

  row.retention = row.before.answered_cps > 0.0
                      ? row.kill.answered_cps / row.before.answered_cps
                      : 0.0;
  row.recovery = row.before.answered_cps > 0.0
                     ? row.heal.answered_cps / row.before.answered_cps
                     : 0.0;
  return row;
}

void write_json(const char* path, const std::vector<FleetRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "bench_r1_degradation: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_r1_degradation\",\n");
  std::fprintf(f,
               "  \"gated_metrics\": [\"goodput_retention\", "
               "\"recovery_ratio\"],\n");
  std::fprintf(f, "  \"shapes\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FleetRow& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"fleet_r%zu\", \"replicas\": %zu, "
                 "\"goodput_retention\": %.4f, \"recovery_ratio\": %.4f, "
                 "\"before_answered_per_s\": %.3f, "
                 "\"kill_answered_per_s\": %.3f, "
                 "\"heal_answered_per_s\": %.3f, "
                 "\"kill_degraded\": %llu, \"kill_retries\": %llu, "
                 "\"p99_ms_kill\": %.3f}%s\n",
                 r.replicas, r.replicas, r.retention, r.recovery,
                 r.before.answered_cps, r.kill.answered_cps,
                 r.heal.answered_cps,
                 static_cast<unsigned long long>(r.kill.degraded),
                 static_cast<unsigned long long>(r.kill.retries),
                 r.kill.p99_ms, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  if (smoke && json_path == nullptr) json_path = "BENCH_R1.json";

  print_banner("R-R1", "graceful degradation under open-loop overload");
  const std::size_t requests = smoke ? 48 : 120;

  auto extractor = std::make_shared<core::ScenarioExtractor>(
      model_config(core::AttentionKind::kDividedST), kModelSeed);
  extractor->freeze();
  const std::vector<sim::VideoClip> clips = make_clip_pool();

  // Calibrate capacity: mean sequential service time of the primary model.
  const auto cal_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kCalibrationClips; ++i) {
    static_cast<void>(extractor->extract(clips[i % clips.size()]));
  }
  const double service_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - cal_start)
          .count() /
      static_cast<double>(kCalibrationClips);
  const double capacity_cps = 1000.0 / service_ms;
  std::printf("calibration: %.2f ms/clip sequential -> capacity ~%.1f "
              "clips/s (1 worker)\n",
              service_ms, capacity_cps);
  std::printf("%zu open-loop requests per point, queue=8 shed-oldest, "
              "deadline=6 service times, majority fallback\n\n",
              requests);

  std::printf("%-8s %9s %10s %8s %8s %6s %8s %6s %10s\n", "load", "offered/s",
              "answered/s", "primary", "degraded", "shed", "expired", "trips",
              "circuit");
  const std::vector<double> multipliers =
      smoke ? std::vector<double>{0.5, 2.0}
            : std::vector<double>{0.5, 1.0, 2.0, 4.0};
  for (const double m : multipliers) {
    const LoadPoint p =
        run_load_point(extractor, m, capacity_cps, service_ms, clips,
                       requests);
    const serve::ServerStats& s = p.stats;
    char label[16];
    std::snprintf(label, sizeof(label), "%.1fx", p.multiplier);
    std::printf("%-8s %9.1f %10.1f %8llu %8llu %6llu %8llu %6llu %10s\n",
                label, p.offered_cps, p.answered_cps,
                static_cast<unsigned long long>(s.completed -
                                                s.degraded_completions),
                static_cast<unsigned long long>(s.degraded_completions),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(s.deadline_expired),
                static_cast<unsigned long long>(s.circuit_trips),
                serve::to_string(s.circuit_state));
  }

  std::printf(
      "\n(primary + degraded + shed + expired = %zu accepted requests per "
      "row.\n degraded answers carry an explicit warning — see "
      "serve::kDegradedWarning — so\n no client mistakes a base-rate answer "
      "for a model extraction.)\n",
      requests);

  // ---- R-R2: replica-kill arc over router fleets ----------------------------
  std::printf("\n=== R-R2: replica kill + heal over a router fleet ===\n");
  std::printf("(0.7x fleet capacity open-loop, kill replica 0 after 1/3 of "
              "the kill phase,\n revive before the heal phase; %zu requests "
              "per phase, queue=8 reject ->\n router spills to siblings, "
              "fleet-level majority fallback)\n\n",
              requests);
  std::printf("%-8s %12s %12s %12s %10s %10s %10s %9s\n", "fleet",
              "before c/s", "kill c/s", "heal c/s", "retention", "recovery",
              "p99kill", "retries");
  std::vector<FleetRow> rows;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    const FleetRow r =
        run_fleet_arc(extractor, n, capacity_cps, service_ms, clips,
                      requests);
    rows.push_back(r);
    char label[16];
    std::snprintf(label, sizeof(label), "r=%zu", r.replicas);
    std::printf("%-8s %12.1f %12.1f %12.1f %9.2fx %9.2fx %8.1fms %9llu\n",
                label, r.before.answered_cps, r.kill.answered_cps,
                r.heal.answered_cps, r.retention, r.recovery, r.kill.p99_ms,
                static_cast<unsigned long long>(r.kill.retries));
  }

  bool accepted = true;
  for (const FleetRow& r : rows) {
    if (r.retention < 0.70 || r.recovery < 0.80) accepted = false;
  }
  std::printf("\nACCEPTANCE: %s — every fleet size must retain >= 70%% "
              "goodput through the kill\n(failover retries with siblings, "
              "fleet fallback when fully dark) and recover to\n>= 80%% after "
              "the heal.\n",
              accepted ? "pass" : "FAIL");

  if (json_path != nullptr) {
    write_json(json_path, rows);
    std::printf("wrote %s\n", json_path);
  }
  return (smoke || accepted) ? 0 : 1;
}
