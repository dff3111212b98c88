// chaos_test.cpp — scripted-failure coverage of the fault-tolerance stack:
// in-place worker recovery, the circuit breaker + degraded fallback,
// per-request deadlines, and checkpoint corruption detection. Every failure
// here is *scheduled* through tsdx::serve::fault (a seeded FaultPlan), so the
// same crashes happen at the same dispatches on every run — including under
// the CI ThreadSanitizer job, which runs this binary directly.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/extractor.hpp"
#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "nn/serialize.hpp"
#include "sdl/description.hpp"
#include "serve/fallback.hpp"
#include "serve/fault/inject.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/thread_pool.hpp"
#include "sim/clipgen.hpp"

namespace core = tsdx::core;
namespace nn = tsdx::nn;
namespace obs = tsdx::obs;
namespace sdl = tsdx::sdl;
namespace serve = tsdx::serve;
namespace fault = tsdx::serve::fault;
namespace sim = tsdx::sim;

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

/// A canned, always-valid fallback (all-zero slot labels: straight road,
/// daytime, clear, sparse, ego cruising, no salient actor).
std::shared_ptr<serve::MajorityFallback> make_fallback() {
  sdl::SlotLabels labels{};
  std::array<float, sdl::kNumSlots> confidence{};
  confidence.fill(1.0f);
  return std::make_shared<serve::MajorityFallback>(labels, confidence);
}

/// One worker, batches of one, no batching window: extract_batch dispatch N
/// is exactly request N, so FaultPlan call indices map 1:1 to requests.
serve::ServerConfig sequential_config() {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.batch_window = std::chrono::microseconds{0};
  cfg.queue_capacity = 8;
  return cfg;
}

bool is_degraded(const core::ExtractionResult& result) {
  return !result.warnings.empty() &&
         result.warnings.front() == serve::kDegradedWarning;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<float> flat_weights(const nn::Module& module) {
  std::vector<float> flat;
  for (const auto& [name, t] : module.named_parameters()) {
    const auto& data = t.data();
    flat.insert(flat.end(), data.begin(), data.end());
  }
  return flat;
}

}  // namespace

// ---- in-place worker recovery ---------------------------------------------------

// An injected fault fails the worker's batch: the batch's future must fail
// with the *injected* error (typed, not swallowed), and the worker must serve
// on so the next request completes on the primary model. Without a fallback
// configured, the circuit never trips.
TEST(ChaosTest, InjectedFaultFailsBatchAndWorkerServesOn) {
  auto server = serve::InferenceServer(make_frozen_extractor(),
                                       sequential_config());
  const auto clips = make_clips(2);

  fault::FaultPlan plan;
  plan.throw_on_extract_calls = {1};
  fault::ScopedFaultPlan armed(plan);

  auto doomed = server.submit(clips[0]);
  EXPECT_THROW(doomed.get(), fault::InjectedFaultError);

  // The same worker, past its fault, serves this one.
  auto healthy = server.submit(clips[1]);
  EXPECT_FALSE(is_degraded(healthy.get()));
  server.drain();

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.worker_faults, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.degraded_completions, 0u);
  EXPECT_EQ(stats.circuit_trips, 0u);
  EXPECT_EQ(stats.circuit_state, serve::CircuitState::kClosed);
}

// A fault costs its batch and nothing else: the worker that threw is the
// worker that answers next, on the executor it faulted in, and its answer
// is bit-identical to the one it gave before. Sixty-four faults in a row
// must not change which thread serves.
TEST(ChaosTest, RepeatedWorkerFaultsKeepOneWorkerThread) {
  constexpr std::uint64_t kFaults = 64;
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  serve::ServerConfig cfg = sequential_config();
  cfg.on_result = [&](const serve::CompletionInfo&) {
    std::lock_guard<std::mutex> lock(ids_mutex);
    ids.insert(std::this_thread::get_id());
  };
  auto server = serve::InferenceServer(make_frozen_extractor(), cfg);
  const sim::VideoClip clip = make_clips(1).front();

  const core::ExtractionResult before = server.submit(clip).get();

  fault::FaultPlan plan;
  for (std::uint64_t call = 1; call <= kFaults; ++call) {
    plan.throw_on_extract_calls.push_back(call);
  }
  {
    fault::ScopedFaultPlan armed(plan);
    for (std::uint64_t i = 0; i < kFaults; ++i) {
      EXPECT_THROW(server.submit(clip).get(), fault::InjectedFaultError);
    }
    EXPECT_EQ(fault::Injector::instance().extract_calls(), kFaults);
  }

  const core::ExtractionResult after = server.submit(clip).get();
  server.drain();

  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(after.description, before.description);
  EXPECT_EQ(after.confidence, before.confidence);
  EXPECT_EQ(after.warnings, before.warnings);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.worker_faults, kFaults);
  EXPECT_EQ(stats.failed, kFaults);
  EXPECT_EQ(stats.completed, 2u);
}

// ---- circuit breaker ------------------------------------------------------------

// The full trip-and-heal arc: K consecutive injected faults open the
// circuit; while OPEN, requests are answered by the fallback (explicitly
// marked degraded); after the cooldown a probe reaches the healthy primary
// and the circuit closes again.
TEST(ChaosTest, CircuitTripsToFallbackThenProbeHeals) {
  serve::ServerConfig cfg = sequential_config();
  cfg.fallback = make_fallback();
  cfg.circuit.fault_threshold = 2;
  cfg.circuit.cooldown = std::chrono::milliseconds(50);
  auto server = serve::InferenceServer(make_frozen_extractor(), cfg);
  const auto clips = make_clips(4);

  fault::FaultPlan plan;
  plan.throw_on_extract_calls = {1, 2};
  fault::ScopedFaultPlan armed(plan);

  EXPECT_THROW(server.submit(clips[0]).get(), fault::InjectedFaultError);
  EXPECT_EQ(server.circuit_state(), serve::CircuitState::kClosed);
  EXPECT_THROW(server.submit(clips[1]).get(), fault::InjectedFaultError);
  EXPECT_EQ(server.circuit_state(), serve::CircuitState::kOpen);

  // OPEN: the fallback answers — degraded, marked as such, and counted.
  const core::ExtractionResult degraded = server.submit(clips[2]).get();
  EXPECT_TRUE(is_degraded(degraded));
  EXPECT_EQ(server.stats().degraded_completions, 1u);
  EXPECT_EQ(server.circuit_state(), serve::CircuitState::kOpen);

  // After the cooldown the next batch is the probe; extract call #3 is not
  // in the plan, so the probe succeeds and the circuit heals.
  std::this_thread::sleep_for(cfg.circuit.cooldown +
                              std::chrono::milliseconds(20));
  const core::ExtractionResult primary = server.submit(clips[3]).get();
  EXPECT_FALSE(is_degraded(primary));
  EXPECT_EQ(server.circuit_state(), serve::CircuitState::kClosed);
  server.drain();

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.worker_faults, 2u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 2u);  // one degraded + one primary
  EXPECT_EQ(stats.degraded_completions, 1u);
  EXPECT_EQ(stats.circuit_trips, 1u);
  EXPECT_EQ(stats.circuit_state, serve::CircuitState::kClosed);
}

// The same fault story through the metrics registry: a server given a
// private obs::Registry surfaces its fault/degraded counters there
// (process-scrape view), with the circuit state mirrored as a gauge
// (kClosed = 0, kOpen = 1, kHalfOpen = 2).
TEST(ChaosTest, FaultCountersSurfaceThroughTheMetricsRegistry) {
  auto registry = std::make_shared<obs::Registry>();
  serve::ServerConfig cfg = sequential_config();
  cfg.fallback = make_fallback();
  cfg.circuit.fault_threshold = 2;
  cfg.circuit.cooldown = std::chrono::milliseconds(50);
  cfg.metrics = registry;
  auto server = serve::InferenceServer(make_frozen_extractor(), cfg);
  const auto clips = make_clips(4);

  EXPECT_EQ(registry->gauge("serve.circuit_state").value(), 0);  // closed

  fault::FaultPlan plan;
  plan.throw_on_extract_calls = {1, 2};
  fault::ScopedFaultPlan armed(plan);

  EXPECT_THROW(server.submit(clips[0]).get(), fault::InjectedFaultError);
  EXPECT_THROW(server.submit(clips[1]).get(), fault::InjectedFaultError);
  EXPECT_EQ(registry->counter("serve.worker_faults").value(), 2u);
  EXPECT_EQ(registry->counter("serve.circuit_trips").value(), 1u);
  EXPECT_EQ(registry->gauge("serve.circuit_state").value(), 1);  // open

  EXPECT_TRUE(is_degraded(server.submit(clips[2]).get()));
  EXPECT_EQ(registry->counter("serve.degraded_completions").value(), 1u);

  // After the cooldown the probe heals the circuit; the gauge follows.
  std::this_thread::sleep_for(cfg.circuit.cooldown +
                              std::chrono::milliseconds(20));
  EXPECT_FALSE(is_degraded(server.submit(clips[3]).get()));
  EXPECT_EQ(registry->gauge("serve.circuit_state").value(), 0);  // closed
  server.drain();

  // The registry agrees with the classic stats() surface, and the scrape
  // exports carry the same series.
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(registry->counter("serve.worker_faults").value(),
            stats.worker_faults);
  EXPECT_EQ(registry->counter("serve.failed").value(), stats.failed);
  EXPECT_EQ(registry->counter("serve.completed").value(), stats.completed);
  EXPECT_NE(server.metrics_text().find("serve_worker_faults 2"),
            std::string::npos);
}

// A probe that faults re-opens the circuit (and counts a second trip)
// instead of letting a still-broken primary back into rotation.
TEST(ChaosTest, FailedProbeReopensCircuit) {
  serve::ServerConfig cfg = sequential_config();
  cfg.fallback = make_fallback();
  cfg.circuit.fault_threshold = 1;
  cfg.circuit.cooldown = std::chrono::milliseconds(30);
  auto server = serve::InferenceServer(make_frozen_extractor(), cfg);
  const auto clips = make_clips(3);

  fault::FaultPlan plan;
  plan.throw_on_extract_calls = {1, 2};  // the trip AND the probe
  fault::ScopedFaultPlan armed(plan);

  EXPECT_THROW(server.submit(clips[0]).get(), fault::InjectedFaultError);
  EXPECT_EQ(server.circuit_state(), serve::CircuitState::kOpen);

  std::this_thread::sleep_for(cfg.circuit.cooldown +
                              std::chrono::milliseconds(20));
  EXPECT_THROW(server.submit(clips[1]).get(), fault::InjectedFaultError);
  EXPECT_EQ(server.circuit_state(), serve::CircuitState::kOpen);
  EXPECT_EQ(server.stats().circuit_trips, 2u);

  // While re-opened, the fallback still answers.
  EXPECT_TRUE(is_degraded(server.submit(clips[2]).get()));
  server.drain();
}

// With no fallback configured there is nothing to route to: repeated faults
// keep failing fast on the primary (the worker serving on past each) and the
// circuit must never trip.
TEST(ChaosTest, NoFallbackMeansNoTrip) {
  serve::ServerConfig cfg = sequential_config();
  cfg.circuit.fault_threshold = 1;
  auto server = serve::InferenceServer(make_frozen_extractor(), cfg);
  const auto clips = make_clips(3);

  fault::FaultPlan plan;
  plan.throw_on_extract_calls = {1, 2};
  fault::ScopedFaultPlan armed(plan);

  EXPECT_THROW(server.submit(clips[0]).get(), fault::InjectedFaultError);
  EXPECT_THROW(server.submit(clips[1]).get(), fault::InjectedFaultError);
  EXPECT_EQ(server.circuit_state(), serve::CircuitState::kClosed);
  EXPECT_NO_THROW(server.submit(clips[2]).get());
  server.drain();
  EXPECT_EQ(server.stats().circuit_trips, 0u);
  EXPECT_EQ(server.stats().worker_faults, 2u);
}

// ---- deadlines ------------------------------------------------------------------

// Expired requests must never reach the model: one expires at submit() (fast
// fail, never enqueued), one expires while queued (scrubbed by the batcher).
// The batch-size histogram proves neither occupied a batch slot.
TEST(ChaosTest, ExpiredDeadlinesAreScrubbedBeforeDispatch) {
  serve::ServerConfig cfg;
  cfg.workers = 0;  // inline mode: nothing is processed until drain()
  cfg.max_batch = 8;
  cfg.queue_capacity = 8;
  auto server = serve::InferenceServer(make_frozen_extractor(), cfg);
  const auto clips = make_clips(4);

  // Already expired at submit(): fails immediately, never queued.
  auto dead_on_arrival =
      server.submit(clips[0], serve::InferenceServer::Clock::now() -
                                  std::chrono::milliseconds(1));
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_THROW(dead_on_arrival.get(), serve::DeadlineExceededError);

  // Expires while queued: accepted now, scrubbed at batching time.
  auto expires_in_queue =
      server.submit_within(clips[1], std::chrono::milliseconds(2));
  auto live_a = server.submit(clips[2]);
  auto live_b = server.submit(clips[3]);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.drain();

  EXPECT_THROW(expires_in_queue.get(), serve::DeadlineExceededError);
  EXPECT_NO_THROW(live_a.get());
  EXPECT_NO_THROW(live_b.get());

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.deadline_expired, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 0u);
  // The two live requests formed one batch of 2: the expired pair took no
  // batch slot and triggered no dispatch.
  EXPECT_EQ(stats.batches(), 1u);
  EXPECT_EQ(stats.batch_size_counts[2], 1u);
  EXPECT_EQ(stats.latency.count(), 2u);
}

// A seeded stall holds the single worker while a queued request's deadline
// runs out; the scrub must trigger exactly one deadline-miss anomaly dump in
// TSDX_OBS_DUMP_DIR, naming the offending trace and carrying its flight
// record. CI points TSDX_OBS_DUMP_DIR at a fresh directory, runs this test,
// and validates the dump with tools/trace_check.py --dump; without a preset
// directory the test arms its own.
TEST(ChaosTest, DeadlineMissWritesExactlyOneAnomalyDump) {
  namespace trace = tsdx::obs::trace;
  // Full tracing so the offending request has a nonzero trace ID to dump.
  trace::set_mode(trace::Mode::kFull);
  trace::clear();
  // Re-arm the global engine's per-kind dump cap no matter what ran before
  // this test in a whole-binary (tsan) run.
  obs::SloEngine::global().reset();

  const char* preset = std::getenv("TSDX_OBS_DUMP_DIR");
  std::filesystem::path dir;
  if (preset != nullptr && preset[0] != '\0') {
    dir = preset;
    std::filesystem::create_directories(dir);
  } else {
    dir = std::filesystem::temp_directory_path() / "chaos_test_dumps";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ::setenv("TSDX_OBS_DUMP_DIR", dir.string().c_str(), 1);
  }
  const auto miss_dumps = [&dir] {
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.find("deadline_miss") != std::string::npos) names.insert(name);
    }
    return names;
  };
  const std::set<std::string> before = miss_dumps();

  {
    auto server = serve::InferenceServer(make_frozen_extractor(),
                                         sequential_config());
    const auto clips = make_clips(2);
    fault::FaultPlan plan;
    plan.delay_on_extract_calls = {1};  // stall the first dispatch 20 ms
    plan.extract_delay = std::chrono::milliseconds(20);
    fault::ScopedFaultPlan armed(plan);
    auto stalled = server.submit(clips[0]);  // no deadline: occupies the worker
    auto expired =
        server.submit_within(clips[1], std::chrono::milliseconds(2));
    EXPECT_NO_THROW(stalled.get());
    EXPECT_THROW(expired.get(), serve::DeadlineExceededError);
    server.drain();
    EXPECT_EQ(server.stats().deadline_expired, 1u);
  }
  if (preset == nullptr || preset[0] == '\0') {
    ::unsetenv("TSDX_OBS_DUMP_DIR");
  }
  trace::set_mode(trace::Mode::kOff);
  trace::clear();

  // Exactly one new deadline-miss dump, and it tells the whole story: the
  // anomaly kind, a real trace ID, and that trace's deadline-expired record.
  const std::set<std::string> after = miss_dumps();
  std::vector<std::string> fresh;
  for (const std::string& name : after) {
    if (before.find(name) == before.end()) fresh.push_back(name);
  }
  ASSERT_EQ(fresh.size(), 1u);
  std::ifstream in(dir / fresh.front());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string body = buffer.str();
  EXPECT_NE(body.find("\"anomaly\": \"deadline_miss\""), std::string::npos)
      << body;
  const std::string key = "\"trace_id\": ";
  const std::size_t pos = body.find(key);
  ASSERT_NE(pos, std::string::npos) << body;
  const std::uint64_t offender = std::strtoull(
      body.c_str() + pos + key.size(), nullptr, 10);
  EXPECT_NE(offender, 0u) << body;
  // The offender's flight record is embedded, terminally deadline_expired.
  std::ostringstream record_key;
  record_key << "\"trace_id\": " << offender
             << ", \"kind\": \"server\", \"outcome\": \"deadline_expired\"";
  EXPECT_NE(body.find(record_key.str()), std::string::npos) << body;
  if (preset == nullptr || preset[0] == '\0') {
    std::filesystem::remove_all(dir);
  }
}

// A generous deadline is inert: the request completes normally.
TEST(ChaosTest, UnexpiredDeadlineDoesNotInterfere) {
  auto server = serve::InferenceServer(make_frozen_extractor(),
                                       sequential_config());
  const auto clips = make_clips(1);
  auto future = server.submit_within(clips[0], std::chrono::seconds(30));
  EXPECT_NO_THROW(future.get());
  server.drain();
  EXPECT_EQ(server.stats().deadline_expired, 0u);
  EXPECT_EQ(server.stats().completed, 1u);
}

// ---- injected latency -----------------------------------------------------------

// A scheduled stall on one dispatch must show up in the end-to-end latency
// tail (lower-bound assertion only: sleep_for may oversleep, never under).
TEST(ChaosTest, InjectedLatencyShowsUpInTail) {
  auto server = serve::InferenceServer(make_frozen_extractor(),
                                       sequential_config());
  const auto clips = make_clips(2);

  fault::FaultPlan plan;
  plan.delay_on_extract_calls = {1};
  plan.extract_delay = std::chrono::microseconds(20000);  // 20 ms
  fault::ScopedFaultPlan armed(plan);

  EXPECT_NO_THROW(server.submit(clips[0]).get());
  EXPECT_NO_THROW(server.submit(clips[1]).get());
  server.drain();

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.worker_faults, 0u);
  EXPECT_GE(stats.latency.max(), 20.0);  // milliseconds
}

// ---- checkpoint corruption ------------------------------------------------------

// The injector flips one seed-chosen byte of a checkpoint after its CRC
// footer is computed. The loader must reject the file with a typed error
// carrying a byte offset, leave the target module's weights untouched, and
// the serving-bootstrap loader must degrade to kCorruptKeptInit. A clean
// re-save then loads normally.
TEST(ChaosTest, CorruptedCheckpointIsRejectedAndWeightsKept) {
  tsdx::tensor::Rng rng(21);
  nn::Mlp source(4, 8, 0.0f, rng);
  nn::Mlp target(4, 8, 0.0f, rng);  // different init
  const std::string path = temp_path("tsdx_chaos_ckpt.bin");

  {
    fault::FaultPlan plan;
    plan.seed = 42;
    plan.corrupt_next_checkpoint = true;
    fault::ScopedFaultPlan armed(plan);
    nn::save_checkpoint(source, path);
  }

  const std::vector<float> before = flat_weights(target);
  try {
    nn::load_checkpoint(target, path);
    FAIL() << "corrupted checkpoint was accepted";
  } catch (const nn::CheckpointCorruptError& e) {
    EXPECT_LT(e.byte_offset(), std::filesystem::file_size(path));
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos);
  }
  EXPECT_EQ(flat_weights(target), before);

  EXPECT_EQ(nn::load_checkpoint_or_fallback(target, path),
            nn::CheckpointLoad::kCorruptKeptInit);
  EXPECT_EQ(flat_weights(target), before);

  // The injector is one-shot: the next save is clean and loads.
  nn::save_checkpoint(source, path);
  EXPECT_EQ(nn::load_checkpoint_or_fallback(target, path),
            nn::CheckpointLoad::kLoaded);
  EXPECT_EQ(flat_weights(target), flat_weights(source));
  std::filesystem::remove(path);
}

// ---- replica router under scripted replica death --------------------------------

// Concurrent producers stream requests through a 3-replica router while a
// replica-scoped plan hard-kills replica 1 after its 3rd dispatch. The
// contract under test: every admitted request resolves EXACTLY once (a
// double-set promise would throw std::future_error inside the router; a
// lost ticket would leave pending > 0 and hang drain()), and with retry
// budget available the death costs zero answers — the killed replica's
// queued requests fail over to its siblings.
TEST(ChaosTest, RouterLosesNoRequestsWhenReplicaDiesMidStream) {
  serve::RouterConfig rc;
  rc.replicas = 3;
  rc.server = sequential_config();
  // Deep queues: the two survivors must absorb the whole burst. With the
  // default capacity of 8 the siblings can fill under the 4-producer burst,
  // and a retry that finds both full falls through to the (excluded) dying
  // replica as a last resort — a legitimate shed, but not what this test
  // pins. Capacity is not under test; losing zero requests is.
  rc.server.queue_capacity = 64;
  rc.max_attempts = 4;
  rc.retry_budget_floor = 32.0;  // failover capacity is not under test here
  rc.down_after_failures = 2;
  rc.heal_backoff = std::chrono::seconds(30);  // no passive heal mid-test
  rc.metrics = std::make_shared<obs::Registry>();
  serve::Router router(make_frozen_extractor(), rc);
  const auto clips = make_clips(1);

  fault::FaultPlan plan;
  fault::ReplicaPlan death;
  death.domain = 1;
  death.kill_from_call = 3;  // two good dispatches, then hard-down
  plan.replica_plans = {death};
  fault::ScopedFaultPlan armed(plan);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 8;
  std::vector<std::future<core::ExtractionResult>> futures(kProducers *
                                                           kPerProducer);
  // Each producer writes only its own slot range: no synchronization needed.
  serve::ThreadPool::run(kProducers, [&](std::size_t producer) {
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      futures[producer * kPerProducer + i] = router.submit(clips[0]);
    }
  });
  // Settle before drain: retried tickets sleeping out their backoff must
  // wake to a live fleet — drain() tears replicas down first (the inline
  // server contract) and would resolve a late retry fleet-dark.
  while (router.stats().pending != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  router.drain();

  std::size_t ok = 0;
  std::size_t failed = 0;
  for (auto& future : futures) {
    try {
      EXPECT_FALSE(is_degraded(future.get()));
      ++ok;
    } catch (const std::exception&) {
      ++failed;
    }
  }
  EXPECT_EQ(ok, kProducers * kPerProducer);  // nothing lost to the death
  EXPECT_EQ(failed, 0u);

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.admitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.completed + stats.failed, kProducers * kPerProducer);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(router.replica_state(1), serve::ReplicaState::kDown);
  EXPECT_GE(fault::Injector::instance().domain_calls(1), 3u);
}
