// serve_test.cpp — the tsdx::serve runtime: micro-batched results must be
// bit-identical to sequential extract(), backpressure policies must do what
// they say, drain must complete everything, and nothing may be lost or
// duplicated under concurrent producers (this file is a primary target of
// the CI ThreadSanitizer job).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "core/extractor.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "serve/fallback.hpp"
#include "serve/fault/inject.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"
#include "serve/thread_pool.hpp"
#include "sim/clipgen.hpp"

namespace core = tsdx::core;
namespace obs = tsdx::obs;
namespace serve = tsdx::serve;
namespace fault = tsdx::serve::fault;
namespace sdl = tsdx::sdl;
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
  cfg.dropout = 0.1f;  // exercises the inference-path RNG guard
  cfg.attention = core::AttentionKind::kDividedST;
  return cfg;
}

std::shared_ptr<core::ScenarioExtractor> make_frozen_extractor(
    std::uint64_t seed = 7) {
  auto extractor = std::make_shared<core::ScenarioExtractor>(micro_config(),
                                                             seed);
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

/// Bit-identical result comparison: same labels, same confidences (exact
/// float equality), same validation warnings.
void expect_identical(const core::ExtractionResult& a,
                      const core::ExtractionResult& b) {
  EXPECT_EQ(a.description, b.description);
  for (std::size_t s = 0; s < tsdx::sdl::kNumSlots; ++s) {
    EXPECT_EQ(a.confidence[s], b.confidence[s]) << "slot " << s;
  }
  EXPECT_EQ(a.warnings, b.warnings);
}

serve::ServerConfig config_with(std::size_t workers, std::size_t max_batch,
                                std::size_t capacity,
                                serve::OverflowPolicy policy) {
  serve::ServerConfig cfg;
  cfg.workers = workers;
  cfg.max_batch = max_batch;
  cfg.queue_capacity = capacity;
  cfg.overflow = policy;
  return cfg;
}

/// Server records in the global flight-recorder ring with `outcome`.
std::uint64_t server_records(obs::Recorder::Outcome outcome) {
  std::uint64_t n = 0;
  for (const obs::Recorder::Record& r : obs::Recorder::global().snapshot()) {
    if (r.kind == obs::Recorder::Kind::kServer && r.outcome == outcome) ++n;
  }
  return n;
}

/// Park a second producer in a kBlock push on `server`'s full queue, then
/// shut the server down under it: the producer's submit() must throw
/// ServerStoppedError. Waits for the producer's record to reach the ring
/// (no sleep) before shutting down; `in_flight_before` is the number of
/// in-flight server records already there.
void shutdown_under_parked_producer(serve::InferenceServer& server,
                                    const sim::VideoClip& clip,
                                    std::uint64_t in_flight_before) {
  serve::ThreadPool producer;
  producer.spawn(1, [&](std::size_t) {
    EXPECT_THROW(server.submit(clip), serve::ServerStoppedError);
  });
  while (server_records(obs::Recorder::Outcome::kInFlight) <=
         in_flight_before) {
    std::this_thread::yield();
  }
  server.shutdown();
  producer.join();
}

}  // namespace

// ---- equivalence with the sequential path ---------------------------------------

// The micro-batcher stacks several clips into one forward pass; every
// per-clip result must be bit-identical to a batch-of-1 extract() of the
// same clip. workers=0 + drain() forms maximal batches deterministically.
TEST(ServeEquivalenceTest, BatchedInlineMatchesSequential) {
  auto extractor = make_frozen_extractor();
  const auto clips = make_clips(12);

  std::vector<core::ExtractionResult> expected;
  for (const auto& clip : clips) expected.push_back(extractor->extract(clip));

  serve::InferenceServer server(
      extractor, config_with(/*workers=*/0, /*max_batch=*/4,
                             /*capacity=*/64, serve::OverflowPolicy::kBlock));
  std::vector<std::future<core::ExtractionResult>> futures;
  for (const auto& clip : clips) futures.push_back(server.submit(clip));
  server.drain();

  for (std::size_t i = 0; i < clips.size(); ++i) {
    expect_identical(futures[i].get(), expected[i]);
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, clips.size());
  // workers=0: everything was queued when drain() ran, so batches are full.
  EXPECT_EQ(stats.batches(), 3u);
  EXPECT_EQ(stats.batch_size_counts[4], 3u);
}

TEST(ServeEquivalenceTest, ThreadedServerMatchesSequential) {
  auto extractor = make_frozen_extractor();
  const auto clips = make_clips(16);

  std::vector<core::ExtractionResult> expected;
  for (const auto& clip : clips) expected.push_back(extractor->extract(clip));

  serve::InferenceServer server(
      extractor, config_with(/*workers=*/2, /*max_batch=*/4,
                             /*capacity=*/64, serve::OverflowPolicy::kBlock));
  std::vector<std::future<core::ExtractionResult>> futures;
  for (const auto& clip : clips) futures.push_back(server.submit(clip));
  server.drain();

  for (std::size_t i = 0; i < clips.size(); ++i) {
    expect_identical(futures[i].get(), expected[i]);
  }
}

// Regression for the inference-path RNG hazard: even on a model left in
// training mode, no-grad extraction must not touch the shared dropout Rng —
// concurrent extract() calls must equal the sequential results exactly.
TEST(ServeEquivalenceTest, ConcurrentExtractOnTrainingModeModelIsDeterministic) {
  auto extractor =
      std::make_shared<core::ScenarioExtractor>(micro_config(), /*seed=*/7);
  ASSERT_TRUE(extractor->model().training());  // deliberately NOT frozen
  const auto clips = make_clips(4);

  std::vector<core::ExtractionResult> sequential;
  for (const auto& clip : clips) sequential.push_back(extractor->extract(clip));

  std::vector<core::ExtractionResult> concurrent(clips.size());
  serve::ThreadPool::run(clips.size(), [&](std::size_t i) {
    concurrent[i] = extractor->extract(clips[i]);
  });

  for (std::size_t i = 0; i < clips.size(); ++i) {
    expect_identical(concurrent[i], sequential[i]);
  }
  // And re-running sequentially still matches: extraction consumed no RNG.
  for (std::size_t i = 0; i < clips.size(); ++i) {
    expect_identical(extractor->extract(clips[i]), sequential[i]);
  }
}

// ---- backpressure policies ------------------------------------------------------

TEST(ServeBackpressureTest, ServerRequiresFrozenModel) {
  auto extractor =
      std::make_shared<core::ScenarioExtractor>(micro_config(), /*seed=*/7);
  EXPECT_THROW(serve::InferenceServer(extractor, serve::ServerConfig{}),
               tsdx::ValueError);
}

TEST(ServeBackpressureTest, RejectPolicyThrowsQueueFull) {
  auto extractor = make_frozen_extractor();
  const auto clips = make_clips(3);
  serve::InferenceServer server(
      extractor, config_with(/*workers=*/0, /*max_batch=*/8,
                             /*capacity=*/2, serve::OverflowPolicy::kReject));

  auto f0 = server.submit(clips[0]);
  auto f1 = server.submit(clips[1]);
  EXPECT_THROW(server.submit(clips[2]), serve::QueueFullError);
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().submitted, 2u);

  server.drain();  // the two accepted requests still complete
  EXPECT_NO_THROW(f0.get());
  EXPECT_NO_THROW(f1.get());
}

TEST(ServeBackpressureTest, ShedOldestEvictsFrontAndFailsItsFuture) {
  auto extractor = make_frozen_extractor();
  const auto clips = make_clips(3);
  serve::InferenceServer server(
      extractor,
      config_with(/*workers=*/0, /*max_batch=*/8,
                  /*capacity=*/2, serve::OverflowPolicy::kShedOldest));

  auto f0 = server.submit(clips[0]);
  auto f1 = server.submit(clips[1]);
  auto f2 = server.submit(clips[2]);  // evicts request 0
  EXPECT_EQ(server.queue_depth(), 2u);
  EXPECT_THROW(f0.get(), serve::QueueFullError);
  EXPECT_EQ(server.stats().shed, 1u);

  server.drain();  // survivors complete normally
  EXPECT_NO_THROW(f1.get());
  EXPECT_NO_THROW(f2.get());
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(ServeBackpressureTest, BlockPolicyLosesNothingUnderPressure) {
  auto extractor = make_frozen_extractor();
  const auto clips = make_clips(4);
  // Capacity 2 with 2 workers: producers must repeatedly wait for space.
  serve::InferenceServer server(
      extractor, config_with(/*workers=*/2, /*max_batch=*/2,
                             /*capacity=*/2, serve::OverflowPolicy::kBlock));
  constexpr std::size_t kRequests = 24;
  std::vector<std::future<core::ExtractionResult>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit(clips[i % clips.size()]));
  }
  server.drain();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_LE(stats.queue_depth_max, 2u);
}

// ---- lifecycle ------------------------------------------------------------------

TEST(ServeLifecycleTest, DrainCompletesEverythingThenRefusesSubmit) {
  auto extractor = make_frozen_extractor();
  const auto clips = make_clips(2);
  serve::InferenceServer server(
      extractor, config_with(/*workers=*/2, /*max_batch=*/4,
                             /*capacity=*/64, serve::OverflowPolicy::kBlock));
  std::vector<std::future<core::ExtractionResult>> futures;
  for (std::size_t i = 0; i < 10; ++i) {
    futures.push_back(server.submit(clips[i % clips.size()]));
  }
  server.drain();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_NO_THROW(f.get());
  }
  EXPECT_EQ(server.stats().completed, 10u);
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_THROW(server.submit(clips[0]), serve::ServerStoppedError);
}

TEST(ServeLifecycleTest, ShutdownCancelsQueuedRequests) {
  auto extractor = make_frozen_extractor();
  const auto clips = make_clips(3);
  serve::InferenceServer server(
      extractor, config_with(/*workers=*/0, /*max_batch=*/8,
                             /*capacity=*/8, serve::OverflowPolicy::kBlock));
  auto f0 = server.submit(clips[0]);
  auto f1 = server.submit(clips[1]);
  server.shutdown();
  EXPECT_THROW(f0.get(), serve::ServerStoppedError);
  EXPECT_THROW(f1.get(), serve::ServerStoppedError);
  EXPECT_EQ(server.stats().cancelled, 2u);
  EXPECT_THROW(server.submit(clips[2]), serve::ServerStoppedError);
  server.shutdown();  // idempotent
}

// A producer parked in a kBlock push on a full queue, woken by shutdown(),
// gets ServerStoppedError from submit() instead of a future: its record
// closes as rejected and serve.rejected counts it, so a record never exists
// without its counter and conservation still holds.
TEST(ServeLifecycleTest, ShutdownWokenBlockedSubmitIsCountedAsRejected) {
  auto registry = std::make_shared<obs::Registry>();
  serve::ServerConfig cfg = config_with(/*workers=*/0, /*max_batch=*/8,
                                        /*capacity=*/1,
                                        serve::OverflowPolicy::kBlock);
  cfg.metrics = registry;
  serve::InferenceServer server(make_frozen_extractor(), cfg);
  const auto clips = make_clips(2);
  obs::Recorder::global().clear();

  auto queued = server.submit(clips[0]);  // fills the queue
  shutdown_under_parked_producer(server, clips[1], /*in_flight_before=*/1);
  EXPECT_THROW(queued.get(), serve::ServerStoppedError);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(registry->counter("serve.rejected").value(), 1u);
  EXPECT_EQ(registry->counter("serve.cancelled").value(), 1u);
  EXPECT_EQ(server_records(obs::Recorder::Outcome::kRejected), 1u);
  EXPECT_EQ(server_records(obs::Recorder::Outcome::kCancelled), 1u);
  EXPECT_EQ(server_records(obs::Recorder::Outcome::kInFlight), 0u);
}

// A clip whose geometry the model rejects must fail only its own future —
// via the model's typed exception — and never take down a worker.
TEST(ServeLifecycleTest, ModelErrorPropagatesThroughFuture) {
  auto extractor = make_frozen_extractor();
  serve::InferenceServer server(
      extractor, config_with(/*workers=*/1, /*max_batch=*/4,
                             /*capacity=*/8, serve::OverflowPolicy::kBlock));
  sim::VideoClip bad;
  bad.frames = 1;  // model expects 2 frames
  bad.height = bad.width = 8;
  bad.data.assign(static_cast<std::size_t>(1 * sim::kNumChannels * 8 * 8),
                  0.5f);
  auto bad_future = server.submit(bad);
  EXPECT_THROW(bad_future.get(), std::invalid_argument);

  // The worker survives and serves the next request.
  const auto clips = make_clips(1);
  auto good_future = server.submit(clips[0]);
  server.drain();
  EXPECT_NO_THROW(good_future.get());
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// A malformed clip is refused at submit(): it never shares a batch with the
// clips behind it, so it fails alone — no innocent request fails with it, no
// worker dies, and the breaker (set to trip on a single fault) stays shut.
TEST(ServeLifecycleTest, MalformedClipFailsAloneWithoutFaultingTheWorker) {
  auto extractor = make_frozen_extractor();
  serve::ServerConfig cfg =
      config_with(/*workers=*/1, /*max_batch=*/4, /*capacity=*/8,
                  serve::OverflowPolicy::kBlock);
  // A window long enough that the bad clip and the good ones behind it
  // would form one batch if the bad clip reached the queue.
  cfg.batch_window = std::chrono::milliseconds(50);
  cfg.circuit.fault_threshold = 1;
  sdl::SlotLabels labels{};
  std::array<float, sdl::kNumSlots> confidence{};
  confidence.fill(1.0f);
  cfg.fallback = std::make_shared<serve::MajorityFallback>(labels, confidence);
  cfg.metrics = std::make_shared<obs::Registry>();
  serve::InferenceServer server(extractor, cfg);

  sim::VideoClip bad;
  bad.frames = 1;  // model expects 2 frames
  bad.height = bad.width = 8;
  bad.data.assign(static_cast<std::size_t>(1 * sim::kNumChannels * 8 * 8),
                  0.5f);
  const auto clips = make_clips(3);
  auto bad_future = server.submit(bad);
  std::vector<std::future<core::ExtractionResult>> good;
  for (const auto& clip : clips) good.push_back(server.submit(clip));
  server.drain();

  EXPECT_THROW(bad_future.get(), std::invalid_argument);
  for (std::size_t i = 0; i < clips.size(); ++i) {
    expect_identical(good[i].get(), extractor->extract(clips[i]));
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.worker_faults, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, clips.size());
  EXPECT_EQ(stats.degraded_completions, 0u);
  EXPECT_EQ(server.circuit_state(), serve::CircuitState::kClosed);
}

// ---- stress: no lost or duplicated requests -------------------------------------

// 10k submissions from 8 producer threads. Every future must resolve with
// the result of exactly its own clip (catching lost, duplicated, and
// cross-wired responses), and the server counters must balance.
TEST(ServeStressTest, EightProducersTenThousandRequests) {
  auto extractor = make_frozen_extractor();
  constexpr std::size_t kProducers = 8;
  constexpr std::size_t kPerProducer = 1250;
  constexpr std::size_t kTotal = kProducers * kPerProducer;  // 10'000

  // A small pool of distinct clips with precomputed sequential results.
  const auto clips = make_clips(kProducers);
  std::vector<core::ExtractionResult> expected;
  for (const auto& clip : clips) expected.push_back(extractor->extract(clip));

  serve::InferenceServer server(
      extractor, config_with(/*workers=*/4, /*max_batch=*/32,
                             /*capacity=*/256, serve::OverflowPolicy::kBlock));

  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> resolved{0};
  serve::ThreadPool::run(kProducers, [&](std::size_t p) {
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      const std::size_t which = (p + i) % clips.size();
      std::future<core::ExtractionResult> future =
          server.submit(clips[which]);
      const core::ExtractionResult result = future.get();
      resolved.fetch_add(1, std::memory_order_relaxed);
      if (!(result.description == expected[which].description &&
            result.confidence == expected[which].confidence)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  server.drain();

  EXPECT_EQ(resolved.load(), kTotal);
  EXPECT_EQ(mismatches.load(), 0u);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.completed, kTotal);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.latency.count(), kTotal);
  // Every dispatched batch is accounted for and within the configured bound.
  std::uint64_t batched = 0;
  for (std::size_t s = 0; s < stats.batch_size_counts.size(); ++s) {
    batched += stats.batch_size_counts[s] * s;
  }
  EXPECT_EQ(batched, kTotal);
}

// ---- accounting agreement --------------------------------------------------------

// Every outcome count a server reports derives from the request's own flight
// record, so the three views of one run — records in the ring, registry
// counters and ServerStats — agree exactly. Driven over a seeded mix of
// every outcome: completions, injected worker faults, expiry at submit and
// at the batcher's scrub, sheds, rejects, shutdown cancels and a
// shutdown-woken kBlock submit.
TEST(ServeAccountingTest, RecordsCountersAndStatsAgreeOnEveryOutcome) {
  using Clock = serve::InferenceServer::Clock;
  using Outcome = obs::Recorder::Outcome;
  auto registry = std::make_shared<obs::Registry>();
  const auto extractor = make_frozen_extractor();
  const auto clips = make_clips(4);
  const auto make_server = [&](serve::OverflowPolicy policy) {
    serve::ServerConfig cfg = config_with(/*workers=*/0, /*max_batch=*/2,
                                          /*capacity=*/6, policy);
    cfg.metrics = registry;
    return std::make_unique<serve::InferenceServer>(extractor, cfg);
  };
  obs::Recorder::global().clear();
  std::mt19937_64 rng(20241017);
  std::vector<serve::ServerStats> stats;

  // Inline servers (workers = 0): nothing dispatches until drain(), so the
  // overflow policy sees every submission of the mix.
  for (const serve::OverflowPolicy policy :
       {serve::OverflowPolicy::kReject, serve::OverflowPolicy::kShedOldest}) {
    auto server = make_server(policy);
    std::vector<std::future<core::ExtractionResult>> futures;
    Clock::time_point last_deadline = Clock::now();
    for (std::size_t i = 0; i < 12; ++i) {
      std::optional<Clock::time_point> deadline;
      switch (rng() % 4) {
        case 0:  // already past: expires at submit
          deadline = Clock::now() - std::chrono::milliseconds(1);
          break;
        case 1:  // passes while queued: expires at the batcher's scrub
          deadline = Clock::now() + std::chrono::milliseconds(5);
          last_deadline = std::max(last_deadline, *deadline);
          break;
        default:  // no deadline: completes, or fails on the injected fault
          break;
      }
      try {
        futures.push_back(server->submit(clips[i % clips.size()], deadline));
      } catch (const serve::QueueFullError&) {
        // kReject: counted as rejected
      }
    }
    // Every queued deadline has passed before the inline drain scrubs.
    while (Clock::now() <= last_deadline) std::this_thread::yield();
    fault::FaultPlan plan;
    plan.throw_on_extract_calls = {1};  // the first batch faults
    {
      fault::ScopedFaultPlan armed(plan);
      server->drain();
    }
    for (auto& future : futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
    }
    stats.push_back(server->stats());
  }
  // kBlock: two queued requests cancelled by shutdown(), plus a producer
  // parked in push that shutdown() wakes.
  {
    auto server = make_server(serve::OverflowPolicy::kBlock);
    std::vector<std::future<core::ExtractionResult>> futures;
    for (std::size_t i = 0; i < 6; ++i) {
      futures.push_back(server->submit(clips[i % clips.size()]));
    }
    shutdown_under_parked_producer(*server, clips[0],
                                   /*in_flight_before=*/6);
    for (auto& future : futures) {
      EXPECT_THROW(future.get(), serve::ServerStoppedError);
    }
    stats.push_back(server->stats());
  }

  const auto stat_sum = [&](std::uint64_t serve::ServerStats::*field) {
    std::uint64_t total = 0;
    for (const serve::ServerStats& s : stats) total += s.*field;
    return total;
  };
  const auto counter = [&](const char* name) {
    return registry->counter(name).value();
  };
  struct Row {
    const char* counter;
    std::uint64_t serve::ServerStats::*field;
    std::uint64_t records;
  };
  const std::array<Row, 7> rows{{
      {"serve.completed", &serve::ServerStats::completed,
       server_records(Outcome::kCompleted) +
           server_records(Outcome::kDegraded)},
      {"serve.degraded_completions", &serve::ServerStats::degraded_completions,
       server_records(Outcome::kDegraded)},
      {"serve.failed", &serve::ServerStats::failed,
       server_records(Outcome::kFailed)},
      {"serve.deadline_expired", &serve::ServerStats::deadline_expired,
       server_records(Outcome::kDeadlineExpired)},
      {"serve.shed", &serve::ServerStats::shed, server_records(Outcome::kShed)},
      {"serve.cancelled", &serve::ServerStats::cancelled,
       server_records(Outcome::kCancelled)},
      {"serve.rejected", &serve::ServerStats::rejected,
       server_records(Outcome::kRejected)},
  }};
  for (const Row& row : rows) {
    EXPECT_EQ(counter(row.counter), row.records) << row.counter;
    EXPECT_EQ(stat_sum(row.field), row.records) << row.counter;
  }
  EXPECT_EQ(server_records(Outcome::kInFlight), 0u);
  // The seeded mix exercised every outcome but the degraded one.
  for (const Row& row : rows) {
    if (row.field != &serve::ServerStats::degraded_completions) {
      EXPECT_GT(row.records, 0u) << row.counter;
    }
  }
  // Conservation after drain/shutdown: every submitted request resolved.
  const std::uint64_t resolved =
      stat_sum(&serve::ServerStats::completed) +
      stat_sum(&serve::ServerStats::failed) +
      stat_sum(&serve::ServerStats::deadline_expired) +
      stat_sum(&serve::ServerStats::shed) +
      stat_sum(&serve::ServerStats::cancelled);
  EXPECT_EQ(stat_sum(&serve::ServerStats::submitted), resolved);
  EXPECT_EQ(counter("serve.submitted"), resolved);
}

// ---- queue timed pop: the spurious-wakeup contract ------------------------------

// try_pop_until must return std::nullopt only when the deadline has
// genuinely elapsed — never early.
TEST(BoundedQueueTimedPopTest, TimesOutOnlyAtTheDeadline) {
  serve::BoundedQueue<int> queue(4, serve::OverflowPolicy::kBlock);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  EXPECT_FALSE(queue.try_pop_until(deadline).has_value());
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
  // A deadline already in the past degrades to a non-waiting try_pop.
  queue.push(7);
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(queue.try_pop_until(past), 7);
}

// Regression for the audited wakeup path in BoundedQueue::try_pop_until
// (see the contract comment in queue.hpp): push() notifies the timed
// waiter, but a faster consumer can steal the item before the waiter
// reacquires the lock. The waiter then wakes to an *empty* queue with time
// left on the clock — exactly the shape of a spurious wakeup — and must
// re-wait for the follow-up item instead of reporting a timeout. The steal
// is a race, so the test runs many jittered rounds and asserts the
// invariant whichever way each round's race resolves.
TEST(BoundedQueueTimedPopTest, WakeupFindingQueueEmptyReWaits) {
  for (int round = 0; round < 100; ++round) {
    serve::BoundedQueue<int> queue(4, serve::OverflowPolicy::kBlock);
    std::optional<int> got;
    serve::ThreadPool waiter;
    waiter.spawn(1, [&](std::size_t) {
      got = queue.try_pop_until(std::chrono::steady_clock::now() +
                                std::chrono::seconds(20));
    });
    // Jitter so successive rounds catch the waiter at different points
    // (not yet waiting, parked in the wait, mid-wakeup).
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 4)));
    queue.push(1);
    const std::optional<int> stolen = queue.try_pop();  // races the waiter
    queue.push(2);
    waiter.join();
    ASSERT_TRUE(got.has_value())
        << "round " << round << ": waiter timed out 20s early (stole="
        << stolen.has_value() << ")";
    EXPECT_EQ(*got, stolen ? 2 : 1) << "round " << round;
  }
}

// ---- stats surface --------------------------------------------------------------

TEST(ServeStatsTest, PercentilesAreExactOnKnownSamples) {
  serve::LatencyHistogram hist;
  for (int i = 1; i <= 100; ++i) hist.record(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(hist.percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(hist.percentile(95.0), 95.0);
  EXPECT_DOUBLE_EQ(hist.percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 50.5);
  EXPECT_DOUBLE_EQ(hist.max(), 100.0);
  EXPECT_DOUBLE_EQ(serve::LatencyHistogram().percentile(99.0), 0.0);
}

TEST(ServeStatsTest, SnapshotTracksQueueAndBatches) {
  auto extractor = make_frozen_extractor();
  const auto clips = make_clips(5);
  serve::InferenceServer server(
      extractor, config_with(/*workers=*/0, /*max_batch=*/2,
                             /*capacity=*/8, serve::OverflowPolicy::kBlock));
  for (const auto& clip : clips) (void)server.submit(clip);
  EXPECT_EQ(server.stats().queue_depth, 5u);
  server.drain();
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.queue_depth_max, 5u);
  EXPECT_EQ(stats.queue_capacity, 8u);
  // 5 requests with max_batch=2 -> batches of 2, 2, 1.
  EXPECT_EQ(stats.batches(), 3u);
  EXPECT_EQ(stats.batch_size_counts[2], 2u);
  EXPECT_EQ(stats.batch_size_counts[1], 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 5.0 / 3.0);
  EXPECT_EQ(stats.latency.count(), 5u);
  EXPECT_LE(stats.latency.percentile(50.0), stats.latency.percentile(99.0));
  EXPECT_FALSE(serve::ServerStats::table_header().empty());
  EXPECT_FALSE(stats.table_row("workers=0").empty());
}
