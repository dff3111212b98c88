// obs_test.cpp — the observability layer's contracts: exact-percentile edge
// cases (shared by serve stats and every bench table), the metrics registry
// (counters/gauges/histograms + JSON/Prometheus exposition), and span
// tracing — mode gating, context propagation across the tsdx::par pool, and
// the end-to-end guarantee that one submitted request produces a single
// trace ID spanning queue -> batch -> extract -> model layers -> GEMM.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/extractor.hpp"
#include "core/lockorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/thread_pool.hpp"
#include "sim/clipgen.hpp"
#include "tensor/kernels/parallel_for.hpp"

namespace core = tsdx::core;
namespace obs = tsdx::obs;
namespace trace = tsdx::obs::trace;
namespace par = tsdx::par;
namespace serve = tsdx::serve;
namespace sim = tsdx::sim;

namespace {

/// Reset tracing around a test so a binary-wide run (not just ctest's
/// one-process-per-test) can't leak spans or a mode between tests.
struct TraceReset {
  explicit TraceReset(trace::Mode mode) {
    trace::set_mode(mode);
    trace::clear();
  }
  ~TraceReset() {
    trace::set_mode(trace::Mode::kOff);
    trace::clear();
  }
};

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

std::shared_ptr<core::ScenarioExtractor> make_frozen_extractor() {
  auto extractor =
      std::make_shared<core::ScenarioExtractor>(micro_config(), /*seed=*/7);
  extractor->freeze();
  return extractor;
}

std::vector<sim::VideoClip> make_clips(std::size_t count) {
  const core::ModelConfig cfg = micro_config();
  sim::RenderConfig render;
  render.height = render.width = cfg.image_size;
  render.frames = cfg.frames;
  sim::ClipGenerator gen(render, /*seed=*/11);
  std::vector<sim::VideoClip> clips;
  clips.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    clips.push_back(gen.generate().video);
  }
  return clips;
}

std::set<std::string> span_names(const std::vector<trace::SpanEvent>& events,
                                 std::uint64_t trace_id) {
  std::set<std::string> names;
  for (const trace::SpanEvent& e : events) {
    if (e.trace_id == trace_id) names.insert(e.name);
  }
  return names;
}

}  // namespace

// ---- percentile edge cases -------------------------------------------------------

// The contract printers and bench tables rely on: no special-casing needed
// at any sample count.
TEST(ObsPercentileTest, EmptySampleSetReturnsZero) {
  EXPECT_EQ(obs::percentile({}, 50.0), 0.0);
  EXPECT_EQ(obs::percentile({}, 99.0), 0.0);
}

TEST(ObsPercentileTest, SingleSampleAnswersEveryPercentile) {
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(obs::percentile({42.5}, p), 42.5) << "p=" << p;
  }
}

// p99 over n < 100 samples must resolve to the maximum, never index past
// the end (nearest-rank: ceil(0.99 * 10) = 10 -> last sample).
TEST(ObsPercentileTest, TailPercentileOverFewSamplesIsTheMaximum) {
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(static_cast<double>(i));
  EXPECT_EQ(obs::percentile(ten, 99.0), 10.0);
  EXPECT_EQ(obs::percentile(ten, 95.0), 10.0);
  EXPECT_EQ(obs::percentile(ten, 90.0), 9.0);
}

TEST(ObsPercentileTest, ZeroIsMinimumAndHundredIsMaximum) {
  const std::vector<double> samples{3.0, 1.0, 2.0};  // unsorted on purpose
  EXPECT_EQ(obs::percentile(samples, 0.0), 1.0);
  EXPECT_EQ(obs::percentile(samples, 100.0), 3.0);
}

TEST(ObsPercentileTest, NearestRankMedianOfEvenCount) {
  // ceil(0.5 * 4) = rank 2 -> the second-smallest sample.
  EXPECT_EQ(obs::percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.0);
}

TEST(ObsPercentileTest, OutOfRangePThrows) {
  EXPECT_THROW(obs::percentile({1.0}, -1.0), tsdx::ValueError);
  EXPECT_THROW(obs::percentile({1.0}, 100.5), tsdx::ValueError);
}

TEST(ObsLatencyHistogramTest, EmptyDistributionIsAllZeros) {
  const obs::LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.mean(), 0.0);
  EXPECT_EQ(hist.max(), 0.0);
  EXPECT_EQ(hist.percentile(99.0), 0.0);
}

TEST(ObsLatencyHistogramTest, RecordsAndSummarizes) {
  obs::LatencyHistogram hist;
  hist.record(1.0);
  hist.record(3.0);
  hist.record(2.0);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.mean(), 2.0);
  EXPECT_EQ(hist.max(), 3.0);
  EXPECT_EQ(hist.percentile(50.0), 2.0);
}

// The reservoir fix: storage stays bounded past kReservoirCapacity while
// count/mean/min/max remain exact running aggregates and p0/p100 are pinned
// to the true extremes. The replacement draw is a hash of the running count,
// so two histograms fed the same sequence agree on every percentile.
TEST(ObsLatencyHistogramTest, ReservoirBoundsStorageAndKeepsExactAggregates) {
  obs::LatencyHistogram hist;
  obs::LatencyHistogram twin;
  const std::size_t n = 3 * obs::LatencyHistogram::kReservoirCapacity;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // A deterministic shuffle-ish sequence covering [0, n).
    const double v = static_cast<double>((i * 7919) % n);
    hist.record(v);
    twin.record(v);
    sum += v;
  }
  EXPECT_EQ(hist.count(), n);
  EXPECT_EQ(hist.samples().size(), obs::LatencyHistogram::kReservoirCapacity);
  EXPECT_DOUBLE_EQ(hist.mean(), sum / static_cast<double>(n));
  EXPECT_EQ(hist.min(), 0.0);
  EXPECT_EQ(hist.max(), static_cast<double>(n - 1));
  // p0/p100 answer from the running extremes, not the reservoir.
  EXPECT_EQ(hist.percentile(0.0), 0.0);
  EXPECT_EQ(hist.percentile(100.0), static_cast<double>(n - 1));
  // The reservoir estimate is a uniform sample of a uniform distribution:
  // the median lands near n/2 (loose bound; determinism is what's pinned).
  const double p50 = hist.percentile(50.0);
  EXPECT_GT(p50, 0.35 * static_cast<double>(n));
  EXPECT_LT(p50, 0.65 * static_cast<double>(n));
  for (const double p : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0}) {
    EXPECT_EQ(hist.percentile(p), twin.percentile(p))
        << "reservoir not deterministic at p=" << p;
  }
}

// Below the capacity nothing changed: every sample is retained verbatim and
// percentiles are exact (the original contract, now with a bounded tail).
TEST(ObsLatencyHistogramTest, BelowCapacityPercentilesStayExact) {
  obs::LatencyHistogram hist;
  for (int i = 100; i >= 1; --i) hist.record(static_cast<double>(i));
  EXPECT_EQ(hist.samples().size(), 100u);
  EXPECT_EQ(hist.percentile(50.0), 50.0);
  EXPECT_EQ(hist.percentile(99.0), 99.0);
  EXPECT_EQ(hist.percentile(100.0), 100.0);
}

// ---- metrics registry ------------------------------------------------------------

TEST(ObsMetricsTest, CounterAccumulates) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(ObsMetricsTest, GaugeSetAddAndHighWatermark) {
  obs::Gauge gauge;
  gauge.set(5);
  gauge.add(-2);
  EXPECT_EQ(gauge.value(), 3);
  gauge.update_max(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.update_max(4);  // below the watermark: no change
  EXPECT_EQ(gauge.value(), 10);
}

TEST(ObsMetricsTest, HistogramBucketsSumAndQuantiles) {
  obs::Histogram hist({1.0, 2.0, 4.0});
  EXPECT_EQ(hist.quantile(50.0), 0.0);  // empty
  hist.observe(0.5);
  hist.observe(1.5);
  hist.observe(3.0);
  hist.observe(100.0);  // +Inf overflow bucket
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 105.0);
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(3), 1u);  // the +Inf bucket
  // Nearest rank 2 of 4 lands in the (1, 2] bucket -> its upper bound.
  EXPECT_EQ(hist.quantile(50.0), 2.0);
  // The +Inf bucket answers with the largest finite bound.
  EXPECT_EQ(hist.quantile(100.0), 4.0);
}

TEST(ObsMetricsTest, RegistryReturnsTheSameMetricForAName) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("requests");
  obs::Counter& b = registry.counter("requests");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(ObsMetricsTest, RegistryRejectsOneNameAsTwoKinds) {
  obs::Registry registry;
  registry.counter("serve.depth");
  EXPECT_THROW(registry.gauge("serve.depth"), tsdx::ValueError);
  EXPECT_THROW(registry.histogram("serve.depth"), tsdx::ValueError);
}

// First-touch registration under contention: 8 threads race to create the
// same metric names on a fresh registry and then hammer them. Exactly one
// object per name may exist (everyone's increments land in it) and the maps
// must survive concurrent mutation — the scenario TSan replays with this
// whole suite under the tsan preset. This is the regression test for the
// registry's lock discipline: its mutex is annotated and rank-checked, so
// the validator (enabled here) would also flag any ordering hole.
TEST(ObsMetricsTest, RegistryFirstTouchStress) {
  tsdx::lockorder::ScopedEnable lock_order;
  obs::Registry registry;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kIncrements = 200;
  std::array<obs::Counter*, kThreads> seen{};
  serve::ThreadPool::run(kThreads, [&](std::size_t t) {
    // Every thread first-touches all three kinds plus a per-thread name, so
    // the maps rehash while other threads are resolving references.
    obs::Counter& counter = registry.counter("stress.shared");
    seen[t] = &counter;
    obs::Gauge& gauge = registry.gauge("stress.gauge");
    obs::Histogram& histogram = registry.histogram("stress.hist", {1.0, 8.0});
    registry.counter("stress.thread." + std::to_string(t)).inc();
    for (std::uint64_t i = 0; i < kIncrements; ++i) {
      counter.inc();
      gauge.update_max(static_cast<std::int64_t>(i));
      histogram.observe(static_cast<double>(t));
    }
  });
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(registry.counter("stress.shared").value(), kThreads * kIncrements);
  EXPECT_EQ(registry.histogram("stress.hist").count(), kThreads * kIncrements);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.counter("stress.thread." + std::to_string(t)).value(),
              1u);
  }
}

TEST(ObsMetricsTest, JsonAndPrometheusExposition) {
  obs::Registry registry;
  registry.counter("gemm.calls").inc(3);
  registry.gauge("queue.depth").set(-2);
  registry.histogram("lat.ms", {1.0, 10.0}).observe(5.0);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"gemm.calls\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue.depth\": -2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat.ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos) << json;
  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("# TYPE gemm_calls counter"), std::string::npos) << prom;
  EXPECT_NE(prom.find("gemm_calls 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE queue_depth gauge"), std::string::npos) << prom;
  // Histogram series: cumulative buckets with le labels plus _sum/_count.
  EXPECT_NE(prom.find("lat_ms_bucket{le=\"+Inf\"} 1"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("lat_ms_count 1"), std::string::npos) << prom;
}

// Trace-ID exemplars: an observation that carries a trace ID is remembered
// on its bucket and rendered as an OpenMetrics exemplar, linking the
// histogram's slow tail to a concrete flight-recorder trace.
TEST(ObsMetricsTest, HistogramExemplarsLinkBucketsToTraces) {
  obs::Registry registry;
  obs::Histogram& hist = registry.histogram("seg.ms", {1.0, 10.0});
  hist.observe(0.5);        // untraced: no exemplar on bucket 0
  hist.observe(5.0, 77);    // traced: exemplar on the (1, 10] bucket
  hist.observe(100.0, 78);  // traced: exemplar on the +Inf bucket
  EXPECT_EQ(hist.exemplar(0).trace_id, 0u);
  EXPECT_EQ(hist.exemplar(1).trace_id, 77u);
  EXPECT_DOUBLE_EQ(hist.exemplar(1).value, 5.0);
  EXPECT_EQ(hist.exemplar(2).trace_id, 78u);
  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("seg_ms_bucket{le=\"10\"} 2 # {trace_id=\"77\"} 5"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("seg_ms_bucket{le=\"+Inf\"} 3 # {trace_id=\"78\"} 100"),
            std::string::npos)
      << prom;
  // The untraced bucket renders without a suffix.
  EXPECT_NE(prom.find("seg_ms_bucket{le=\"1\"} 1\n"), std::string::npos)
      << prom;
  // A later traced observation in the same bucket wins (latest exemplar).
  hist.observe(6.0, 79);
  EXPECT_EQ(hist.exemplar(1).trace_id, 79u);
}

// ---- flight recorder -------------------------------------------------------------

TEST(ObsRecorderTest, LifecycleDerivesSegmentsThatSumToEndToEnd) {
  obs::Recorder recorder;
  obs::Registry registry;
  obs::SloEngine slo(obs::SloConfig{}, &registry);
  const obs::Recorder::ServerAccounts accounts(registry, &slo);
  obs::Recorder::Record rec =
      recorder.begin(obs::Recorder::Kind::kServer, /*trace_id=*/77);
  ASSERT_NE(rec.id, 0u);
  // The serving layer writes milestones straight into its record.
  rec.enqueue_ns = recorder.now_ns();
  rec.dispatch_ns = recorder.now_ns();
  rec.execute_ns = recorder.now_ns();
  rec.batch_id = recorder.mint_batch_id();
  rec.batch_size = 4;
  rec.worker = 1;
  const std::optional<double> e2e_ms =
      recorder.finish(rec, obs::Recorder::Outcome::kCompleted, accounts);

  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 1u);
  const obs::Recorder::Record& r = records[0];
  EXPECT_EQ(r.trace_id, 77u);
  EXPECT_EQ(r.outcome, obs::Recorder::Outcome::kCompleted);
  EXPECT_EQ(r.batch_size, 4u);
  EXPECT_EQ(r.worker, 1);
  EXPECT_GE(r.batch_id, 1u);
  // Timeline is monotone through the milestones.
  EXPECT_LE(r.submit_ns, r.enqueue_ns);
  EXPECT_LE(r.enqueue_ns, r.dispatch_ns);
  EXPECT_LE(r.dispatch_ns, r.execute_ns);
  EXPECT_LE(r.execute_ns, r.done_ns);

  // The derived segments partition e2e exactly — the obs_report.py
  // attribution gate depends on this invariant, pinned here at the source.
  const char* segments[] = {"obs.segment_ms.admission", "obs.segment_ms.queue",
                            "obs.segment_ms.batch_wait",
                            "obs.segment_ms.execute"};
  double attributed = 0.0;
  for (const char* name : segments) {
    obs::Histogram& hist = registry.histogram(name);
    EXPECT_EQ(hist.count(), 1u) << name;
    attributed += hist.sum();
  }
  obs::Histogram& e2e = registry.histogram("obs.e2e_ms");
  EXPECT_EQ(e2e.count(), 1u);
  EXPECT_NEAR(e2e.sum(), attributed, 1e-9);
  // finish() hands the same e2e back (the server's exact sample store), and
  // the outcome counter comes from the same record.
  ASSERT_TRUE(e2e_ms.has_value());
  EXPECT_DOUBLE_EQ(*e2e_ms, e2e.sum());
  EXPECT_EQ(registry.counter("serve.completed").value(), 1u);

  // And the JSON export carries the full schema trace_check.py validates.
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"trace_id\": 77"), std::string::npos) << json;
  EXPECT_NE(json.find("\"outcome\": \"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"batch_size\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"server\""), std::string::npos);
}

// begin() publishes the record's begin-time fields, so an in-flight request
// is visible in the ring (and in any anomaly dump) before it finishes.
TEST(ObsRecorderTest, BeginPublishesAnInFlightRecord) {
  obs::Recorder recorder;
  const obs::Recorder::Record rec =
      recorder.begin(obs::Recorder::Kind::kRouter, /*trace_id=*/31);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, rec.id);
  EXPECT_EQ(records[0].trace_id, 31u);
  EXPECT_EQ(records[0].kind, obs::Recorder::Kind::kRouter);
  EXPECT_EQ(records[0].outcome, obs::Recorder::Outcome::kInFlight);
  EXPECT_EQ(records[0].submit_ns, rec.submit_ns);
}

// Requests that never reach later milestones clamp the missing segments to
// zero length, so the partition invariant holds even for an expired request
// that was never dispatched — and expired/shed records stay out of the
// histograms entirely.
TEST(ObsRecorderTest, MissingMilestonesClampAndNonServedStayUnobserved) {
  obs::Recorder recorder;
  obs::Registry registry;
  obs::SloEngine slo(obs::SloConfig{}, &registry);
  const obs::Recorder::ServerAccounts accounts(registry, &slo);
  // Failed after enqueue, never dispatched: queue/batch_wait/execute clamp.
  obs::Recorder::Record failed =
      recorder.begin(obs::Recorder::Kind::kServer, 1);
  failed.enqueue_ns = recorder.now_ns();
  recorder.finish(failed, obs::Recorder::Outcome::kFailed, accounts);
  EXPECT_EQ(registry.histogram("obs.e2e_ms").count(), 1u);
  EXPECT_EQ(registry.histogram("obs.segment_ms.execute").count(), 1u);
  // Deadline-expired: timeline kept in the ring, histograms untouched.
  obs::Recorder::Record expired =
      recorder.begin(obs::Recorder::Kind::kServer, 2);
  EXPECT_FALSE(recorder
                   .finish(expired, obs::Recorder::Outcome::kDeadlineExpired,
                           accounts)
                   .has_value());
  EXPECT_EQ(registry.histogram("obs.e2e_ms").count(), 1u);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].outcome, obs::Recorder::Outcome::kDeadlineExpired);
  EXPECT_EQ(registry.counter("serve.failed").value(), 1u);
  EXPECT_EQ(registry.counter("serve.deadline_expired").value(), 1u);
}

TEST(ObsRecorderTest, RouterRecordAccumulatesRetriesIntoBackoffHistogram) {
  obs::Recorder recorder;
  obs::Registry registry;
  const obs::Recorder::RouterAccounts accounts(registry);
  obs::Recorder::Record rec = recorder.begin(obs::Recorder::Kind::kRouter, 9);
  rec.admission = "admitted";
  rec.replica = 2;
  // Two retries, the first a failover, as the Router's retry loop writes
  // them.
  rec.attempts = 2;
  rec.failovers = 1;
  rec.backoff_ns = 1'000'000 + 2'000'000;
  recorder.finish(rec, obs::Recorder::Outcome::kFailed, accounts);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].attempts, 2u);
  EXPECT_EQ(records[0].failovers, 1u);
  EXPECT_EQ(records[0].backoff_ns, 3'000'000);
  EXPECT_EQ(records[0].replica, 2);
  obs::Histogram& backoff =
      registry.histogram("obs.segment_ms.retry_backoff");
  EXPECT_EQ(backoff.count(), 1u);
  EXPECT_DOUBLE_EQ(backoff.sum(), 3.0);
  // The route.* counters derive from the same record.
  EXPECT_EQ(registry.counter("route.failed").value(), 1u);
  EXPECT_EQ(registry.counter("route.retries").value(), 2u);
  EXPECT_EQ(registry.counter("route.failovers").value(), 1u);
  // Router records never feed the server-side e2e partition.
  EXPECT_EQ(registry.histogram("obs.e2e_ms").count(), 0u);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"admission\": \"admitted\""), std::string::npos);
}

// The ring is a diagnostic buffer, not a ledger: a record whose slot the
// ring has lapped is not written back over the younger record that now owns
// the slot — but finish() still derives its accounting, so a lapped ring
// never loses a count.
TEST(ObsRecorderTest, LappedRecordsStillCountButStayOutOfTheRing) {
  obs::Recorder recorder;
  obs::Registry registry;
  obs::SloEngine slo(obs::SloConfig{}, &registry);
  const obs::Recorder::ServerAccounts accounts(registry, &slo);
  obs::Recorder::Record old_record =
      recorder.begin(obs::Recorder::Kind::kServer, 5);
  for (std::size_t i = 0; i < obs::Recorder::kRingCapacity; ++i) {
    recorder.begin(obs::Recorder::Kind::kServer, 0);
  }
  old_record.dispatch_ns = recorder.now_ns();
  recorder.finish(old_record, obs::Recorder::Outcome::kCompleted, accounts);
  // The lapped finish counted...
  EXPECT_EQ(registry.histogram("obs.e2e_ms").count(), 1u);
  EXPECT_EQ(registry.counter("serve.completed").value(), 1u);
  EXPECT_EQ(slo.snapshot().good_fast + slo.snapshot().bad_fast, 1u);
  // ...but did not resurface the record.
  for (const obs::Recorder::Record& r : recorder.snapshot()) {
    EXPECT_NE(r.id, old_record.id);
  }
  // A record never begun (id 0) is inert: finish() neither publishes nor
  // counts it.
  obs::Recorder::Record inert;
  EXPECT_FALSE(recorder.finish(inert, obs::Recorder::Outcome::kFailed, accounts)
                   .has_value());
  EXPECT_EQ(registry.histogram("obs.e2e_ms").count(), 1u);
  EXPECT_EQ(registry.counter("serve.failed").value(), 0u);
}

// The SLO event is derived from the closed record: completed/degraded
// records are good within the objective and bad beyond it, failed and
// deadline-expired records are bad, and shed / cancelled / rejected server
// records and every router record send no event at all.
TEST(ObsRecorderTest, SloEventsFollowTheRecordOutcome) {
  obs::Recorder recorder;
  obs::Registry registry;
  obs::SloConfig cfg;
  cfg.latency_objective_ms = 50.0;
  obs::SloEngine slo(cfg, &registry);
  const obs::Recorder::ServerAccounts server(registry, &slo);
  const obs::Recorder::RouterAccounts router(registry);
  using Outcome = obs::Recorder::Outcome;
  const auto close = [&](Outcome outcome, std::int64_t age_ms) {
    obs::Recorder::Record rec = recorder.begin(obs::Recorder::Kind::kServer, 0);
    rec.submit_ns -= age_ms * 1'000'000;
    recorder.finish(rec, outcome, server);
  };
  close(Outcome::kCompleted, 0);        // good
  close(Outcome::kDegraded, 0);         // good
  close(Outcome::kCompleted, 1000);     // bad: over the objective
  close(Outcome::kFailed, 0);           // bad
  close(Outcome::kDeadlineExpired, 0);  // bad
  close(Outcome::kShed, 0);             // no event
  close(Outcome::kCancelled, 0);        // no event
  close(Outcome::kRejected, 0);         // no event
  obs::Recorder::Record routed = recorder.begin(obs::Recorder::Kind::kRouter, 0);
  recorder.finish(routed, Outcome::kFailed, router);  // no event
  const obs::SloSnapshot snap = slo.snapshot();
  EXPECT_EQ(snap.good_fast, 2u);
  EXPECT_EQ(snap.bad_fast, 3u);
}

// ---- SLO engine ------------------------------------------------------------------

TEST(ObsSloTest, BurnRatesTrackBothWindowsAndTheBudget) {
  obs::Registry registry;
  obs::SloConfig cfg;
  cfg.latency_objective_ms = 100.0;
  cfg.target = 0.9;  // error budget = 10%
  obs::SloEngine engine(cfg, &registry);
  const auto t0 = obs::SloEngine::Clock::now();
  for (int i = 0; i < 9; ++i) engine.on_event(true, 10.0, t0);
  engine.on_event(true, 500.0, t0);  // over the objective: a bad event
  const obs::SloSnapshot at_t0 = engine.snapshot(t0);
  EXPECT_EQ(at_t0.good_fast, 9u);
  EXPECT_EQ(at_t0.bad_fast, 1u);
  // 10% bad over a 10% budget: burning at exactly the sustainable rate.
  EXPECT_DOUBLE_EQ(at_t0.burn_rate_fast, 1.0);
  EXPECT_DOUBLE_EQ(at_t0.burn_rate_slow, 1.0);
  EXPECT_NEAR(at_t0.budget_remaining, 0.0, 1e-12);
  // Gauges export in milli-units.
  EXPECT_EQ(registry.gauge("slo.burn_rate_fast").value(), 1000);
  EXPECT_EQ(registry.gauge("slo.budget_remaining").value(), 0);

  // Two minutes later the fast window has forgotten the burst; the slow
  // window is still bleeding — the separation that tells "spiking now"
  // from "quietly burning".
  const auto later = t0 + std::chrono::seconds(120);
  const obs::SloSnapshot at_later = engine.snapshot(later);
  EXPECT_EQ(at_later.good_fast + at_later.bad_fast, 0u);
  EXPECT_EQ(at_later.bad_slow, 1u);
  EXPECT_DOUBLE_EQ(at_later.burn_rate_fast, 0.0);
  EXPECT_DOUBLE_EQ(at_later.burn_rate_slow, 1.0);

  engine.reset();
  const obs::SloSnapshot after_reset = engine.snapshot(later);
  EXPECT_EQ(after_reset.good_slow + after_reset.bad_slow, 0u);
  EXPECT_DOUBLE_EQ(after_reset.budget_remaining, 1.0);
}

TEST(ObsSloTest, FailuresAreBadRegardlessOfLatency) {
  obs::Registry registry;
  obs::SloEngine engine(obs::SloConfig{}, &registry);
  const auto t0 = obs::SloEngine::Clock::now();
  engine.on_event(/*ok=*/false, /*latency_ms=*/0.0, t0);
  const obs::SloSnapshot snap = engine.snapshot(t0);
  EXPECT_EQ(snap.bad_fast, 1u);
  EXPECT_EQ(snap.good_fast, 0u);
}

TEST(ObsSloTest, AnomalyDumpsAreWrittenCappedAndCounted) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "obs_test_slo_dumps";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ::setenv("TSDX_OBS_DUMP_DIR", dir.string().c_str(), 1);
  obs::Registry registry;
  obs::SloConfig cfg;
  cfg.max_dumps_per_kind = 2;
  obs::SloEngine engine(cfg, &registry);
  for (int i = 0; i < 5; ++i) {
    engine.note_anomaly(obs::Anomaly::kRetryStorm, /*trace_id=*/0);
  }
  engine.note_anomaly(obs::Anomaly::kCircuitTrip, /*trace_id=*/0);
  ::unsetenv("TSDX_OBS_DUMP_DIR");

  // Every anomaly is counted; only the first max_dumps_per_kind hit disk.
  EXPECT_EQ(registry.counter("slo.anomalies.retry_storm").value(), 5u);
  EXPECT_EQ(registry.counter("slo.anomalies.circuit_trip").value(), 1u);
  std::size_t storm_dumps = 0;
  std::size_t trip_dumps = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find("retry_storm") != std::string::npos) ++storm_dumps;
    if (name.find("circuit_trip") != std::string::npos) ++trip_dumps;
    std::ifstream in(entry.path());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("\"anomaly\""), std::string::npos);
    EXPECT_NE(body.str().find("\"records\""), std::string::npos);
    EXPECT_NE(body.str().find("\"spans\""), std::string::npos);
  }
  EXPECT_EQ(storm_dumps, 2u);
  EXPECT_EQ(trip_dumps, 1u);

  // reset() re-arms the cap (and restarts the dump sequence, so use a
  // fresh directory to count).
  engine.reset();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ::setenv("TSDX_OBS_DUMP_DIR", dir.string().c_str(), 1);
  engine.note_anomaly(obs::Anomaly::kRetryStorm, 0);
  ::unsetenv("TSDX_OBS_DUMP_DIR");
  storm_dumps = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find("retry_storm") !=
        std::string::npos) {
      ++storm_dumps;
    }
  }
  EXPECT_EQ(storm_dumps, 1u);
  std::filesystem::remove_all(dir);
}

// ---- span tracing ----------------------------------------------------------------

TEST(ObsTraceTest, OffModeRecordsNothingAndMintsInertContexts) {
  TraceReset reset(trace::Mode::kOff);
  const trace::Context ctx = trace::mint();
  EXPECT_EQ(ctx.trace_id, 0u);
  EXPECT_FALSE(ctx.sampled);
  trace::ContextGuard guard(ctx);
  { TSDX_TRACE_SPAN("test.off"); }
  trace::record_span("test.off.explicit", ctx, trace::Clock::now(),
                     trace::Clock::now());
  EXPECT_TRUE(trace::snapshot().empty());
}

TEST(ObsTraceTest, FullModeRecordsSpansUnderTheActiveContext) {
  TraceReset reset(trace::Mode::kFull);
  const trace::Context ctx = trace::mint();
  ASSERT_GT(ctx.trace_id, 0u);
  {
    trace::ContextGuard guard(ctx);
    TSDX_TRACE_SPAN("test.outer");
    { TSDX_TRACE_SPAN("test.inner"); }
  }
  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Ring order is completion order: inner closes first.
  EXPECT_STREQ(events[0].name, "test.inner");
  EXPECT_STREQ(events[1].name, "test.outer");
  for (const trace::SpanEvent& e : events) {
    EXPECT_EQ(e.trace_id, ctx.trace_id);
    EXPECT_GE(e.duration_ns, 0);
  }
  // Nesting: the outer span's interval contains the inner's.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
}

TEST(ObsTraceTest, SampledModeDropsUnsampledTraces) {
  TraceReset reset(trace::Mode::kSampled);
  {
    trace::ContextGuard guard(trace::Context{42, /*sampled=*/false});
    TSDX_TRACE_SPAN("test.unsampled");
  }
  EXPECT_TRUE(trace::snapshot().empty());
  {
    trace::ContextGuard guard(trace::Context{43, /*sampled=*/true});
    TSDX_TRACE_SPAN("test.sampled");
  }
  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.sampled");
  EXPECT_EQ(events[0].trace_id, 43u);
}

TEST(ObsTraceTest, ContextGuardRestoresThePreviousContext) {
  TraceReset reset(trace::Mode::kFull);
  EXPECT_EQ(trace::current().trace_id, 0u);
  {
    trace::ContextGuard outer(trace::Context{7, true});
    EXPECT_EQ(trace::current().trace_id, 7u);
    {
      trace::ContextGuard inner(trace::Context{8, true});
      EXPECT_EQ(trace::current().trace_id, 8u);
    }
    EXPECT_EQ(trace::current().trace_id, 7u);
  }
  EXPECT_EQ(trace::current().trace_id, 0u);
}

TEST(ObsTraceTest, ParallelForCarriesTheContextOntoPoolWorkers) {
  TraceReset reset(trace::Mode::kFull);
  par::set_threads(3);
  const trace::Context ctx = trace::mint();
  {
    trace::ContextGuard guard(ctx);
    par::parallel_for(64, 8, [](std::int64_t, std::int64_t) {
      TSDX_TRACE_SPAN("test.chunk");
    });
  }
  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 8u);  // 64 / grain 8 chunks, one span each
  for (const trace::SpanEvent& e : events) {
    EXPECT_STREQ(e.name, "test.chunk");
    EXPECT_EQ(e.trace_id, ctx.trace_id)
        << "a pool worker ran a chunk outside the publisher's trace";
  }
}

TEST(ObsTraceTest, JsonExportIsChromeTraceShaped) {
  TraceReset reset(trace::Mode::kFull);
  {
    trace::ContextGuard guard(trace::mint());
    TSDX_TRACE_SPAN("test.json");
  }
  const std::string json = trace::to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"test.json\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos) << json;
}

TEST(ObsTraceTest, FlushTraceWritesTheExportToDisk) {
  TraceReset reset(trace::Mode::kFull);
  {
    trace::ContextGuard guard(trace::mint());
    TSDX_TRACE_SPAN("test.flush");
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "obs_test_trace.json")
          .string();
  ASSERT_TRUE(trace::flush_trace(path));
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove(path);
}

// ---- end to end through the server ----------------------------------------------

// The tentpole guarantee: one submitted clip produces one trace ID whose
// spans cover the whole path — queue wait, batch formation, the compiled
// plan's run, GEMM kernel — even though those run on different threads.
TEST(ObsTraceTest, OneRequestIsTracedEndToEndUnderASingleId) {
  TraceReset reset(trace::Mode::kFull);
  auto registry = std::make_shared<obs::Registry>();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.batch_window = std::chrono::microseconds{0};
  cfg.queue_capacity = 8;
  cfg.metrics = registry;
  serve::InferenceServer server(make_frozen_extractor(), cfg);
  const auto clips = make_clips(2);
  for (const auto& clip : clips) server.submit(clip).get();
  server.drain();

  const auto events = trace::snapshot();
  const std::set<std::string> want{
      "serve.submit", "serve.queue_wait", "serve.batch",
      "serve.request", "plan.execute",     "gemm.mm"};
  std::set<std::uint64_t> ids;
  for (const trace::SpanEvent& e : events) ids.insert(e.trace_id);
  std::size_t full_traces = 0;
  for (const std::uint64_t id : ids) {
    const std::set<std::string> names = span_names(events, id);
    if (std::includes(names.begin(), names.end(), want.begin(), want.end())) {
      ++full_traces;
    }
  }
  // Sequential config: every request's batch adopts that request's context,
  // so both requests must be fully traced.
  EXPECT_EQ(full_traces, clips.size());

  // The same run through the metrics surface: the private registry holds
  // exactly this server's accounting.
  EXPECT_EQ(registry->counter("serve.submitted").value(), clips.size());
  EXPECT_EQ(registry->counter("serve.completed").value(), clips.size());
  EXPECT_EQ(registry->histogram("obs.e2e_ms").count(), clips.size());
  EXPECT_EQ(registry->histogram("obs.segment_ms.queue").count(), clips.size());
  EXPECT_EQ(registry->gauge("serve.circuit_state").value(), 0);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, clips.size());
  EXPECT_EQ(stats.completed, clips.size());
  // And the endpoint-shaped exports mention the serve series.
  EXPECT_NE(server.metrics_json().find("\"serve.submitted\""),
            std::string::npos);
  EXPECT_NE(server.metrics_text().find("serve_submitted"), std::string::npos);
}

// TSDX_TRACE=off must leave no spans behind even with a server running full
// tilt — the "unmeasurable when off" half of the overhead contract.
TEST(ObsTraceTest, ServerUnderOffModeRecordsNoSpans) {
  TraceReset reset(trace::Mode::kOff);
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 2;
  cfg.queue_capacity = 8;
  cfg.metrics = std::make_shared<obs::Registry>();
  serve::InferenceServer server(make_frozen_extractor(), cfg);
  for (const auto& clip : make_clips(3)) server.submit(clip).get();
  server.drain();
  EXPECT_TRUE(trace::snapshot().empty());
}
