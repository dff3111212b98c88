// lockorder_test.cpp — the runtime lock-order validator's contract
// (core/lockorder.hpp): a deliberate rank inversion is reported with both
// mutex identities, recursive acquisition of one mutex is called out as a
// self-deadlock, the held-lock tracker balances across RAII scopes and
// condition-variable waits, and — the half that guards the production code —
// the server's real lock hierarchy is silent under a full request workload
// with the validator enabled.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/extractor.hpp"
#include "core/lockorder.hpp"
#include "obs/metrics.hpp"
#include "plan/executor.hpp"
#include "serve/server.hpp"
#include "sim/clipgen.hpp"
#include "tensor/kernels/parallel_for.hpp"

namespace core = tsdx::core;
namespace lockorder = tsdx::lockorder;
namespace obs = tsdx::obs;
namespace par = tsdx::par;
namespace serve = tsdx::serve;
namespace sim = tsdx::sim;

using tsdx::CondVar;
using tsdx::LockGuard;
using tsdx::Mutex;
using tsdx::UniqueLock;

namespace {

/// Captured violations. The handler is a plain function pointer (no state
/// capture), so the store is a file-level singleton; a std::mutex (not a
/// tsdx::Mutex) guards it so the handler itself never re-enters the
/// validator it is reporting for. Violations can fire on server worker
/// threads, hence the locking at all.
struct CaptureStore {
  std::mutex mutex;
  std::vector<lockorder::Violation> violations;
};

CaptureStore& store() {
  static CaptureStore instance;
  return instance;
}

void capture_handler(const lockorder::Violation& violation) {
  std::lock_guard<std::mutex> lock(store().mutex);
  store().violations.push_back(violation);
}

/// RAII: install the capturing handler (clearing past captures) and enable
/// the validator; restore both on scope exit.
class CaptureViolations {
 public:
  CaptureViolations()
      : previous_(lockorder::set_violation_handler(capture_handler)) {
    std::lock_guard<std::mutex> lock(store().mutex);
    store().violations.clear();
  }
  ~CaptureViolations() { lockorder::set_violation_handler(previous_); }

  CaptureViolations(const CaptureViolations&) = delete;
  CaptureViolations& operator=(const CaptureViolations&) = delete;

  std::size_t count() const {
    std::lock_guard<std::mutex> lock(store().mutex);
    return store().violations.size();
  }
  lockorder::Violation at(std::size_t i) const {
    std::lock_guard<std::mutex> lock(store().mutex);
    return store().violations.at(i);
  }

 private:
  lockorder::Handler previous_;
  lockorder::ScopedEnable enable_;
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

}  // namespace

TEST(LockOrderTest, IncreasingRanksAreSilent) {
  CaptureViolations capture;
  Mutex low("test.low", lockorder::Rank::kQueue);
  Mutex high("test.high", lockorder::Rank::kCircuit);
  {
    LockGuard outer(low);
    LockGuard inner(high);
    EXPECT_EQ(lockorder::held_count(), 2u);
  }
  EXPECT_EQ(lockorder::held_count(), 0u);
  EXPECT_EQ(capture.count(), 0u);
}

TEST(LockOrderTest, InversionReportsBothMutexes) {
  CaptureViolations capture;
  Mutex low("test.low", lockorder::Rank::kQueue);
  Mutex high("test.high", lockorder::Rank::kCircuit);
  {
    LockGuard outer(high);
    // Acquiring the lower-ranked lock second is the A→B/B→A half the
    // static annotations cannot see. The capturing handler does not abort,
    // so execution continues; the violating acquisition is deliberately not
    // recorded (no cascade of follow-on reports).
    LockGuard inner(low);
  }
  ASSERT_EQ(capture.count(), 1u);
  const lockorder::Violation v = capture.at(0);
  EXPECT_STREQ(v.acquiring_name, "test.low");
  EXPECT_EQ(v.acquiring_rank, lockorder::Rank::kQueue);
  EXPECT_STREQ(v.held_name, "test.high");
  EXPECT_EQ(v.held_rank, lockorder::Rank::kCircuit);
  EXPECT_FALSE(v.same_mutex);
  // The report carries both acquisition contexts for the log.
  EXPECT_NE(v.report.find("test.low"), std::string::npos);
  EXPECT_NE(v.report.find("test.high"), std::string::npos);
  EXPECT_EQ(lockorder::held_count(), 0u);
}

TEST(LockOrderTest, EqualRankHeldTogetherIsAViolation) {
  CaptureViolations capture;
  Mutex a("test.a", lockorder::Rank::kStats);
  Mutex b("test.b", lockorder::Rank::kStats);
  {
    LockGuard outer(a);
    LockGuard inner(b);  // equal rank: order between the two is undefined
  }
  ASSERT_EQ(capture.count(), 1u);
  EXPECT_STREQ(capture.at(0).acquiring_name, "test.b");
  EXPECT_STREQ(capture.at(0).held_name, "test.a");
}

TEST(LockOrderTest, RecursiveAcquisitionIsSelfDeadlock) {
  CaptureViolations capture;
  // Drive the hooks directly: actually re-locking a std::mutex the thread
  // owns is undefined behaviour, which is exactly what the validator exists
  // to report before it happens.
  int token = 0;
  lockorder::on_acquire(&token, "test.recursive", lockorder::Rank::kCircuit);
  lockorder::on_acquire(&token, "test.recursive", lockorder::Rank::kCircuit);
  ASSERT_EQ(capture.count(), 1u);
  EXPECT_TRUE(capture.at(0).same_mutex);
  EXPECT_NE(capture.at(0).report.find("self-deadlock"), std::string::npos);
  lockorder::on_release(&token);
  EXPECT_EQ(lockorder::held_count(), 0u);
}

TEST(LockOrderTest, CondVarWaitReleasesAndReacquiresTracking) {
  CaptureViolations capture;
  Mutex mutex("test.cv", lockorder::Rank::kCircuit);
  CondVar cv;
  {
    UniqueLock lock(mutex);
    EXPECT_EQ(lockorder::held_count(), 1u);
    // Timed wait (nobody notifies): the wait releases the tracker entry and
    // re-registers it on wake — still held afterwards, still rank-checked.
    cv.wait_for(lock, std::chrono::milliseconds(1));
    EXPECT_EQ(lockorder::held_count(), 1u);
    // Proof the re-registration is live: a lower-ranked acquisition after
    // the wait must still be flagged against the re-acquired mutex.
    Mutex low("test.low", lockorder::Rank::kQueue);
    LockGuard inner(low);
  }
  ASSERT_EQ(capture.count(), 1u);
  EXPECT_STREQ(capture.at(0).held_name, "test.cv");
  EXPECT_EQ(lockorder::held_count(), 0u);
}

TEST(LockOrderTest, DisabledValidatorRecordsNothing) {
  const lockorder::Handler previous =
      lockorder::set_violation_handler(capture_handler);
  {
    std::lock_guard<std::mutex> lock(store().mutex);
    store().violations.clear();
  }
  lockorder::set_enabled(false);
  Mutex high("test.high", lockorder::Rank::kCircuit);
  Mutex low("test.low", lockorder::Rank::kQueue);
  {
    LockGuard outer(high);
    LockGuard inner(low);  // inversion, but the validator is off
    EXPECT_EQ(lockorder::held_count(), 0u);
  }
  lockorder::set_violation_handler(previous);
  std::lock_guard<std::mutex> lock(store().mutex);
  EXPECT_TRUE(store().violations.empty());
}

// The guard on the production code: a full request workload — concurrent
// submitters, batching workers, stats, the circuit breaker, metrics, and a
// nested tsdx::par fan-out — must acquire every lock in
// documented hierarchy order. Any inversion introduced into src/serve or
// src/tensor turns into a concrete Violation here (and in the TSan CI job,
// which runs the serve suites with TSDX_LOCK_ORDER=1).
TEST(LockOrderTest, ServerWorkloadObeysTheHierarchy) {
  CaptureViolations capture;

  auto extractor =
      std::make_shared<core::ScenarioExtractor>(micro_config(), /*seed=*/7);
  extractor->freeze();
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 2;
  cfg.queue_capacity = 4;
  cfg.metrics = std::make_shared<obs::Registry>();
  serve::InferenceServer server(extractor, cfg);

  const auto clips = make_clips(6);
  std::vector<std::future<core::ExtractionResult>> pending;
  pending.reserve(clips.size());
  for (const auto& clip : clips) pending.push_back(server.submit(clip));
  for (auto& f : pending) f.get();
  server.drain();
  (void)server.stats();
  server.shutdown();

  // The intra-op pool under the validator, including the nested re-entry
  // path that falls back inline.
  par::set_threads(2);
  par::parallel_for(8, 2, [](std::int64_t b, std::int64_t e) {
    par::parallel_for(e - b, 1, [](std::int64_t, std::int64_t) {});
  });
  par::set_threads(1);

  EXPECT_EQ(capture.count(), 0u) << capture.at(0).report;
  EXPECT_EQ(lockorder::held_count(), 0u);
}

// The plan cache compiles while *holding* its kPlan (43) mutex, and
// compilation runs a full traced forward that fans out through tsdx::par
// (ranks 50+). kPlan therefore has to sit below every pool rank — this test
// pins that ordering: a multi-threaded compile under the validator must be
// silent, and so must compiled execution through a served workload.
TEST(LockOrderTest, PlanCacheCompileUnderCacheLockObeysTheHierarchy) {
  CaptureViolations capture;

  auto extractor =
      std::make_shared<core::ScenarioExtractor>(micro_config(), /*seed=*/7);
  extractor->freeze();

  // Compile with the intra-op pool live so the traced forward's kernels
  // acquire the kPool* locks while get_or_compile holds plan.cache (kPlan).
  par::set_threads(2);
  auto cache = std::make_shared<tsdx::plan::PlanCache>();
  const auto plan = cache->get_or_compile(
      extractor->model(),
      {1, micro_config().frames, micro_config().channels,
       micro_config().image_size, micro_config().image_size});
  EXPECT_NE(plan, nullptr);

  // And the full serving stack, which compiles through the process-wide
  // cache at construction and then runs plans only.
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 2;
  cfg.queue_capacity = 4;
  cfg.metrics = std::make_shared<obs::Registry>();
  serve::InferenceServer server(extractor, cfg);
  const auto clips = make_clips(4);
  std::vector<std::future<core::ExtractionResult>> pending;
  pending.reserve(clips.size());
  for (const auto& clip : clips) pending.push_back(server.submit(clip));
  for (auto& f : pending) f.get();
  server.drain();
  par::set_threads(1);

  EXPECT_EQ(capture.count(), 0u) << capture.at(0).report;
  EXPECT_EQ(lockorder::held_count(), 0u);
}
