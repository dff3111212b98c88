// plan_test.cpp — the inference plan compiler's contract (src/plan/):
//
// * Trace coverage: every supported architecture (4 attention kinds,
//   both poolings, all positional kinds) compiles — no TraceError — and
//   the compiled logits are BIT-IDENTICAL to the dynamic forward's. The
//   comparison is memcmp, not a tolerance: plan.hpp's equivalence contract
//   is exact equality, because every plan kernel replays the dynamic
//   kernel's arithmetic element for element.
// * Every fusion (bias+GELU, QK^T+scale+softmax, residual+LayerNorm) is
//   unconditional and fires on a transformer's plan; the whole-plan memcmp
//   above is what proves each exact.
// * Thread-count invariance: the same plan produces identical bytes at 1,
//   2, 4 and 8 intra-op threads (the kernels split rows at the same grains
//   as the dynamic path, whose determinism contract is thread-invariant),
//   and one cache entry instantiated at every batch size 1..8 matches
//   dynamic by memcmp with both paths at 1 and at 4 threads.
// * Batch polymorphism: a compile is exactly two traces (B=1, B=2); an
//   attribute that does not scale with B is a TraceError; the tracer keeps
//   no intermediate's data.
// * The cache key: a model rebuilt from the same seed hits (also across
//   Routers and their replicas); one flipped weight bit misses, and the new
//   plan matches its own dynamic path.
// * Arena discipline: repeated executions reuse one allocation
//   (Arena::growths() stays at 1) and produce identical results — the
//   liveness planner's in-place aliasing is exercised on every run, and the
//   suite runs under ASan in CI (`ctest -L sanitize`), so an offset overlap
//   or out-of-bounds write fails loudly.
// * Decoding: the executor decodes the plan's logits with the dynamic
//   path's decoder, so constrained decoding runs on the plan too and
//   matches the dynamic constrained extractor bit for bit.
// * No fallback: a model that does not compile fails the cache lookup
//   (every time — failures are not cached) and server construction.
// * Accounting: a plan run bumps gemm.calls / gemm.flops exactly as its
//   graph's matmul ops describe, whichever GEMM build the host runs.
// * End-to-end: an InferenceServer (which serves plans only) answers every
//   request identically to the dynamic extractor.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/executor.hpp"
#include "plan/plan.hpp"
#include "plan/trace.hpp"
#include "sdl/description.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "sim/clipgen.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/ops.hpp"

namespace core = tsdx::core;
namespace data = tsdx::data;
namespace obs = tsdx::obs;
namespace par = tsdx::par;
namespace plan = tsdx::plan;
namespace sdl = tsdx::sdl;
namespace serve = tsdx::serve;
namespace sim = tsdx::sim;
namespace tt = tsdx::tensor;

namespace {

/// CI failure artifacts. When TSDX_PLAN_ARTIFACT_DIR is set, a bit-exactness
/// mismatch writes the offending plan's debug_dump() there, and the span
/// trace of the whole run is flushed alongside it on teardown — the uploaded
/// artifact then shows exactly which ops the compiler built, where the arena
/// placed them, and what executed. Unset (the normal local run), this is all
/// inert.
const char* artifact_dir() {
  static const char* dir = std::getenv("TSDX_PLAN_ARTIFACT_DIR");
  return dir;
}

void write_plan_artifact(const std::string& what, const plan::Plan& compiled) {
  const char* dir = artifact_dir();
  if (dir == nullptr) return;
  std::filesystem::create_directories(dir);
  std::string name = what;
  for (char& c : name) {
    if (c == '/' || c == ' ') c = '_';
  }
  std::ofstream out(std::filesystem::path(dir) / (name + ".plan.txt"));
  out << compiled.debug_dump();
}

class ArtifactEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    if (artifact_dir() != nullptr) {
      tsdx::obs::trace::set_mode(tsdx::obs::trace::Mode::kFull);
    }
  }
  void TearDown() override {
    const char* dir = artifact_dir();
    if (dir == nullptr) return;
    std::filesystem::create_directories(dir);
    tsdx::obs::trace::flush_trace(
        (std::filesystem::path(dir) / "plan_trace.json").string());
  }
};

const auto* const kArtifactEnv =
    ::testing::AddGlobalTestEnvironment(new ArtifactEnvironment);

/// Small but structurally complete geometry: 2 clips, 4 frames, 16x16.
constexpr std::int64_t kBatch = 2;

core::ModelConfig small_config(core::AttentionKind kind) {
  core::ModelConfig mc;
  mc.frames = 4;
  mc.image_size = 16;
  mc.patch_size = 8;
  mc.dim = 16;
  mc.depth = 2;  // two layers so kDividedST alternates spatial/temporal
  mc.heads = 4;
  mc.attention = kind;
  return mc;
}

tt::Shape input_shape(const core::ModelConfig& mc) {
  return {kBatch, mc.frames, mc.channels, mc.image_size, mc.image_size};
}

/// Deterministic non-trivial input (zeros would mask accumulation-order
/// differences).
std::vector<float> probe_values(const tt::Shape& shape) {
  std::int64_t n = 1;
  for (const std::int64_t d : shape) n *= d;
  std::vector<float> values(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.001f * static_cast<float>(i % 997) - 0.3f;
  }
  return values;
}

/// Dynamic-forward logits for `values` at `shape`.
std::array<tt::Tensor, sdl::kNumSlots> dynamic_logits(
    const core::ScenarioModel& model, const tt::Shape& shape,
    const std::vector<float>& values) {
  const tt::Tensor input = tt::Tensor::from_vector(shape, values);
  tt::NoGradGuard no_grad;
  return model.forward(input);
}

/// Compile, run, and require bit-identical logits for every slot. Returns
/// the plan for further inspection.
std::shared_ptr<const plan::Plan> expect_bit_identical(
    const core::ScenarioExtractor& extractor, const tt::Shape& shape,
    const std::string& what) {
  const std::vector<float> values = probe_values(shape);
  const auto dynamic =
      dynamic_logits(extractor.model(), shape, values);
  std::shared_ptr<const plan::Plan> compiled;
  try {
    compiled = plan::Plan::compile(extractor.model(), shape);
  } catch (const plan::TraceError& e) {
    ADD_FAILURE() << what << ": TraceError: " << e.what();
    return nullptr;
  }
  std::vector<float> arena(compiled->arena_bytes() / sizeof(float));
  compiled->run(values.data(), arena.data());
  bool mismatch = false;
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    const float* got = compiled->logits_ptr(s, arena.data());
    const std::vector<float>& want = dynamic[s].node()->data;
    const int diff =
        std::memcmp(got, want.data(), want.size() * sizeof(float));
    mismatch = mismatch || diff != 0;
    EXPECT_EQ(0, diff)
        << what << ": slot " << s << " logits differ from the dynamic path";
  }
  if (mismatch) write_plan_artifact(what, *compiled);
  return compiled;
}

core::ScenarioExtractor frozen_extractor(const core::ModelConfig& mc,
                                         std::uint64_t seed = 7) {
  core::ScenarioExtractor extractor(mc, seed);
  extractor.freeze();
  return extractor;
}

data::Batch probe_batch(const core::ModelConfig& mc) {
  data::Batch batch;
  const tt::Shape shape = input_shape(mc);
  batch.video = tt::Tensor::from_vector(shape, probe_values(shape));
  return batch;
}

void expect_same_results(const std::vector<core::ExtractionResult>& a,
                         const std::vector<core::ExtractionResult>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sdl::to_slot_labels(a[i].description),
              sdl::to_slot_labels(b[i].description))
        << what << ": labels differ at clip " << i;
    for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
      EXPECT_EQ(a[i].confidence[s], b[i].confidence[s])
          << what << ": confidence differs at clip " << i << " slot " << s;
    }
    EXPECT_EQ(a[i].warnings, b[i].warnings) << what << ": clip " << i;
  }
}

/// Test backbones: [B, T, C, H, W] -> flatten -> <op> -> x W, over the
/// small geometry. Neither is a video transformer.
class FlatBackbone : public core::Backbone {
 public:
  static core::ModelConfig config() {
    return small_config(core::AttentionKind::kJoint);
  }
  FlatBackbone() {
    const core::ModelConfig mc = config();
    tt::Rng rng(3);
    weight_ = register_parameter(
        "weight",
        tt::Tensor::randn({mc.frames * mc.channels * mc.image_size *
                               mc.image_size,
                           kDim},
                          rng, 0.05f));
  }
  std::int64_t feature_dim() const override { return kDim; }

 protected:
  static constexpr std::int64_t kDim = 8;
  tt::Tensor flat(const tt::Tensor& video) const {
    return tt::reshape(video, {video.dim(0), -1});
  }
  tt::Tensor weight_;
};

/// relu has no trace hook: untraceable.
class ReluBackbone final : public FlatBackbone {
 public:
  tt::Tensor forward(const tt::Tensor& video) const override {
    return tt::matmul(tt::relu(flat(video)), weight_);
  }
  std::string name() const override { return "relu_test"; }
};

/// Traceable, but scales its features by 1/B: an attribute that differs
/// between the B=1 and B=2 traces without scaling with B.
class BatchMeanBackbone final : public FlatBackbone {
 public:
  tt::Tensor forward(const tt::Tensor& video) const override {
    return tt::mul_scalar(tt::matmul(flat(video), weight_),
                          1.0f / static_cast<float>(video.dim(0)));
  }
  std::string name() const override { return "batch_mean_test"; }
};

std::shared_ptr<core::ScenarioExtractor> extractor_over(
    std::unique_ptr<core::Backbone> backbone) {
  tt::Rng rng(9);
  auto model =
      std::make_shared<core::ScenarioModel>(std::move(backbone), rng);
  auto extractor = std::make_shared<core::ScenarioExtractor>(model);
  extractor->freeze();
  return extractor;
}

}  // namespace

TEST(PlanTest, EveryAttentionKindCompilesBitIdentical) {
  for (const auto kind :
       {core::AttentionKind::kJoint, core::AttentionKind::kDividedST,
        core::AttentionKind::kFactorizedEncoder,
        core::AttentionKind::kSpaceOnly}) {
    const core::ModelConfig mc = small_config(kind);
    const auto extractor = frozen_extractor(mc);
    const auto compiled =
        expect_bit_identical(extractor, input_shape(mc), core::to_string(kind));
    if (compiled == nullptr) continue;
    EXPECT_GT(compiled->fused_ops(), 0) << core::to_string(kind);
    EXPECT_GT(compiled->arena_bytes(), 0u) << core::to_string(kind);
  }
}

TEST(PlanTest, PoolingAndPositionalVariantsCompileBitIdentical) {
  for (const auto pooling : {core::Pooling::kMean, core::Pooling::kAttention}) {
    for (const auto positional :
         {core::PositionalKind::kLearned, core::PositionalKind::kSinusoidal,
          core::PositionalKind::kNone}) {
      core::ModelConfig mc = small_config(core::AttentionKind::kJoint);
      mc.pooling = pooling;
      mc.positional = positional;
      const auto extractor = frozen_extractor(mc);
      expect_bit_identical(
          extractor, input_shape(mc),
          core::to_string(pooling) + "/" + core::to_string(positional));
    }
  }
}

// The three fusions are unconditional: a transformer's plan carries each
// fused op at least once. Whole-plan memcmp against the dynamic path (every
// test above) is what proves them exact.
TEST(PlanTest, EveryFusionFiresOnTheTransformer) {
  const core::ModelConfig mc = small_config(core::AttentionKind::kJoint);
  const auto extractor = frozen_extractor(mc);
  const auto compiled =
      expect_bit_identical(extractor, input_shape(mc), "fusions");
  ASSERT_NE(compiled, nullptr);
  std::map<plan::OpType, int> fused;
  for (const plan::Op& op : compiled->graph().ops) ++fused[op.type];
  EXPECT_GE(fused[plan::OpType::kBiasGelu], 1);
  EXPECT_GE(fused[plan::OpType::kScaledSoftmaxNt], 1);
  EXPECT_GE(fused[plan::OpType::kAddLayerNorm], 1);
}

TEST(PlanTest, ThreadCountInvariance) {
  const core::ModelConfig mc = small_config(core::AttentionKind::kDividedST);
  const auto extractor = frozen_extractor(mc);
  const tt::Shape shape = input_shape(mc);
  const std::vector<float> values = probe_values(shape);
  const auto dynamic = dynamic_logits(extractor.model(), shape, values);
  const auto compiled = plan::Plan::compile(extractor.model(), shape);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    par::set_threads(threads);
    std::vector<float> arena(compiled->arena_bytes() / sizeof(float));
    compiled->run(values.data(), arena.data());
    for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
      const float* got = compiled->logits_ptr(s, arena.data());
      const std::vector<float>& want = dynamic[s].node()->data;
      EXPECT_EQ(0,
                std::memcmp(got, want.data(), want.size() * sizeof(float)))
          << "slot " << s << " differs at " << threads << " threads";
    }
  }
  par::set_threads(1);
}

TEST(PlanTest, EveryBatchSizeBitIdenticalAtOneAndFourThreads) {
  // 8 frames of 32x32 in patches of 8 is 128 tokens per clip, the bench
  // geometry: from batch 5 up the MLP's GELU rows (and the attention
  // softmax rows) split into several for_each_row chunks.
  core::ModelConfig mc = small_config(core::AttentionKind::kDividedST);
  mc.frames = 8;
  mc.image_size = 32;
  mc.dim = 32;
  const auto extractor = frozen_extractor(mc);
  // One cache entry, compiled once, serves every batch size.
  plan::PlanCache cache;
  obs::Counter& compiled = obs::Registry::global().counter("plan.compiled");
  const std::uint64_t compiled_before = compiled.value();
  const auto poly = cache.get_or_compile(extractor.model());
  for (std::int64_t batch = 1; batch <= 8; ++batch) {
    const tt::Shape shape{batch, mc.frames, mc.channels, mc.image_size,
                          mc.image_size};
    const std::vector<float> values = probe_values(shape);
    const auto instantiated = cache.get_or_compile(extractor.model(), shape);
    const auto at = poly->at(batch);
    ASSERT_EQ(instantiated->input_shape(), shape);
    EXPECT_EQ(instantiated->arena_bytes(), at->arena_bytes());
    for (const std::size_t threads : {1u, 4u}) {
      par::set_threads(threads);
      const auto dynamic = dynamic_logits(extractor.model(), shape, values);
      std::vector<float> arena(at->arena_bytes() / sizeof(float));
      at->run(values.data(), arena.data());
      for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
        const float* got = at->logits_ptr(s, arena.data());
        const std::vector<float>& want = dynamic[s].node()->data;
        EXPECT_EQ(0,
                  std::memcmp(got, want.data(), want.size() * sizeof(float)))
            << "batch " << batch << ", slot " << s << " differs at "
            << threads << " threads";
      }
    }
  }
  par::set_threads(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(compiled.value(), compiled_before + 1);
}

TEST(PlanTest, ExecutorReusesArenaAndMatchesDynamicPath) {
  const core::ModelConfig mc = small_config(core::AttentionKind::kJoint);
  auto extractor =
      std::make_shared<core::ScenarioExtractor>(mc, /*seed=*/7);
  extractor->freeze();
  auto cache = std::make_shared<plan::PlanCache>();
  plan::PlanExecutor executor(extractor, cache);

  const data::Batch batch = probe_batch(mc);
  const auto expected = extractor->extract_batch(batch);

  obs::Counter& executions =
      obs::Registry::global().counter("plan.executions");
  const std::uint64_t executions_before = executions.value();

  std::vector<core::ExtractionResult> last;
  for (int round = 0; round < 3; ++round) {
    last = executor.extract_batch(batch);
    expect_same_results(last, expected,
                        "round " + std::to_string(round));
  }
  // One geometry -> one arena allocation, reused by every later run: the
  // compiled hot path stops allocating after warm-up.
  EXPECT_EQ(executor.arena().growths(), 1u);
  EXPECT_EQ(executions.value(), executions_before + 3);
}

TEST(PlanTest, ConstrainedDecodingRunsOnPlan) {
  const core::ModelConfig mc = small_config(core::AttentionKind::kJoint);
  auto extractor =
      std::make_shared<core::ScenarioExtractor>(mc, /*seed=*/7);
  extractor->freeze();
  extractor->set_constrained_decoding(true);
  auto cache = std::make_shared<plan::PlanCache>();
  plan::PlanExecutor executor(extractor, cache);

  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t executions_before =
      reg.counter("plan.executions").value();

  const data::Batch batch = probe_batch(mc);
  const auto via_executor = executor.extract_batch(batch);
  const auto via_dynamic = extractor->extract_batch(batch);
  EXPECT_EQ(reg.counter("plan.executions").value(), executions_before + 1);
  EXPECT_EQ(executor.arena().growths(), 1u);
  expect_same_results(via_executor, via_dynamic, "constrained");
  for (const core::ExtractionResult& r : via_executor) {
    EXPECT_TRUE(r.warnings.empty()) << "constrained output must be valid";
  }
}

TEST(PlanTest, GemmAccountingMatchesGraph) {
  const core::ModelConfig mc = small_config(core::AttentionKind::kDividedST);
  const auto extractor = frozen_extractor(mc);
  const tt::Shape shape = input_shape(mc);
  const auto compiled = plan::Plan::compile(extractor.model(), shape);
  std::uint64_t want_calls = 0, want_flops = 0;
  for (const plan::Op& op : compiled->graph().ops) {
    if (op.type != plan::OpType::kMatmul &&
        op.type != plan::OpType::kMatmulNt &&
        op.type != plan::OpType::kScaledSoftmaxNt) {
      continue;
    }
    ++want_calls;
    want_flops += static_cast<std::uint64_t>(2 * op.batch * op.m * op.k * op.n);
  }
  ASSERT_GT(want_calls, 0u);

  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t calls_before = reg.counter("gemm.calls").value();
  const std::uint64_t flops_before = reg.counter("gemm.flops").value();
  const std::vector<float> values = probe_values(shape);
  std::vector<float> arena(compiled->arena_bytes() / sizeof(float));
  compiled->run(values.data(), arena.data());
  EXPECT_EQ(reg.counter("gemm.calls").value() - calls_before, want_calls);
  EXPECT_EQ(reg.counter("gemm.flops").value() - flops_before, want_flops);
}

TEST(PlanTest, ModelThatDoesNotCompileFailsServerConstruction) {
  obs::Counter& errors =
      obs::Registry::global().counter("plan.trace_errors");

  // A model left in training mode is untraceable. There is no fallback to
  // remember it for: every lookup fails, and none leaves an entry behind.
  const core::ModelConfig mc = small_config(core::AttentionKind::kJoint);
  core::ScenarioExtractor training(mc, /*seed=*/7);
  ASSERT_TRUE(training.model().training());
  plan::PlanCache cache;
  const std::uint64_t errors_before = errors.value();
  EXPECT_THROW(cache.get_or_compile(training.model()), plan::TraceError);
  EXPECT_THROW(cache.get_or_compile(training.model()), plan::TraceError);
  EXPECT_EQ(errors.value(), errors_before + 2);
  EXPECT_EQ(cache.size(), 0u);

  // A frozen model whose forward runs an op the tracer has no hook for
  // (relu) cannot be served: the server fails while it is being built.
  const auto untraceable = extractor_over(std::make_unique<ReluBackbone>());
  EXPECT_THROW(plan::Plan::compile(untraceable->model(),
                                   input_shape(ReluBackbone::config())),
               plan::TraceError);
  serve::ServerConfig sc;
  sc.workers = 1;
  sc.metrics = std::make_shared<obs::Registry>();
  EXPECT_THROW(serve::InferenceServer(untraceable, sc), plan::TraceError);
}

TEST(PlanTest, DebugDumpListsOpsAndOffsets) {
  const core::ModelConfig mc = small_config(core::AttentionKind::kJoint);
  const auto extractor = frozen_extractor(mc);
  const auto compiled =
      plan::Plan::compile(extractor.model(), input_shape(mc));
  const std::string dump = compiled->debug_dump();
  EXPECT_NE(dump.find("matmul"), std::string::npos);
  EXPECT_NE(dump.find("layer_norm"), std::string::npos);
  EXPECT_NE(dump.find("arena"), std::string::npos);
  // At least one fusion fired on a transformer forward, and the dump names
  // the fused op so a CI artifact shows what the compiler did.
  EXPECT_NE(dump.find("scaled_softmax_nt"), std::string::npos);
}

TEST(PlanTest, ServerAnswersIdenticallyWithCompiledPlans) {
  sim::RenderConfig render;
  render.height = render.width = 16;
  render.frames = 4;
  core::ModelConfig mc = small_config(core::AttentionKind::kDividedST);

  auto extractor =
      std::make_shared<core::ScenarioExtractor>(mc, /*seed=*/7);
  extractor->freeze();

  sim::ClipGenerator gen(render, /*seed=*/42);
  std::vector<sim::VideoClip> clips;
  for (int i = 0; i < 6; ++i) clips.push_back(gen.generate().video);

  // workers = 0: deterministic inline processing on drain(), batches of 4
  // and 2, no thread scheduling noise in the comparison.
  serve::ServerConfig sc;
  sc.workers = 0;
  sc.max_batch = 4;
  sc.metrics = std::make_shared<obs::Registry>();
  serve::InferenceServer server(extractor, sc);
  std::vector<std::future<core::ExtractionResult>> futures;
  for (const sim::VideoClip& clip : clips) {
    futures.push_back(server.submit(clip));
  }
  server.drain();
  std::vector<core::ExtractionResult> served;
  std::vector<core::ExtractionResult> dynamic;
  for (std::size_t i = 0; i < clips.size(); ++i) {
    served.push_back(futures[i].get());
    dynamic.push_back(extractor->extract(clips[i]));
  }
  expect_same_results(served, dynamic, "server");
}

TEST(PlanTest, CompileIsExactlyTwoTracesAndRebuiltModelsHit) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& compiled = reg.counter("plan.compiled");
  obs::Counter& traces = reg.counter("plan.traces");
  const core::ModelConfig mc = small_config(core::AttentionKind::kJoint);
  plan::PlanCache cache;

  const std::uint64_t compiled_before = compiled.value();
  const std::uint64_t traces_before = traces.value();
  const auto first = frozen_extractor(mc, /*seed=*/31);
  const auto poly = cache.get_or_compile(first.model());
  EXPECT_EQ(compiled.value(), compiled_before + 1);
  EXPECT_EQ(traces.value(), traces_before + 2);

  // Same model again, a model rebuilt from the same seed, and every batch
  // size: all hits, no further trace.
  const auto rebuilt = frozen_extractor(mc, /*seed=*/31);
  EXPECT_EQ(cache.get_or_compile(first.model()), poly);
  EXPECT_EQ(cache.get_or_compile(rebuilt.model()), poly);
  for (std::int64_t b = 1; b <= 8; ++b) {
    cache.get_or_compile(rebuilt.model(), {b, mc.frames, mc.channels,
                                           mc.image_size, mc.image_size});
  }
  EXPECT_EQ(compiled.value(), compiled_before + 1);
  EXPECT_EQ(traces.value(), traces_before + 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanTest, OneFlippedWeightBitMissesAndCompilesItsOwnPlan) {
  const core::ModelConfig mc = small_config(core::AttentionKind::kJoint);
  plan::PlanCache cache;
  const auto original = frozen_extractor(mc, /*seed=*/41);
  const auto poly = cache.get_or_compile(original.model());

  auto flipped = frozen_extractor(mc, /*seed=*/41);
  // Flip the lowest mantissa bit of one weight the forward reads (the
  // last slot head's bias is the last parameter).
  std::vector<float>& w = flipped.model().parameters().back().node()->data;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &w[0], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&w[0], &bits, sizeof(bits));

  obs::Counter& compiled = obs::Registry::global().counter("plan.compiled");
  const std::uint64_t compiled_before = compiled.value();
  const auto other = cache.get_or_compile(flipped.model());
  EXPECT_NE(other, poly);
  EXPECT_EQ(compiled.value(), compiled_before + 1);
  EXPECT_EQ(cache.size(), 2u);

  // Each plan computes its own model, bit for bit.
  const tt::Shape shape = input_shape(mc);
  const std::vector<float> values = probe_values(shape);
  const auto expect_matches = [&](const core::ScenarioExtractor& extractor,
                                  const plan::PolyPlan& compiled_plan,
                                  const char* what) {
    const auto dynamic = dynamic_logits(extractor.model(), shape, values);
    const auto at = compiled_plan.at(kBatch);
    std::vector<float> arena(at->arena_bytes() / sizeof(float));
    at->run(values.data(), arena.data());
    for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
      const std::vector<float>& want = dynamic[s].node()->data;
      EXPECT_EQ(0, std::memcmp(at->logits_ptr(s, arena.data()), want.data(),
                               want.size() * sizeof(float)))
          << what << ": slot " << s;
    }
  };
  expect_matches(original, *poly, "original");
  expect_matches(flipped, *other, "flipped");
}

TEST(PlanTest, AttributeThatDoesNotScaleWithBatchIsATraceError) {
  const auto extractor = extractor_over(std::make_unique<BatchMeanBackbone>());
  try {
    plan::Plan::compile(extractor->model(),
                        input_shape(BatchMeanBackbone::config()));
    ADD_FAILURE() << "a 1/B scale compiled into a batch-polymorphic plan";
  } catch (const plan::TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("scalar"), std::string::npos)
        << e.what();
  }
}

TEST(PlanTest, TracerRetainsOnlyFoldedConstantsAndWeights) {
  for (const auto positional :
       {core::PositionalKind::kLearned, core::PositionalKind::kSinusoidal}) {
    core::ModelConfig mc = small_config(core::AttentionKind::kDividedST);
    mc.positional = positional;
    const auto extractor = frozen_extractor(mc);
    plan::TraceStats stats;
    const plan::Graph graph =
        plan::trace_model(extractor.model(), input_shape(mc), &stats);
    std::size_t constants = 0, externals = 0, intermediates = 0;
    for (const plan::Value& v : graph.values) {
      const std::size_t bytes = static_cast<std::size_t>(v.numel) * 4;
      switch (v.kind) {
        case plan::ValueKind::kConstant: constants += bytes; break;
        case plan::ValueKind::kExternal: externals += bytes; break;
        case plan::ValueKind::kArena:
          if (v.alias_of == plan::kNoValue) intermediates += bytes;
          // Of an intermediate the graph keeps the size, never the node.
          EXPECT_EQ(v.traced, nullptr);
          EXPECT_EQ(v.constant, nullptr);
          break;
        case plan::ValueKind::kInput: break;
      }
    }
    // Learned positions fold (embedding lookups and their sum); the
    // sinusoidal table is read as an external.
    if (positional == core::PositionalKind::kLearned) {
      EXPECT_GT(constants, 0u);
    }
    EXPECT_GT(stats.retained_bytes, 0u);
    EXPECT_LE(stats.retained_bytes, constants + externals);
    // Pinning the forward's intermediates (as a tracer that keeps every
    // node alive would) costs more than everything it may keep.
    EXPECT_GT(intermediates, constants + externals);
  }
}

TEST(PlanTest, RoutersOverRebuiltModelsShareOneCompile) {
  core::ModelConfig mc = small_config(core::AttentionKind::kDividedST);
  mc.dim = 24;  // a config no other test serves: the first Router compiles
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& compiled = reg.counter("plan.compiled");
  obs::Counter& traces = reg.counter("plan.traces");
  const std::uint64_t compiled_before = compiled.value();
  const std::uint64_t traces_before = traces.value();

  sim::RenderConfig render;
  render.height = render.width = mc.image_size;
  render.frames = mc.frames;
  sim::ClipGenerator gen(render, /*seed=*/5);
  const sim::VideoClip clip = gen.generate().video;

  const auto serve_through_router = [&] {
    auto extractor = std::make_shared<core::ScenarioExtractor>(mc, 51);
    extractor->freeze();
    serve::RouterConfig rc;
    rc.replicas = 2;
    rc.server.workers = 1;
    rc.metrics = std::make_shared<obs::Registry>();
    serve::Router router(extractor, rc);
    expect_same_results({router.submit(clip).get()},
                        {extractor->extract(clip)}, "router");
    router.drain();
  };
  serve_through_router();
  EXPECT_EQ(compiled.value(), compiled_before + 1);
  EXPECT_EQ(traces.value(), traces_before + 2);
  serve_through_router();
  EXPECT_EQ(compiled.value(), compiled_before + 1);
  EXPECT_EQ(traces.value(), traces_before + 2);
}
