// layers.cpp — workload-independent layer probes of a traced run.
//
// Each probe times one public call on the served model in isolation, so a
// traced run can say which layer a change in an end-to-end number came
// from: the dynamic forward (core), the compiled plan (plan), the GEMM
// kernel and intra-op pool (tensor) and the scenario embedding (sdl).
#include <algorithm>
#include <map>
#include <thread>

#include "bench.hpp"
#include "plan/executor.hpp"
#include "sdl/embedding.hpp"
#include "sim/world.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/parallel_for.hpp"

namespace perfbench {

namespace {

namespace kernels = tsdx::tensor::kernels;

constexpr std::size_t kReps = 20;

/// The first `count` clips stacked into one [B, T, C, H, W] batch, the way
/// a server worker stacks a micro-batch.
data::Batch stack_batch(const std::vector<sim::VideoClip>& clips,
                        std::size_t count) {
  const sim::VideoClip& head = clips.at(0);
  std::vector<float> stacked;
  stacked.reserve(head.data.size() * count);
  for (std::size_t i = 0; i < count; ++i) {
    stacked.insert(stacked.end(), clips.at(i).data.begin(),
                   clips.at(i).data.end());
  }
  data::Batch batch;
  batch.video = nn::Tensor::from_vector(
      {static_cast<std::int64_t>(count), head.frames, sim::kNumChannels,
       head.height, head.width},
      std::move(stacked));
  return batch;
}

struct GemmShape {
  bool rhs_transposed = false;
  std::int64_t m = 0, k = 0, n = 0;
  double flops() const { return 2.0 * static_cast<double>(m * k * n); }
  std::string name() const {
    return "tensor.gemm_gflops.m" + std::to_string(m) + "k" +
           std::to_string(k) + "n" + std::to_string(n) +
           (rhs_transposed ? "t" : "");
  }
};

/// The three largest distinct GEMMs of a plan graph by work per call. A
/// batched product with a shared right operand is one GEMM over the stacked
/// rows, which is how the kernel runs it.
std::vector<GemmShape> largest_gemms(const plan::Graph& graph) {
  std::map<std::string, GemmShape> distinct;
  for (const plan::Op& op : graph.ops) {
    if (op.type != plan::OpType::kMatmul &&
        op.type != plan::OpType::kMatmulNt) {
      continue;
    }
    GemmShape s;
    s.rhs_transposed = op.type == plan::OpType::kMatmulNt;
    s.m = op.shared_rhs ? op.batch * op.m : op.m;
    s.k = op.k;
    s.n = op.n;
    distinct[s.name()] = s;
  }
  std::vector<GemmShape> shapes;
  for (const auto& entry : distinct) shapes.push_back(entry.second);
  std::stable_sort(shapes.begin(), shapes.end(),
                   [](const GemmShape& a, const GemmShape& b) {
                     return a.flops() > b.flops();
                   });
  if (shapes.size() > 3) shapes.resize(3);
  return shapes;
}

double gemm_gflops(const GemmShape& s, std::uint64_t seed) {
  SeededStream fill(seed, 40);
  std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
  std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
  std::vector<float> c(static_cast<std::size_t>(s.m * s.n), 0.0f);
  for (float& x : a) x = static_cast<float>(fill.uniform() - 0.5);
  for (float& x : b) x = static_cast<float>(fill.uniform() - 0.5);
  const kernels::Trans tb =
      s.rhs_transposed ? kernels::Trans::kT : kernels::Trans::kN;
  // Enough calls per sample that one sample spans well over a timer tick.
  const auto calls = static_cast<std::size_t>(
      std::clamp(2e7 / s.flops(), 1.0, 1000.0));
  const double ms = median_ms(kReps, [&] {
    ScopedSpan span("tensor.mm");
    for (std::size_t i = 0; i < calls; ++i) {
      kernels::mm(kernels::Trans::kN, tb, s.m, s.k, s.n, a.data(), b.data(),
                  c.data());
    }
  });
  return s.flops() * static_cast<double>(calls) / (ms * 1e-3) / 1e9;
}

}  // namespace

void probe_layers(const Options& opt, Outcome& out) {
  const std::size_t threads =
      par::env_override() ? par::threads()
                          : std::max(1u, std::thread::hardware_concurrency());
  par::set_threads(threads);
  out.info.emplace_back("probe_intra_op_threads", std::to_string(threads));

  auto extractor = build_extractor();
  const std::vector<sim::VideoClip> clips =
      make_clips(opt.seed ^ 0x1a7e55ull, 8);
  const data::Batch b1 = stack_batch(clips, 1);
  const data::Batch b8 = stack_batch(clips, 8);
  // median_ms makes one warm-up call before its timed ones.
  const auto calls = static_cast<double>(kReps + 1);

  // core: the dynamic forward, which serves requests by default. The
  // batch-1 call also counts GEMM calls and pool fan-outs per clip.
  const std::uint64_t gemm_calls0 = counter_value("gemm.calls");
  const std::uint64_t fanouts0 = counter_value("par.fanouts");
  out.metric("core.extract_ms_b1", median_ms(kReps, [&] {
               ScopedSpan span("core.extract", 1);
               extractor->extract(clips[0]);
             }),
             "ms");
  out.metric("tensor.gemm_calls_per_clip",
             static_cast<double>(counter_value("gemm.calls") - gemm_calls0) /
                 calls,
             "count");
  out.metric("tensor.par_fanouts_per_clip",
             static_cast<double>(counter_value("par.fanouts") - fanouts0) /
                 calls,
             "count");

  std::vector<core::ExtractionResult> dynamic_b8;
  const std::uint64_t flops0 = counter_value("gemm.flops");
  out.metric("core.extract_batch_ms_b8", median_ms(kReps, [&] {
               ScopedSpan span("core.extract_batch", 8);
               dynamic_b8 = extractor->extract_batch(b8);
             }),
             "ms");
  out.metric("tensor.gemm_flops_per_clip",
             static_cast<double>(counter_value("gemm.flops") - flops0) /
                 (calls * 8),
             "flop");

  // plan: compile both serving geometries, then run them from one
  // executor, as one server worker would.
  const HistSnapshot compile0 = HistSnapshot::take("plan.compile_ms");
  auto cache = std::make_shared<plan::PlanCache>();
  plan::PlanExecutor executor(extractor, cache);
  const std::vector<core::ExtractionResult> plan_b1 =
      executor.extract_batch(b1);
  std::vector<core::ExtractionResult> plan_b8 = executor.extract_batch(b8);
  out.metric("plan.compile_ms",
             HistSnapshot::take("plan.compile_ms").since(compile0).mean(),
             "ms");
  const std::uint64_t warm_growths = executor.arena().growths();
  out.metric("plan.run_ms_b1", median_ms(kReps, [&] {
               ScopedSpan span("plan.extract_batch", 1);
               executor.extract_batch(b1);
             }),
             "ms");
  out.metric("plan.run_ms_b8", median_ms(kReps, [&] {
               ScopedSpan span("plan.extract_batch", 8);
               plan_b8 = executor.extract_batch(b8);
             }),
             "ms");
  const std::uint64_t growths = executor.arena().growths() - warm_growths;
  out.metric("plan.arena_bytes",
             static_cast<double>(executor.arena().capacity_bytes()), "bytes");
  out.metric("plan.arena_growths", static_cast<double>(growths), "count");
  out.check("plan_arena_steady", growths == 0,
            std::to_string(growths) + " arena growths after warm-up");
  bool plan_exact = plan_b8.size() == dynamic_b8.size() &&
                    same_result(plan_b1.at(0), extractor->extract(clips[0]));
  for (std::size_t i = 0; plan_exact && i < plan_b8.size(); ++i) {
    plan_exact = same_result(plan_b8[i], dynamic_b8[i]);
  }
  out.check("plan_matches_dynamic", plan_exact,
            "compiled plan results bit-identical to the dynamic forward");

  // tensor: the GEMM kernel alone on the largest shapes of the batch-8
  // plan.
  const auto plan8 =
      cache->get_or_compile(extractor->model(), b8.video.shape());
  if (plan8 == nullptr) {
    out.check("plan_compiles", false, "batch-8 plan failed to compile");
  } else {
    std::string shapes;
    for (const GemmShape& s : largest_gemms(plan8->graph())) {
      out.metric(s.name(), gemm_gflops(s, opt.seed), "GFLOP/s");
      shapes += (shapes.empty() ? "" : ", ") + json_string(s.name());
    }
    out.info.emplace_back("gemm_probe_shapes", "[" + shapes + "]");
  }

  // sdl: embedding one description, the per-document cost of every index
  // insert and every query.
  tensor::Rng rng(mix64(opt.seed ^ 0xe3bedull));
  std::vector<sdl::ScenarioDescription> docs;
  for (std::size_t i = 0; i < 4096; ++i) {
    docs.push_back(sim::sample_description(rng));
  }
  float checksum = 0.0f;
  const double embed_ms = median_ms(kReps, [&] {
    ScopedSpan span("sdl.scenario_to_vector");
    for (const auto& d : docs) checksum += sdl::scenario_to_vector(d)[0];
  });
  out.metric("sdl.embed_us",
             embed_ms * 1e3 / static_cast<double>(docs.size()), "us");
  // Printed so the embedding loop cannot be optimized away.
  out.info.emplace_back("embed_checksum",
                        json_number(static_cast<double>(checksum)));
}

}  // namespace perfbench
