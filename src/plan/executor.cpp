#include "plan/executor.hpp"

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "plan/trace.hpp"

namespace tsdx::plan {

float* Arena::ensure(std::size_t bytes) {
  const std::size_t floats = (bytes + sizeof(float) - 1) / sizeof(float);
  if (block_.size() < floats) {
    block_.resize(floats);
    ++growths_;
  }
  return block_.data();
}

PlanCache::PlanCache(CompileOptions options) : options_(options) {}

std::shared_ptr<const Plan> PlanCache::get_or_compile(
    const core::ScenarioModel& model, const tensor::Shape& input_shape) {
  LockGuard lock(mutex_);
  const auto it = plans_.find(input_shape);
  if (it != plans_.end()) return it->second;

  std::shared_ptr<const Plan> plan;
  try {
    plan = Plan::compile(model, input_shape, options_);
  } catch (const TraceError&) {
    // Remembered as null: an uncompilable model costs one trace attempt
    // per geometry, then serves dynamically forever.
    obs::Registry::global().counter("plan.trace_errors").inc();
  }
  plans_.emplace(input_shape, plan);
  return plan;
}

PlanExecutor::PlanExecutor(
    std::shared_ptr<const core::ScenarioExtractor> extractor,
    std::shared_ptr<PlanCache> cache)
    : extractor_(std::move(extractor)), cache_(std::move(cache)) {}

std::vector<core::ExtractionResult> PlanExecutor::extract_batch(
    const data::Batch& batch) {
  auto& reg = obs::Registry::global();
  // A training-mode model stays on the dynamic path: its forward is not a
  // pure function of the weights.
  std::shared_ptr<const Plan> plan;
  if (extractor_->frozen()) {
    plan = cache_->get_or_compile(extractor_->model(), batch.video.shape());
  }
  if (!plan) {
    reg.counter("plan.fallbacks").inc();
    last_used_plan_ = false;
    return extractor_->extract_batch(batch);
  }

  TSDX_TRACE_SPAN("plan.execute");
  last_used_plan_ = true;
  // Steady-state arena growth is an anomaly: after the first compiled run
  // per executor the hot path must not allocate (the plan_test contract) —
  // a growth here means a new high-water geometry slipped into a warmed
  // worker, worth a post-mortem dump.
  const std::uint64_t growths_before = arena_.growths();
  float* arena = arena_.ensure(plan->arena_bytes());
  if (plan_executions_ > 0 && arena_.growths() != growths_before) {
    obs::SloEngine::global().note_anomaly(obs::Anomaly::kArenaGrowth,
                                          obs::trace::current().trace_id);
  }
  ++plan_executions_;
  plan->run(batch.video.data().data(), arena);
  reg.counter("plan.executions").inc();

  // The dynamic path's own decoder, fed from the plan's logit rows.
  core::SlotLogits logits{};
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    logits[s] = plan->logits_ptr(s, arena);
  }
  return core::decode_results(logits, batch.video.dim(0),
                              extractor_->model().active_slots(),
                              extractor_->constrained_decoding());
}

}  // namespace tsdx::plan
