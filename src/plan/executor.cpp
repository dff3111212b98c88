#include "plan/executor.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <string>

#include "core/check.hpp"
#include "core/video_transformer.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "plan/trace.hpp"

namespace tsdx::plan {

namespace tt = tsdx::tensor;

void Arena::Free::operator()(float* block) const {
  ::operator delete(block, std::align_val_t{kArenaAlignment});
}

float* Arena::ensure(std::size_t bytes) {
  if (capacity_ < bytes) {
    // Uninitialized on purpose: pages stay non-resident until a run
    // writes them, so a max_batch reservation costs address space only.
    block_.reset(static_cast<float*>(
        ::operator new(bytes, std::align_val_t{kArenaAlignment})));
    capacity_ = bytes;
    ++growths_;
  }
  return block_.get();
}

namespace {

/// The cache key's model half. Only the video transformer carries a
/// ModelConfig (and fixes a clip geometry); other backbones do not compile.
const core::ModelConfig& config_of(const core::ScenarioModel& model) {
  const auto* vt =
      dynamic_cast<const core::VideoTransformer*>(&model.backbone());
  if (vt == nullptr) {
    throw TraceError("plan: backbone '" + model.backbone().name() +
                     "' has no ModelConfig to compile against (only the "
                     "video transformer compiles)");
  }
  return vt->config();
}

/// Does `model` hold exactly the weights `plan` snapshotted? Bytes, not a
/// hash: equal bytes is the only proof the plan computes this model.
bool same_weights(const core::ScenarioModel& model, const PolyPlan& plan) {
  const std::vector<float>& snapshot = plan.weights();
  std::size_t at = 0;
  for (const tt::Tensor& p : model.parameters()) {
    const std::vector<float>& data = p.node()->data;
    if (data.size() > snapshot.size() - at ||
        std::memcmp(data.data(), snapshot.data() + at,
                    data.size() * sizeof(float)) != 0) {
      return false;
    }
    at += data.size();
  }
  return at == snapshot.size();
}

}  // namespace

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const PolyPlan> PlanCache::get_or_compile(
    const core::ScenarioModel& model) {
  const core::ModelConfig& config = config_of(model);
  return lookup_or_compile(model, {config.frames, config.channels,
                                   config.image_size, config.image_size});
}

std::shared_ptr<const Plan> PlanCache::get_or_compile(
    const core::ScenarioModel& model, const tensor::Shape& input_shape) {
  TSDX_CHECK(!input_shape.empty(), "PlanCache: empty input shape");
  const tensor::Shape clip(input_shape.begin() + 1, input_shape.end());
  return lookup_or_compile(model, clip)->at(input_shape.front());
}

std::size_t PlanCache::size() const {
  LockGuard lock(mutex_);
  return entries_.size();
}

std::shared_ptr<const PolyPlan> PlanCache::lookup_or_compile(
    const core::ScenarioModel& model, const tensor::Shape& clip_shape) {
  const core::ModelConfig& config = config_of(model);
  LockGuard lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const PolyPlan& plan = *it->plan;
    if (it->config == config && plan.clip_shape() == clip_shape &&
        same_weights(model, plan)) {
      std::rotate(it, it + 1, entries_.end());  // most recently used last
      return entries_.back().plan;
    }
  }

  std::shared_ptr<const PolyPlan> plan;
  try {
    plan = PolyPlan::compile(model, clip_shape);
  } catch (const TraceError&) {
    obs::Registry::global().counter("plan.trace_errors").inc();
    throw;
  }
  if (entries_.size() == kCapacity) entries_.erase(entries_.begin());
  entries_.push_back(Entry{config, plan});
  return plan;
}

PlanExecutor::PlanExecutor(
    std::shared_ptr<const core::ScenarioExtractor> extractor,
    std::shared_ptr<const PolyPlan> plan, std::size_t max_batch)
    : extractor_(std::move(extractor)), plan_(std::move(plan)) {
  TSDX_CHECK(extractor_ != nullptr && plan_ != nullptr,
             "PlanExecutor: null extractor or plan");
  if (max_batch > 0) {
    arena_.ensure(plan_->arena_bytes(static_cast<std::int64_t>(max_batch)));
  }
}

PlanExecutor::PlanExecutor(
    std::shared_ptr<const core::ScenarioExtractor> extractor,
    const std::shared_ptr<PlanCache>& cache)
    : PlanExecutor(extractor, cache->get_or_compile(extractor->model())) {}

std::vector<core::ExtractionResult> PlanExecutor::extract_batch(
    const data::Batch& batch) {
  const tt::Shape& shape = batch.video.shape();
  const tt::Shape& clip = plan_->clip_shape();
  TSDX_CHECK(shape.size() == clip.size() + 1 &&
                 std::equal(clip.begin(), clip.end(), shape.begin() + 1),
             "PlanExecutor: batch ", tt::to_string(shape),
             " does not match the plan's clip geometry ", tt::to_string(clip));
  const std::int64_t b = shape.front();
  TSDX_CHECK(b >= 1, "PlanExecutor: empty batch");
  const auto slot = static_cast<std::size_t>(b);
  if (by_batch_.size() <= slot) by_batch_.resize(slot + 1);
  if (by_batch_[slot] == nullptr) by_batch_[slot] = plan_->at(b);
  const Plan& plan = *by_batch_[slot];

  TSDX_TRACE_SPAN("plan.execute");
  // Arena growth after the first run is an anomaly: a server worker
  // reserves for max_batch up front, so a growth here means a batch larger
  // than the reservation reached a warmed worker — worth a post-mortem
  // dump.
  const std::uint64_t growths_before = arena_.growths();
  float* arena = arena_.ensure(plan.arena_bytes());
  if (executions_ > 0 && arena_.growths() != growths_before) {
    obs::SloEngine::global().note_anomaly(obs::Anomaly::kArenaGrowth,
                                          obs::trace::current().trace_id);
  }
  ++executions_;
  plan.run(batch.video.data().data(), arena);
  obs::Registry::global().counter("plan.executions").inc();

  // The dynamic path's own decoder, fed from the plan's logit rows.
  core::SlotLogits logits{};
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    logits[s] = plan.logits_ptr(s, arena);
  }
  return core::decode_results(logits, b, extractor_->model().active_slots(),
                              extractor_->constrained_decoding());
}

}  // namespace tsdx::plan
