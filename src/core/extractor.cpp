#include "core/extractor.hpp"

#include "core/decoding.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace tsdx::core {

namespace tt = tsdx::tensor;

nn::Tensor clip_to_tensor(const sim::VideoClip& clip) {
  return nn::Tensor::from_vector(
      {1, clip.frames, sim::kNumChannels, clip.height, clip.width},
      std::vector<float>(clip.data.begin(), clip.data.end()));
}

ScenarioExtractor::ScenarioExtractor(std::shared_ptr<ScenarioModel> model)
    : model_(std::move(model)) {}

ScenarioExtractor::ScenarioExtractor(const ModelConfig& config,
                                     std::uint64_t seed)
    : rng_(std::make_shared<nn::Rng>(seed)) {
  auto backbone = std::make_unique<VideoTransformer>(config, *rng_);
  model_ = std::make_shared<ScenarioModel>(std::move(backbone), *rng_);
}

TrainResult ScenarioExtractor::train(const data::Dataset& train_set,
                                     const data::Dataset& val_set,
                                     const TrainConfig& config) {
  return Trainer(config).fit(*model_, train_set, val_set);
}

std::vector<ExtractionResult> ScenarioExtractor::extract_batch(
    const data::Batch& batch) const {
  TSDX_TRACE_SPAN("extract.batch");
  tt::NoGradGuard no_grad;
  const auto logits = model_->forward(batch.video);
  return decode_results(slot_logits(logits), batch.video.dim(0),
                        model_->active_slots(), constrained_);
}

ExtractionResult ScenarioExtractor::extract(const sim::VideoClip& clip) const {
  data::Batch batch;
  batch.video = clip_to_tensor(clip);
  return extract_batch(batch)[0];
}

}  // namespace tsdx::core
