#include "core/model.hpp"

#include <stdexcept>

#include "core/decoding.hpp"
#include "tensor/nn_ops.hpp"
#include "tensor/ops.hpp"

namespace tsdx::core {

namespace tt = tsdx::tensor;
using nn::Tensor;

SlotHeads::SlotHeads(std::int64_t feature_dim, nn::Rng& rng) {
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    heads_[s] = std::make_unique<nn::Linear>(
        feature_dim, static_cast<std::int64_t>(sdl::kSlotCardinality[s]), rng);
    register_module(std::string("head_") +
                        std::string(sdl::to_string(static_cast<sdl::Slot>(s))),
                    *heads_[s]);
  }
}

std::array<Tensor, sdl::kNumSlots> SlotHeads::forward(
    const Tensor& features) const {
  std::array<Tensor, sdl::kNumSlots> out;
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    out[s] = heads_[s]->forward(features);
  }
  return out;
}

ScenarioModel::ScenarioModel(std::unique_ptr<Backbone> backbone, nn::Rng& rng,
                             SlotMask active)
    : backbone_(std::move(backbone)),
      heads_(backbone_->feature_dim(), rng),
      active_(active) {
  register_module("backbone", *backbone_);
  register_module("heads", heads_);
}

std::array<Tensor, sdl::kNumSlots> ScenarioModel::forward(
    const Tensor& video) const {
  return heads_.forward(backbone_->forward(video));
}

Tensor ScenarioModel::loss(
    const Tensor& video,
    const std::array<std::vector<std::int64_t>, sdl::kNumSlots>& labels) const {
  const auto logits = forward(video);
  Tensor total = Tensor::zeros({});
  std::size_t active_count = 0;
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    if (!active_[s]) continue;
    total = tt::add(total, tt::cross_entropy_logits(logits[s], labels[s]));
    ++active_count;
  }
  if (active_count == 0) {
    throw std::logic_error("ScenarioModel::loss: no active slots");
  }
  return tt::mul_scalar(total, 1.0f / static_cast<float>(active_count));
}

std::vector<sdl::SlotLabels> ScenarioModel::predict(const Tensor& video) const {
  std::vector<sdl::SlotLabels> out;
  for (const auto& p : predict_with_confidence(video)) out.push_back(p.labels);
  return out;
}

std::vector<ScenarioModel::Prediction> ScenarioModel::predict_with_confidence(
    const Tensor& video) const {
  tt::NoGradGuard no_grad;
  const auto logits = forward(video);
  return decode_logits(slot_logits(logits), video.dim(0), active_,
                       /*constrained=*/false);
}

}  // namespace tsdx::core
