#include "core/decoding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/kernels/rows.hpp"
#include "tensor/ops.hpp"

namespace tsdx::core {

namespace tt = tsdx::tensor;
namespace kernels = tsdx::tensor::kernels;

namespace {

std::array<std::vector<float>, sdl::kNumSlots> log_probs(
    const SlotProbabilities& probs) {
  std::array<std::vector<float>, sdl::kNumSlots> out;
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    if (probs[s].size() != sdl::kSlotCardinality[s]) {
      throw std::invalid_argument("decode: wrong probability vector size");
    }
    out[s].reserve(probs[s].size());
    for (float p : probs[s]) {
      out[s].push_back(std::log(std::max(p, 1e-12f)));
    }
  }
  return out;
}

}  // namespace

float ExtractionResult::min_confidence() const {
  return *std::min_element(confidence.begin(), confidence.end());
}

sdl::SlotLabels decode_argmax(const SlotProbabilities& probs) {
  sdl::SlotLabels labels{};
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    if (probs[s].size() != sdl::kSlotCardinality[s]) {
      throw std::invalid_argument("decode: wrong probability vector size");
    }
    labels[s] = static_cast<std::size_t>(kernels::argmax_row(
        probs[s].data(), static_cast<std::int64_t>(probs[s].size())));
  }
  return labels;
}

sdl::SlotLabels decode_constrained(const SlotProbabilities& probs) {
  // Fast path: if the argmax is already valid it is also the constrained
  // optimum (it maximizes each term independently).
  const sdl::SlotLabels greedy = decode_argmax(probs);
  if (sdl::is_valid(sdl::from_slot_labels(greedy))) return greedy;

  const auto lp = log_probs(probs);
  const auto& valid = sdl::all_valid_label_combinations();
  double best_score = -1e300;
  sdl::SlotLabels best = valid.front();
  for (const sdl::SlotLabels& labels : valid) {
    double score = 0.0;
    for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
      score += lp[s][labels[s]];
    }
    if (score > best_score) {
      best_score = score;
      best = labels;
    }
  }
  return best;
}

SlotLogits slot_logits(const std::array<nn::Tensor, sdl::kNumSlots>& logits) {
  SlotLogits out{};
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    out[s] = logits[s].data().data();
  }
  return out;
}

std::vector<ScenarioModel::Prediction> decode_logits(const SlotLogits& logits,
                                                     std::int64_t batch,
                                                     const SlotMask& active,
                                                     bool constrained) {
  std::vector<ScenarioModel::Prediction> out(static_cast<std::size_t>(batch));
  SlotProbabilities probs;  // one example's rows, reused across the batch
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    probs[s].resize(sdl::kSlotCardinality[s]);
  }
  for (std::int64_t i = 0; i < batch; ++i) {
    ScenarioModel::Prediction& p = out[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
      if (!constrained && !active[s]) continue;  // class 0, confidence 0
      const auto c = static_cast<std::int64_t>(sdl::kSlotCardinality[s]);
      kernels::softmax_row(probs[s].data(), logits[s] + i * c, c);
      p.labels[s] =
          static_cast<std::size_t>(kernels::argmax_row(probs[s].data(), c));
    }
    if (constrained) p.labels = decode_constrained(probs);
    for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
      if (constrained || active[s]) p.confidence[s] = probs[s][p.labels[s]];
    }
  }
  return out;
}

std::vector<ExtractionResult> decode_results(const SlotLogits& logits,
                                             std::int64_t batch,
                                             const SlotMask& active,
                                             bool constrained) {
  std::vector<ExtractionResult> out;
  out.reserve(static_cast<std::size_t>(batch));
  for (const auto& p : decode_logits(logits, batch, active, constrained)) {
    ExtractionResult result;
    result.description = sdl::from_slot_labels(p.labels);
    result.confidence = p.confidence;
    result.warnings = sdl::validate(result.description);
    out.push_back(std::move(result));
  }
  return out;
}

std::vector<sdl::SlotLabels> decode_batch(const ScenarioModel& model,
                                          const nn::Tensor& video,
                                          bool constrained) {
  tt::NoGradGuard no_grad;
  const auto logits = model.forward(video);
  std::vector<sdl::SlotLabels> out;
  for (const auto& p : decode_logits(slot_logits(logits), video.dim(0),
                                     kAllSlots, constrained)) {
    out.push_back(p.labels);
  }
  return out;
}

double validity_rate(const std::vector<sdl::SlotLabels>& predictions) {
  if (predictions.empty()) return 1.0;
  std::size_t valid = 0;
  for (const auto& labels : predictions) {
    if (sdl::is_valid(sdl::from_slot_labels(labels))) ++valid;
  }
  return static_cast<double>(valid) / static_cast<double>(predictions.size());
}

}  // namespace tsdx::core
