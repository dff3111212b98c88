// extractor.hpp — the user-facing API of the library: video clip in,
// structured scenario description out.
#pragma once

#include <memory>
#include <string>

#include "core/decoding.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "core/video_transformer.hpp"
#include "sim/render.hpp"

namespace tsdx::core {

/// Owns a ScenarioModel and converts raw clips to descriptions.
class ScenarioExtractor {
 public:
  /// Wrap an existing (typically trained) model.
  explicit ScenarioExtractor(std::shared_ptr<ScenarioModel> model);

  /// Build an untrained video-transformer extractor (then call train()).
  ScenarioExtractor(const ModelConfig& config, std::uint64_t seed);

  /// When enabled, extract() decodes with the exact maximum-likelihood
  /// search over semantically valid label combinations (see decoding.hpp):
  /// the returned description is then guaranteed to pass sdl::validate.
  void set_constrained_decoding(bool enabled) { constrained_ = enabled; }
  bool constrained_decoding() const { return constrained_; }

  /// Train on a labeled dataset; returns the training history.
  TrainResult train(const data::Dataset& train_set,
                    const data::Dataset& val_set, const TrainConfig& config);

  /// Freeze the model for inference (disables dropout). On a frozen model,
  /// extract()/extract_batch() are pure const traversals of the weights:
  /// deterministic, RNG-free, and safe to call concurrently from multiple
  /// threads (the contract tsdx::serve::InferenceServer relies on).
  void freeze() { model_->set_training(false); }
  bool frozen() const { return !model_->training(); }

  /// Extract the description of a single clip.
  ExtractionResult extract(const sim::VideoClip& clip) const;

  /// Batch extraction.
  std::vector<ExtractionResult> extract_batch(const data::Batch& batch) const;

  const ScenarioModel& model() const { return *model_; }
  ScenarioModel& model() { return *model_; }

 private:
  // The Rng must outlive the model (layers keep pointers for dropout).
  std::shared_ptr<nn::Rng> rng_;
  std::shared_ptr<ScenarioModel> model_;
  bool constrained_ = false;
};

/// Convert a single clip into a [1, T, C, H, W] tensor.
nn::Tensor clip_to_tensor(const sim::VideoClip& clip);

}  // namespace tsdx::core
