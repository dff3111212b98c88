// config.hpp — model configuration for the video-transformer extractor.
#pragma once

#include <cstdint>
#include <string>

namespace tsdx::core {

/// How self-attention is factorized over space and time — the central
/// architectural knob ablated in experiment R-T2.
enum class AttentionKind : std::uint8_t {
  kJoint = 0,         ///< one encoder over all space-time tokens (ViViT model 1)
  kDividedST,         ///< alternating spatial / temporal layers (TimeSformer-style)
  kFactorizedEncoder, ///< spatial encoder per frame, then temporal encoder (ViViT model 2)
  kSpaceOnly,         ///< spatial encoder + frame-average (no temporal attention)
};

std::string to_string(AttentionKind kind);

/// Where tokens get their space/time position information from.
enum class PositionalKind : std::uint8_t {
  kLearned = 0,  ///< learned spatial + temporal embedding tables
  kSinusoidal,   ///< fixed sin/cos codes (no parameters)
  kNone,         ///< no positional information (ablation floor)
};

std::string to_string(PositionalKind kind);

/// How the final token set is reduced to one clip feature.
enum class Pooling : std::uint8_t {
  kMean = 0,   ///< unweighted token average
  kAttention,  ///< learned single-query attention pool (softmax-weighted)
};

std::string to_string(Pooling pooling);

struct ModelConfig {
  // Input geometry (must match the RenderConfig used for the data).
  std::int64_t frames = 8;
  std::int64_t channels = 4;  ///< matches sim::kNumChannels (road/veh/vru/salient)
  std::int64_t image_size = 64;

  // Tokenization.
  std::int64_t patch_size = 8;    ///< spatial tubelet edge (pixels)
  std::int64_t tubelet_frames = 1;  ///< temporal tubelet depth (frames)

  // Transformer.
  std::int64_t dim = 48;
  std::int64_t depth = 4;
  std::int64_t heads = 4;
  std::int64_t mlp_ratio = 2;  ///< hidden = dim * mlp_ratio
  float dropout = 0.0f;
  AttentionKind attention = AttentionKind::kDividedST;
  Pooling pooling = Pooling::kMean;
  PositionalKind positional = PositionalKind::kLearned;

  // Derived quantities.
  std::int64_t tokens_per_frame() const {
    const std::int64_t side = image_size / patch_size;
    return side * side;
  }
  std::int64_t temporal_tokens() const { return frames / tubelet_frames; }
  std::int64_t total_tokens() const {
    return tokens_per_frame() * temporal_tokens();
  }
  std::int64_t tubelet_dim() const {
    return tubelet_frames * channels * patch_size * patch_size;
  }

  /// Throws std::invalid_argument when geometry does not divide evenly.
  void validate() const;

  /// Field-wise equality: the model half of the plan cache's key.
  bool operator==(const ModelConfig&) const = default;

  /// Presets used throughout tests/benches.
  static ModelConfig tiny();   ///< dim 32, depth 2 — unit-test scale
  static ModelConfig small();  ///< dim 48, depth 4 — bench scale
};

}  // namespace tsdx::core
