// embedding.hpp — Scenario2Vector-style metric embedding of descriptions.
//
// A ScenarioDescription maps to a fixed-length vector: the concatenated
// one-hot encodings of the 8 SDL slots, each block scaled by a per-slot
// importance weight (actions matter more than weather for "is this the same
// scenario?"), plus a multi-hot block for background-actor types. Cosine
// similarity on these vectors gives a semantically meaningful scenario
// distance: tsdx::index ranks stored scenarios by it (the scenario-search
// example, the retrieval experiment R-F3).
#pragma once

#include <cstddef>
#include <vector>

#include "sdl/description.hpp"

namespace tsdx::sdl {

/// Per-slot importance weights applied to each one-hot block.
struct EmbeddingWeights {
  float road_layout = 1.0f;
  float time_of_day = 0.5f;
  float weather = 0.5f;
  float density = 0.5f;
  float ego_action = 2.0f;
  float actor_type = 1.5f;
  float actor_action = 2.0f;
  float actor_position = 1.0f;
  float background = 0.25f;
};

/// Dimensionality of scenario vectors (sum of slot cardinalities plus the
/// background multi-hot block of kNumActorTypes-1 real types).
std::size_t scenario_vector_dim();

/// Embed a description. The result is L2-normalized unless it is all-zero
/// (impossible for valid descriptions).
std::vector<float> scenario_to_vector(const ScenarioDescription& d,
                                      const EmbeddingWeights& w = {});

/// Cosine similarity in [-1, 1]; 1 means identical slot assignments.
float cosine_similarity(const std::vector<float>& a,
                        const std::vector<float>& b);

/// Convenience: similarity of two descriptions under weights `w`.
float scenario_similarity(const ScenarioDescription& a,
                          const ScenarioDescription& b,
                          const EmbeddingWeights& w = {});

}  // namespace tsdx::sdl
