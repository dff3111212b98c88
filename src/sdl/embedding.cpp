#include "sdl/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tsdx::sdl {

std::size_t scenario_vector_dim() {
  std::size_t dim = 0;
  for (std::size_t c : kSlotCardinality) dim += c;
  return dim + (kNumActorTypes - 1);  // background multi-hot (real types only)
}

std::vector<float> scenario_to_vector(const ScenarioDescription& d,
                                      const EmbeddingWeights& w) {
  const SlotLabels labels = to_slot_labels(d);
  const std::array<float, kNumSlots> slot_weights = {
      w.road_layout, w.time_of_day, w.weather,      w.density,
      w.ego_action,  w.actor_type,  w.actor_action, w.actor_position};

  std::vector<float> vec(scenario_vector_dim(), 0.0f);
  std::size_t offset = 0;
  for (std::size_t s = 0; s < kNumSlots; ++s) {
    vec[offset + labels[s]] = slot_weights[s];
    offset += kSlotCardinality[s];
  }
  // Background block: presence (not multiplicity) of each real actor type.
  for (const ActorDescription& a : d.background_actors) {
    if (a.type == ActorType::kNone) continue;
    vec[offset + static_cast<std::size_t>(a.type) - 1] = w.background;
  }

  const float norm = std::sqrt(
      std::inner_product(vec.begin(), vec.end(), vec.begin(), 0.0f));
  if (norm > 0.0f) {
    for (float& v : vec) v /= norm;
  }
  return vec;
}

float cosine_similarity(const std::vector<float>& a,
                        const std::vector<float>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  float dot = 0.0f, na = 0.0f, nb = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  for (std::size_t i = n; i < a.size(); ++i) na += a[i] * a[i];
  for (std::size_t i = n; i < b.size(); ++i) nb += b[i] * b[i];
  const float denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 0.0f ? dot / denom : 0.0f;
}

float scenario_similarity(const ScenarioDescription& a,
                          const ScenarioDescription& b,
                          const EmbeddingWeights& w) {
  return cosine_similarity(scenario_to_vector(a, w), scenario_to_vector(b, w));
}

}  // namespace tsdx::sdl
