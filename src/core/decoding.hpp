// decoding.hpp — turning per-slot logits into scenario descriptions.
//
// decode_logits() is the one decoder behind every inference path: the
// dynamic extractor, ScenarioModel::predict_with_confidence, decode_batch
// and compiled plans (plan::PlanExecutor) all hand it their logit rows, so
// the paths cannot drift apart in softmax, tie-breaking or confidence.
//
// Independent per-slot argmax can emit descriptions the SDL grammar forbids
// (e.g. "truck crossing", "turn on a straight road"). Constrained decoding
// instead returns the *valid* label combination with maximum joint
// likelihood under the per-slot softmax distributions:
//
//   argmax_{labels in ValidSet}  sum_s log p_s(labels[s])
//
// The valid set (~tens of thousands of tuples, enumerated once from
// sdl::validate) is small enough for exact search — no beam approximation
// is needed. Guaranteed-valid output is what downstream scenario databases
// require.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "sdl/coverage.hpp"

namespace tsdx::core {

/// The result of running extraction on one clip.
struct ExtractionResult {
  sdl::ScenarioDescription description;
  /// Softmax probability of the decoded class, per slot.
  std::array<float, sdl::kNumSlots> confidence{};
  /// Semantic-consistency warnings from sdl::validate (a model can emit
  /// combinations the SDL grammar forbids; downstream consumers should check).
  std::vector<std::string> warnings;

  /// Minimum slot confidence — a quick usefulness gate.
  float min_confidence() const;
};

/// Per-slot class probabilities for one example.
using SlotProbabilities =
    std::array<std::vector<float>, sdl::kNumSlots>;

/// Per-slot logits for a batch: entry s points at a row-major
/// [batch, kSlotCardinality[s]] block.
using SlotLogits = std::array<const float*, sdl::kNumSlots>;

/// Pointers into the per-slot logit tensors of ScenarioModel::forward.
SlotLogits slot_logits(const std::array<nn::Tensor, sdl::kNumSlots>& logits);

/// Decode every example of a batch. Each slot's row goes through
/// tensor::kernels::softmax_row; the label is then the first strict
/// maximum, or, when `constrained`, decode_constrained() over all slots'
/// probabilities. The confidence is the decoded class's probability. Under
/// argmax decoding, slots outside `active` decode to class 0 with
/// confidence 0; constrained decoding searches whole label tuples and so
/// reads every slot.
std::vector<ScenarioModel::Prediction> decode_logits(const SlotLogits& logits,
                                                     std::int64_t batch,
                                                     const SlotMask& active,
                                                     bool constrained);

/// decode_logits(), plus each example's description and its sdl::validate
/// warnings.
std::vector<ExtractionResult> decode_results(const SlotLogits& logits,
                                             std::int64_t batch,
                                             const SlotMask& active,
                                             bool constrained);

/// Exact maximum-likelihood valid assignment for one example.
/// Each probs[s] must have size kSlotCardinality[s]; probabilities are
/// clamped below at 1e-12 before taking logs.
sdl::SlotLabels decode_constrained(const SlotProbabilities& probs);

/// Unconstrained per-slot argmax (the baseline decoder), for comparison.
sdl::SlotLabels decode_argmax(const SlotProbabilities& probs);

/// Run a model on a batch and decode every example, every slot included.
/// `constrained` selects the decoder.
std::vector<sdl::SlotLabels> decode_batch(const ScenarioModel& model,
                                          const nn::Tensor& video,
                                          bool constrained);

/// Fraction of a prediction set that is semantically valid (diagnostic).
double validity_rate(const std::vector<sdl::SlotLabels>& predictions);

}  // namespace tsdx::core
