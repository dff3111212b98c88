// plan.hpp — the executable artifacts of the inference plan compiler.
//
// PolyPlan is what compiling a frozen model produces: the forward traced
// twice, at B=1 and at B=2, with constants folded, fusions applied and the
// arena planned per clip. Every op attribute and every value size that
// differs between the two traces must scale exactly with B (equal at both,
// or doubled at B=2); anything else is a TraceError. Instantiating the
// PolyPlan at any batch size is then attribute scaling only — no further
// forward runs — and yields a Plan.
//
// A Plan is one instantiation: a Graph whose attributes describe one batch
// size. Executing it is a flat loop over ops calling the same blocked
// kernels (and the same tsdx::par grains) the dynamic path uses, reading
// weights from the plan's own snapshot and intermediates from a
// caller-provided arena — no heap allocation per forward.
//
// Equivalence contract (tested by plan_test, gated by bench_k2_plan): a
// plan's logits are bit-identical to the dynamic forward's at any thread
// count and any batch size, fusions included, because every op calls the
// kernels the dynamic ops call (tensor/kernels/gemm.hpp,
// tensor/kernels/rows.hpp) in the same order, and the per-element order of
// those kernels does not depend on the row count m. There is no tolerance;
// the contract is exact equality.
//
// Both are immutable after construction and safe to share across threads;
// each worker brings its own arena (executor.hpp). Neither refers to the
// model it was compiled from: weights are copied at compile time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "plan/graph.hpp"
#include "plan/passes.hpp"

namespace tsdx::plan {

class Plan {
 public:
  /// Compile `model` (PolyPlan::compile over input_shape's clip geometry)
  /// and instantiate it at input_shape[0]. Throws TraceError when the
  /// forward is untraceable or does not scale with B.
  static std::shared_ptr<const Plan> compile(const core::ScenarioModel& model,
                                             const tensor::Shape& input_shape);

  /// Execute one forward. `input` is the video batch (input_shape layout,
  /// contiguous); `arena` must hold at least arena_bytes() (alignment: see
  /// kArenaAlignment). Logits land inside the arena; read them via
  /// logits_ptr().
  void run(const float* input, float* arena) const;

  /// Pointer to slot `s`'s logits ([B, cardinality(s)] row-major) after a
  /// run() on this arena.
  const float* logits_ptr(std::size_t slot, const float* arena) const;

  std::size_t arena_bytes() const { return graph_.arena_bytes; }
  int fused_ops() const { return graph_.fused_ops; }
  const tensor::Shape& input_shape() const { return graph_.input_shape; }
  const Graph& graph() const { return graph_; }

  /// Human-readable listing (values, ops, offsets) — written as a CI
  /// artifact when plan_test fails.
  std::string debug_dump() const;

 private:
  friend class PolyPlan;
  explicit Plan(Graph graph) : graph_(std::move(graph)) {}

  Graph graph_;
};

class PolyPlan {
 public:
  /// Trace `model` at [1, clip...] and [2, clip...], run the passes on
  /// both, check that they differ only by B-scaling, plan the arena per
  /// clip and snapshot the weights. `clip_shape` is [T, C, H, W]. Throws
  /// TraceError on any failure. Emits plan.compile_ms, plan.compiled,
  /// plan.fused_ops and plan.arena_bytes (per clip) to obs on success.
  static std::shared_ptr<const PolyPlan> compile(
      const core::ScenarioModel& model, const tensor::Shape& clip_shape);

  /// This plan at `batch` clips: every attribute scaled, every arena
  /// offset multiplied by `batch`. Weights and constants are shared.
  std::shared_ptr<const Plan> at(std::int64_t batch) const;

  /// Arena bytes a run at `batch` needs: the per-clip layout, `batch`
  /// times over.
  std::size_t arena_bytes(std::int64_t batch) const {
    return unit_.arena_bytes * static_cast<std::size_t>(batch);
  }
  const tensor::Shape& clip_shape() const { return clip_shape_; }
  /// The parameter snapshot the plan reads (ScenarioModel::parameters()
  /// order) — the weight half of the plan cache's key.
  const std::vector<float>& weights() const { return *unit_.weights; }

 private:
  PolyPlan() = default;

  Graph unit_;  ///< the B=1 trace, arena planned per clip
  /// The B=2 trace's op attributes and value sizes: with unit_'s, the two
  /// points that fix every attribute's line in B.
  std::vector<Op> pair_ops_;
  std::vector<std::int64_t> pair_numel_;
  tensor::Shape clip_shape_;
};

}  // namespace tsdx::plan
