// plan.hpp — the executable artifact of the inference plan compiler.
//
// A Plan is a Graph after all passes: constants folded, reshapes aliased,
// fusions applied, every intermediate assigned an arena offset. Executing
// it is a flat loop over ops calling the same blocked kernels (and the same
// tsdx::par grains) the dynamic path uses, reading weights in place from
// the frozen model and intermediates from a caller-provided arena — no heap
// allocation per forward.
//
// Equivalence contract (tested by plan_test, gated by bench_k2_plan): a
// plan's logits are bit-identical to the dynamic forward's at any thread
// count, fusions included, because every op calls the kernels the dynamic
// ops call (tensor/kernels/gemm.hpp, tensor/kernels/rows.hpp) in the same
// order. There is no tolerance; the contract is exact equality.
//
// A Plan is immutable after compile() and safe to share across workers;
// each worker brings its own arena (executor.hpp).
#pragma once

#include <memory>
#include <string>

#include "core/model.hpp"
#include "plan/graph.hpp"
#include "plan/passes.hpp"

namespace tsdx::plan {

class Plan {
 public:
  /// Trace `model` at `input_shape`, run the passes, plan memory. Throws
  /// TraceError when the forward uses ops the compiler has no hook for
  /// (callers fall back to the dynamic path). Emits plan.compile_ms,
  /// plan.arena_bytes, plan.fused_ops to obs on success.
  static std::shared_ptr<const Plan> compile(const core::ScenarioModel& model,
                                             const tensor::Shape& input_shape,
                                             const CompileOptions& options);

  /// Execute one forward. `input` is the video batch (input_shape layout,
  /// contiguous); `arena` must hold at least arena_bytes() and be 64-byte
  /// aligned. Logits land inside the arena; read them via logits_ptr().
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
  explicit Plan(Graph graph) : graph_(std::move(graph)) {}

  Graph graph_;
};

}  // namespace tsdx::plan
