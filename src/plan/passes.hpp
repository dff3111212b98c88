// passes.hpp — compile-time rewrites over plan::Graph.
//
// Every pass preserves bit-exact equivalence with the dynamic path: fused
// kernels replay the same per-element arithmetic in the same order as the
// op pair they replace, and op order never changes (DESIGN.md §16 spells
// out the per-fusion argument). Constant folding happens in the tracer
// itself (trace.hpp), so a trace never keeps an intermediate's data.
//
// Pass order in PolyPlan::compile(): every fuse_* (on both traces) →
// plan_memory (memory.hpp).
#pragma once

#include "plan/graph.hpp"

namespace tsdx::plan {

/// add(x, bias) → gelu  ⇒  kBiasGelu (the Linear-into-GELU seam in Mlp).
/// Fires when the add is a suffix broadcast and the gelu is its only
/// consumer; counts into graph.fused_ops.
void fuse_bias_gelu(Graph& graph);

/// matmul_nt(q, k) → mul_scalar → softmax  ⇒  kScaledSoftmaxNt: attention
/// scores, scaling and row softmax in one arena buffer. Fires when each
/// intermediate has exactly one consumer.
void fuse_attention_softmax(Graph& graph);

/// add(x, y) (same shape) → layer_norm  ⇒  kAddLayerNorm producing both the
/// normed result and the residual sum (out2), since pre-LN blocks reuse the
/// sum. Fires only when the layer_norm is the *first* consumer of the sum —
/// later consumers read out2 after the fused op wrote it.
void fuse_residual_norm(Graph& graph);

}  // namespace tsdx::plan
