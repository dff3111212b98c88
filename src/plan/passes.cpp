#include "plan/passes.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace tsdx::plan {

namespace {

/// For each value (root-resolved), the indices of ops that read it, in
/// execution order.
std::vector<std::vector<std::size_t>> consumer_map(const Graph& g) {
  std::vector<std::vector<std::size_t>> consumers(g.values.size());
  for (std::size_t i = 0; i < g.ops.size(); ++i) {
    for (ValueId in : g.ops[i].inputs) {
      consumers[static_cast<std::size_t>(g.root(in))].push_back(i);
    }
  }
  return consumers;
}

bool is_graph_output(const Graph& g, ValueId id) {
  for (ValueId out : g.logits) {
    if (g.root(out) == id) return true;
  }
  return false;
}

/// Erase the ops at the given (sorted ascending) indices.
void erase_ops(Graph& g, std::vector<std::size_t> dead) {
  std::sort(dead.begin(), dead.end());
  std::vector<Op> kept;
  kept.reserve(g.ops.size() - dead.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < g.ops.size(); ++i) {
    if (next < dead.size() && dead[next] == i) {
      ++next;
      continue;
    }
    kept.push_back(std::move(g.ops[i]));
  }
  g.ops = std::move(kept);
}

}  // namespace

void fuse_bias_gelu(Graph& graph) {
  const auto consumers = consumer_map(graph);
  std::vector<std::size_t> dead;
  for (std::size_t i = 0; i < graph.ops.size(); ++i) {
    const Op& add = graph.ops[i];
    if (add.type != OpType::kAdd || add.bcast != Bcast::kBSmall) continue;
    const ValueId sum = graph.root(add.out);
    if (is_graph_output(graph, sum)) continue;
    const auto& uses = consumers[static_cast<std::size_t>(sum)];
    if (uses.size() != 1) continue;
    Op& gelu = graph.ops[uses[0]];
    if (gelu.type != OpType::kGelu) continue;

    gelu.type = OpType::kBiasGelu;
    gelu.inputs = add.inputs;  // {x, bias}
    gelu.bcast_m = add.bcast_m;
    dead.push_back(i);
    ++graph.fused_ops;
  }
  erase_ops(graph, std::move(dead));
}

void fuse_attention_softmax(Graph& graph) {
  const auto consumers = consumer_map(graph);
  std::vector<std::size_t> dead;
  for (std::size_t i = 0; i < graph.ops.size(); ++i) {
    const Op& mm = graph.ops[i];
    if (mm.type != OpType::kMatmulNt) continue;
    const ValueId scores = graph.root(mm.out);
    if (is_graph_output(graph, scores)) continue;
    const auto& score_uses = consumers[static_cast<std::size_t>(scores)];
    if (score_uses.size() != 1) continue;
    const std::size_t j = score_uses[0];
    const Op& scale = graph.ops[j];
    if (scale.type != OpType::kMulScalar) continue;
    const ValueId scaled = graph.root(scale.out);
    if (is_graph_output(graph, scaled)) continue;
    const auto& scaled_uses = consumers[static_cast<std::size_t>(scaled)];
    if (scaled_uses.size() != 1) continue;
    Op& softmax = graph.ops[scaled_uses[0]];
    if (softmax.type != OpType::kSoftmax) continue;

    softmax.type = OpType::kScaledSoftmaxNt;
    softmax.inputs = mm.inputs;  // {q, k}
    softmax.scalar = scale.scalar;
    softmax.batch = mm.batch;
    softmax.m = mm.m;
    softmax.k = mm.k;
    softmax.n = mm.n;
    softmax.shared_rhs = mm.shared_rhs;
    dead.push_back(i);
    dead.push_back(j);
    graph.fused_ops += 2;
  }
  erase_ops(graph, std::move(dead));
}

void fuse_residual_norm(Graph& graph) {
  const auto consumers = consumer_map(graph);
  std::vector<std::size_t> dead;
  for (std::size_t i = 0; i < graph.ops.size(); ++i) {
    const Op& add = graph.ops[i];
    if (add.type != OpType::kAdd || add.bcast != Bcast::kSame) continue;
    const ValueId sum = graph.root(add.out);
    const auto& uses = consumers[static_cast<std::size_t>(sum)];
    if (uses.empty()) continue;
    // The layer_norm must be the first consumer: out2 is written by the
    // fused op, and every earlier reader would see stale bytes.
    Op& ln = graph.ops[uses[0]];
    if (ln.type != OpType::kLayerNorm) continue;
    if (graph.root(ln.inputs[0]) != sum) continue;

    ln.type = OpType::kAddLayerNorm;
    ln.inputs = {add.inputs[0], add.inputs[1], ln.inputs[1], ln.inputs[2]};
    ln.out2 = add.out;
    dead.push_back(i);
    ++graph.fused_ops;
  }
  erase_ops(graph, std::move(dead));
}

}  // namespace tsdx::plan
