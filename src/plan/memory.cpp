#include "plan/memory.hpp"

#include <algorithm>
#include <vector>

namespace tsdx::plan {

std::size_t aligned_bytes(std::int64_t numel) {
  const std::size_t raw = static_cast<std::size_t>(numel) * sizeof(float);
  return (raw + kArenaAlignment - 1) & ~(kArenaAlignment - 1);
}

namespace {

/// May `op` write its output straight over input `idx`? True only for ops
/// whose kernels read element i (of that input) before writing element i of
/// the output — verified per kernel in plan.cpp.
bool in_place_safe(const Op& op, std::size_t idx) {
  switch (op.type) {
    case OpType::kMulScalar:
    case OpType::kGelu:
    case OpType::kSoftmax:
    case OpType::kLogSoftmax:
    case OpType::kLayerNorm:
    case OpType::kBiasGelu:
      return idx == 0;
    case OpType::kAdd:
      // out[i] = a[i] + b[i % m] (or mirrored): the full-size operand is
      // read at the same index it would overwrite.
      if (op.bcast == Bcast::kASmall) return idx == 1;
      return idx == 0;
    default:
      // matmul-family kernels accumulate into the output while streaming
      // the inputs; sharing bytes would corrupt them. kAddLayerNorm's
      // aliasing (out2 over x) is handled separately below.
      return false;
  }
}

}  // namespace

void plan_memory(Graph& graph) {
  const std::size_t n_values = graph.values.size();
  const int n_ops = static_cast<int>(graph.ops.size());
  std::vector<int> def(n_values, -1);
  std::vector<int> death(n_values, -1);

  for (int i = 0; i < n_ops; ++i) {
    const Op& op = graph.ops[i];
    def[static_cast<std::size_t>(graph.root(op.out))] = i;
    if (op.out2 != kNoValue) {
      def[static_cast<std::size_t>(graph.root(op.out2))] = i;
    }
    for (ValueId in : op.inputs) {
      death[static_cast<std::size_t>(graph.root(in))] = i;
    }
  }
  for (ValueId out : graph.logits) {
    death[static_cast<std::size_t>(graph.root(out))] = n_ops;
  }

  // In-place reuse: write the output over an arena input that dies at this
  // op. The alias extends the root's lifetime to cover the new value's.
  auto arena_root_dying_at = [&](ValueId in, int i) -> ValueId {
    const ValueId r = graph.root(in);
    const Value& v = graph.values[static_cast<std::size_t>(r)];
    if (v.kind != ValueKind::kArena) return kNoValue;
    if (def[static_cast<std::size_t>(r)] < 0) return kNoValue;
    if (death[static_cast<std::size_t>(r)] != i) return kNoValue;
    return r;
  };
  auto try_alias = [&](ValueId out, ValueId r, int /*i*/) {
    Value& ov = graph.values[static_cast<std::size_t>(out)];
    const Value& rv = graph.values[static_cast<std::size_t>(r)];
    if (aligned_bytes(ov.numel) > aligned_bytes(rv.numel)) return;
    ov.alias_of = r;
    death[static_cast<std::size_t>(r)] =
        std::max(death[static_cast<std::size_t>(r)],
                 death[static_cast<std::size_t>(out)]);
  };
  for (int i = 0; i < n_ops; ++i) {
    const Op& op = graph.ops[i];
    if (op.type == OpType::kAddLayerNorm) {
      // out2 (the sum) may take over x's bytes: the kernel reads x[i], y[i]
      // then writes sum[i].
      const ValueId r = arena_root_dying_at(op.inputs[0], i);
      if (r != kNoValue && graph.root(op.out2) == op.out2) {
        try_alias(op.out2, r, i);
      }
      continue;
    }
    for (std::size_t idx = 0; idx < op.inputs.size(); ++idx) {
      if (!in_place_safe(op, idx)) continue;
      const ValueId r = arena_root_dying_at(op.inputs[idx], i);
      if (r == kNoValue) continue;
      try_alias(op.out, r, i);
      break;
    }
  }

  // First-fit placement in definition order.
  struct Alloc {
    std::size_t offset;
    std::size_t size;
    int death;
  };
  std::vector<Alloc> live;
  std::size_t high_water = 0;
  auto place = [&](ValueId id, int t) {
    Value& v = graph.values[static_cast<std::size_t>(id)];
    const std::size_t size = aligned_bytes(v.numel);
    live.erase(std::remove_if(live.begin(), live.end(),
                              [t](const Alloc& a) { return a.death < t; }),
               live.end());
    std::sort(live.begin(), live.end(),
              [](const Alloc& a, const Alloc& b) { return a.offset < b.offset; });
    std::size_t cursor = 0;
    for (const Alloc& a : live) {
      if (a.offset >= cursor + size) break;
      cursor = std::max(cursor, a.offset + a.size);
    }
    v.offset = cursor;
    live.push_back({cursor, size, death[static_cast<std::size_t>(id)]});
    high_water = std::max(high_water, cursor + size);
  };
  for (int i = 0; i < n_ops; ++i) {
    const Op& op = graph.ops[i];
    for (ValueId out : {op.out, op.out2}) {
      if (out == kNoValue) continue;
      Value& v = graph.values[static_cast<std::size_t>(out)];
      if (v.kind != ValueKind::kArena || v.alias_of != kNoValue) continue;
      place(out, i);
    }
  }
  graph.arena_bytes = high_water;
}

}  // namespace tsdx::plan
