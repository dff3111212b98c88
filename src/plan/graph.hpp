// graph.hpp — the static op graph tsdx::plan compiles a frozen forward into.
//
// A Graph is born from one traced dynamic forward (trace.hpp): every tensor
// the forward created becomes a Value, every hooked tensor op becomes an Op
// in execution order, and ops over frozen inputs fold into constants as
// they are traced. Passes (passes.hpp) then fuse adjacent ops, and the
// memory planner (memory.hpp) assigns every surviving intermediate an
// offset in a single per-worker arena. Two such graphs, traced at B=1 and
// B=2, make one batch-polymorphic PolyPlan (plan.hpp); the Graph a Plan
// executes is that pair instantiated at one batch size, with zero heap
// allocation per forward.
//
// Design invariants:
//   * Ops stay in trace order. The dynamic path executed them in exactly
//     this order, so replaying them with the same kernels and the same
//     grains reproduces the dynamic output bit for bit (DESIGN.md §16).
//   * All op geometry (matmul dims, broadcast extents, row counts) is
//     resolved at compile time from the traced node shapes. Values only
//     carry storage facts; an aliased Value (reshape) shares its root's
//     buffer even though the traced shapes differed.
//   * A Graph never holds a traced intermediate's data. Frozen values are
//     copied into the plan (constants, weights); everything else is a size.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sdl/description.hpp"
#include "tensor/tensor.hpp"

namespace tsdx::plan {

/// Alignment of every arena offset (memory.hpp) and of the arena block a
/// worker runs plans in (executor.hpp's Arena): each intermediate starts on
/// its own cache line. That is a performance contract only — the kernels
/// need nothing beyond float alignment, so Plan::run is also correct on a
/// plain std::vector<float> arena, as the tests use.
inline constexpr std::size_t kArenaAlignment = 64;

using ValueId = std::int32_t;
inline constexpr ValueId kNoValue = -1;

/// Where a Value's bytes live at execution time.
enum class ValueKind : std::uint8_t {
  kInput,     ///< the video batch, bound per call (caller's buffer, no copy)
  kExternal,  ///< model parameter: read from the plan's weight snapshot
  kConstant,  ///< folded at compile time (or a non-parameter table the
              ///< forward reads); storage owned by the plan
  kArena,     ///< intermediate, placed in the per-worker arena
};

struct Value {
  ValueKind kind = ValueKind::kArena;
  std::int64_t numel = 0;
  ValueId alias_of = kNoValue;  ///< reshape/in-place alias: share root buffer

  /// kExternal, compile time only: the model node the forward read. The
  /// compiler binds it to its bytes in the weight snapshot, then drops it.
  tensor::NodePtr traced;

  /// kConstant payload, shared by every batch instantiation of a plan.
  std::shared_ptr<const std::vector<float>> constant;
  /// Byte offset: into the arena (kArena) or the weight snapshot
  /// (kExternal).
  std::size_t offset = 0;
};

/// Executable op kinds: the traced set plus the three fusions. Reshape and
/// embedding_lookup never appear — the tracer resolves them into aliases
/// and folded constants respectively.
enum class OpType : std::uint8_t {
  kAdd,
  kMulScalar,
  kGelu,
  kMatmul,
  kMatmulNt,
  kPermute,
  kSumDim,
  kSoftmax,
  kLogSoftmax,
  kLayerNorm,
  // fused (passes.hpp):
  kBiasGelu,         ///< gelu(x + bias), bias suffix-broadcast
  kScaledSoftmaxNt,  ///< softmax(scale * (Q·Kᵀ)) in one buffer
  kAddLayerNorm,     ///< out = LN(x + y), out2 = x + y (residual kept)
};

const char* to_string(OpType type);

/// Suffix-broadcast layout of kAdd (mirrors the dynamic binary_op).
enum class Bcast : std::uint8_t { kSame, kBSmall, kASmall };

struct Op {
  OpType type;
  std::vector<ValueId> inputs;
  ValueId out = kNoValue;
  ValueId out2 = kNoValue;  ///< kAddLayerNorm: the residual sum

  // Attributes, resolved from traced shapes (unused fields stay 0).
  float scalar = 0.0f;  ///< kMulScalar factor / kScaledSoftmaxNt scale
  float eps = 0.0f;     ///< layer-norm epsilon
  Bcast bcast = Bcast::kSame;
  std::int64_t bcast_m = 0;  ///< small operand numel for kBSmall/kASmall
  std::int64_t rows = 0;     ///< row-local ops: row count
  std::int64_t cols = 0;     ///< row-local ops: row width
  // matmul family
  std::int64_t batch = 1, m = 0, k = 0, n = 0;
  bool shared_rhs = false;
  // kSumDim extents
  std::int64_t outer = 0, red = 0, inner = 0;
  // kPermute: output extents + input stride per output axis
  std::vector<std::int64_t> out_extents;
  std::vector<std::int64_t> gather;
};

struct Graph {
  std::vector<Value> values;
  std::vector<Op> ops;  ///< trace order == execution order

  ValueId input = kNoValue;
  tensor::Shape input_shape;
  std::array<ValueId, sdl::kNumSlots> logits{};  ///< per-slot output values

  std::size_t arena_bytes = 0;  ///< set by plan_memory
  int fused_ops = 0;            ///< set by the fusion passes
  /// Every model parameter, concatenated in ScenarioModel::parameters()
  /// order: kExternal values point into it. Also the plan cache's key
  /// bytes, so a plan never reads weights other than the ones it matched.
  std::shared_ptr<const std::vector<float>> weights;

  /// Follow alias_of links to the value that owns the storage.
  ValueId root(ValueId id) const {
    while (values[static_cast<std::size_t>(id)].alias_of != kNoValue) {
      id = values[static_cast<std::size_t>(id)].alias_of;
    }
    return id;
  }
};

}  // namespace tsdx::plan
