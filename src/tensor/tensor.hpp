// tensor.hpp — dense float32 tensor with reverse-mode autograd.
//
// Design
// ------
// * `Tensor` is a cheap value-semantic handle onto a shared `Node`.
// * Every op produces a new contiguous row-major tensor and, when any input
//   requires gradients, records a backward closure on the result node.
// * `Tensor::backward()` runs the tape: topological sort over parents, then
//   each node's closure scatters its `grad` into the parents' `grad` buffers.
// * Gradients accumulate (+=); call `zero_grad()` between steps.
// * `NoGradGuard` disables tape recording for inference-only regions.
//
// The library is deliberately CPU-only and contiguous-only: the models in
// this repo are tiny (DATE = resource-constrained platforms), and a simple
// memory model keeps the autograd engine small enough to grad-check
// exhaustively (see gradcheck.hpp and tests/tensor/*).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "tensor/rng.hpp"
#include "tensor/shape.hpp"

namespace tsdx::tensor {

struct Node;
using NodePtr = std::shared_ptr<Node>;

/// One vertex of the autograd tape. Users never touch Node directly; the
/// Tensor handle below provides the public API.
struct Node {
  Shape shape;
  std::vector<float> data;
  bool requires_grad = false;
  std::vector<float> grad;  ///< same size as data once touched; empty until then
  std::vector<NodePtr> parents;
  /// Reads this->grad, accumulates into parents' grad. Null for leaves and
  /// for results created under NoGradGuard.
  std::function<void(Node&)> backward;
  /// Stamped by the plan tracer when the node is created under a trace
  /// (trace_hook.hpp); 0 otherwise. Ids are unique per process, so a node
  /// keeps its identity in the tracer's node -> value map even when a dead
  /// node's address is reused later in the same forward.
  std::uint64_t trace_id = 0;

  std::int64_t numel() const { return static_cast<std::int64_t>(data.size()); }

  /// Allocate (zero-filled) gradient storage on first use.
  std::vector<float>& ensure_grad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
    return grad;
  }
};

/// RAII guard: while alive, newly created tensors record no tape (inference).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True when at least one guard is alive on this thread.
  static bool active();

 private:
  bool previous_;
};

/// Value-semantic handle to a tensor node. Copying shares storage.
class Tensor {
 public:
  /// Default: empty scalar-shaped tensor holding a single zero.
  Tensor() : Tensor(zeros({})) {}
  explicit Tensor(NodePtr node) : node_(std::move(node)) { assert(node_); }

  // ---- construction -------------------------------------------------------
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor ones(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);
  /// Takes ownership of `values`; size must equal numel(shape).
  static Tensor from_vector(Shape shape, std::vector<float> values,
                            bool requires_grad = false);
  /// i.i.d. N(0, stddev^2).
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f,
                      bool requires_grad = false);
  /// i.i.d. U[lo, hi).
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi,
                             bool requires_grad = false);

  // ---- accessors -----------------------------------------------------------
  const Shape& shape() const { return node_->shape; }
  std::int64_t dim(std::size_t i) const {
    TSDX_SHAPE_ASSERT(i < node_->shape.size(), "dim(", i,
                      "): out of range for ", to_string(node_->shape));
    return node_->shape[i];
  }
  std::size_t rank() const { return node_->shape.size(); }
  std::int64_t numel() const { return node_->numel(); }
  bool requires_grad() const { return node_->requires_grad; }

  std::span<const float> data() const { return node_->data; }
  std::span<float> mutable_data() { return node_->data; }
  std::span<const float> grad() const { return node_->grad; }

  float item() const {
    TSDX_SHAPE_ASSERT(numel() == 1,
                      "item() requires a single-element tensor, got ",
                      to_string(node_->shape));
    return node_->data[0];
  }
  float at(std::int64_t flat_index) const {
    TSDX_CHECK(flat_index >= 0 && flat_index < numel(), "at(", flat_index,
               "): out of range for numel ", numel());
    return node_->data[static_cast<std::size_t>(flat_index)];
  }

  NodePtr node() const { return node_; }

  // ---- autograd ------------------------------------------------------------
  /// Backpropagate from this tensor. If it is non-scalar, `seed` must match
  /// its element count; for scalars the seed defaults to 1.
  void backward() const;
  void backward(std::span<const float> seed) const;
  void zero_grad() { node_->grad.assign(node_->data.size(), 0.0f); }

  /// A detached copy of the data: shares no tape with this tensor.
  Tensor detach() const;

 private:
  NodePtr node_;
};

/// Create a leaf/result node. Internal helper shared by ops.cpp and nn code
/// that defines fused ops; not intended for end users.
Tensor make_tensor(Shape shape, std::vector<float> data, bool requires_grad);

/// Create a result node wired to `parents` with backward closure `bw`
/// (ignored when no parent requires grad or NoGradGuard is active).
Tensor make_op_result(Shape shape, std::vector<float> data,
                      std::vector<NodePtr> parents,
                      std::function<void(Node&)> bw);

/// True if any parent participates in the tape right now.
bool tape_active(const std::vector<NodePtr>& parents);

}  // namespace tsdx::tensor
