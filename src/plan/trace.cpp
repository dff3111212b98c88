#include "plan/trace.hpp"

#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "tensor/ops.hpp"
#include "tensor/shape.hpp"
#include "tensor/trace_hook.hpp"

namespace tsdx::plan {

namespace tt = tsdx::tensor;

namespace {

/// Collects the two trace streams into a Graph. Structural errors are
/// deferred until finish(): throwing out of on_op would unwind through the
/// traced forward with the sink still installed.
class Tracer final : public tt::trace::Sink {
 public:
  void on_node(const tt::NodePtr& node) override {
    created_.insert(node.get());
    // Hold the node so an id registered later can still read its data even
    // if the forward dropped its last Tensor handle.
    keepalive_.push_back(node);
  }

  void on_op(const tt::trace::OpRecord& rec) override {
    if (!error_.empty()) return;  // first structural error wins
    switch (rec.kind) {
      case tt::trace::OpKind::kReshape: {
        // Row-major contiguous: a reshape is the same bytes under a new
        // shape. Alias instead of emitting an op.
        const ValueId src = value_of(rec.inputs[0]);
        if (!error_.empty()) return;
        Value v;
        v.kind = ValueKind::kArena;
        v.numel = rec.output->numel();
        v.alias_of = src;
        v.traced = rec.output;
        claim(rec.output, add_value(std::move(v)));
        return;
      }
      case tt::trace::OpKind::kEmbeddingLookup: {
        // The index list is a compile-time attribute the hook does not
        // carry, so the output is only reproducible by folding — which is
        // exactly right: the weight is frozen and the indices are fixed per
        // geometry. Snapshot the traced result as a constant.
        if (created_.contains(rec.inputs[0].get())) {
          error_ = "embedding_lookup over a traced intermediate";
          return;
        }
        Value v;
        v.kind = ValueKind::kConstant;
        v.numel = rec.output->numel();
        v.constant = rec.output->data;
        claim(rec.output, add_value(std::move(v)));
        return;
      }
      default:
        break;
    }

    Op op;
    op.inputs.reserve(rec.inputs.size());
    for (const tt::NodePtr& in : rec.inputs) {
      op.inputs.push_back(value_of(in));
      if (!error_.empty()) return;
    }
    if (!resolve_attrs(rec, op)) return;

    Value v;
    v.kind = ValueKind::kArena;
    v.numel = rec.output->numel();
    v.traced = rec.output;
    op.out = add_value(std::move(v));
    claim(rec.output, op.out);
    graph_.ops.push_back(std::move(op));
  }

  /// Validate coverage and hand out the graph.
  ///
  /// Coverage is enforced at the *uses*, not at creation: a node created
  /// during the trace but claimed by no hooked op errors the moment
  /// anything consumes it (value_of) or the moment it turns out to be a
  /// graph output (below). A created node nobody ever reads is provably
  /// dead — data reaches the logits only through op inputs — and is
  /// tolerated: default-constructed Tensor placeholders (e.g.
  /// SlotHeads::forward's std::array<Tensor, kNumSlots>) are exactly such
  /// nodes.
  Graph finish(const tt::Tensor& input,
               const std::array<tt::Tensor, sdl::kNumSlots>& logits) {
    if (!error_.empty()) throw TraceError("plan trace: " + error_);
    const auto input_it = ids_.find(input.node().get());
    if (input_it == ids_.end()) {
      throw TraceError("plan trace: the input tensor never reached an op");
    }
    graph_.input = input_it->second;
    graph_.values[static_cast<std::size_t>(graph_.input)].kind =
        ValueKind::kInput;
    graph_.input_shape = input.shape();
    for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
      const auto it = ids_.find(logits[s].node().get());
      if (it == ids_.end()) {
        throw TraceError("plan trace: slot logits missing from the trace");
      }
      graph_.logits[s] = it->second;
    }
    return std::move(graph_);
  }

 private:
  ValueId add_value(Value v) {
    graph_.values.push_back(std::move(v));
    return static_cast<ValueId>(graph_.values.size() - 1);
  }

  void claim(const tt::NodePtr& node, ValueId id) {
    ids_.emplace(node.get(), id);
  }

  /// Id of an op operand. Unknown nodes created outside the trace are
  /// frozen externals (weights, positional tables, the input — the input is
  /// re-classified in finish()). Unknown nodes created *inside* the trace
  /// escaped through an unhooked op: defer the error.
  ValueId value_of(const tt::NodePtr& node) {
    const auto it = ids_.find(node.get());
    if (it != ids_.end()) return it->second;
    if (created_.contains(node.get())) {
      error_ =
          "an unhooked op's result was consumed (shape " +
          tt::to_string(node->shape) + ")";
      return kNoValue;
    }
    Value v;
    v.kind = ValueKind::kExternal;
    v.numel = node->numel();
    v.traced = node;
    const ValueId id = add_value(std::move(v));
    ids_.emplace(node.get(), id);
    return id;
  }

  /// Fill op attributes from the traced shapes; false + error_ on
  /// structural surprises.
  bool resolve_attrs(const tt::trace::OpRecord& rec, Op& op) {
    const tt::Shape& out_shape = rec.output->shape;
    switch (rec.kind) {
      case tt::trace::OpKind::kAdd: {
        op.type = OpType::kAdd;
        const tt::Shape& as = rec.inputs[0]->shape;
        const tt::Shape& bs = rec.inputs[1]->shape;
        if (tt::same_shape(as, bs)) {
          op.bcast = Bcast::kSame;
          op.bcast_m = rec.output->numel();
        } else if (tt::is_suffix_of(bs, as)) {
          op.bcast = Bcast::kBSmall;
          op.bcast_m = rec.inputs[1]->numel();
        } else if (tt::is_suffix_of(as, bs)) {
          op.bcast = Bcast::kASmall;
          op.bcast_m = rec.inputs[0]->numel();
        } else {
          error_ = "add with non-suffix broadcast";
          return false;
        }
        op.rows = rec.output->numel();
        return true;
      }
      case tt::trace::OpKind::kMulScalar:
        op.type = OpType::kMulScalar;
        op.scalar = rec.scalar;
        op.rows = rec.output->numel();
        return true;
      case tt::trace::OpKind::kGelu:
        // Elementwise: the last-dim rows only set the for_each_row grain.
        op.type = OpType::kGelu;
        op.cols = out_shape.empty() ? 1 : out_shape.back();
        op.rows = op.cols > 0 ? rec.output->numel() / op.cols : 0;
        return true;
      case tt::trace::OpKind::kMatmul:
      case tt::trace::OpKind::kMatmulNt: {
        const bool nt = rec.kind == tt::trace::OpKind::kMatmulNt;
        op.type = nt ? OpType::kMatmulNt : OpType::kMatmul;
        const tt::Shape& as = rec.inputs[0]->shape;
        const tt::Shape& bs = rec.inputs[1]->shape;
        op.m = as[as.size() - 2];
        op.k = as[as.size() - 1];
        op.n = nt ? bs[bs.size() - 2] : bs[bs.size() - 1];
        op.shared_rhs = bs.size() == 2;
        op.batch = 1;
        for (std::size_t i = 0; i + 2 < as.size(); ++i) op.batch *= as[i];
        return true;
      }
      case tt::trace::OpKind::kPermute: {
        op.type = OpType::kPermute;
        if (rec.perm.size() > 16) {  // plan.cpp's fixed mixed-radix counter
          error_ = "permute rank above the plan kernel limit";
          return false;
        }
        const tt::Shape& as = rec.inputs[0]->shape;
        const tt::Shape strides = tt::row_major_strides(as);
        op.out_extents.assign(out_shape.begin(), out_shape.end());
        op.gather.resize(rec.perm.size());
        for (std::size_t i = 0; i < rec.perm.size(); ++i) {
          op.gather[i] = strides[rec.perm[i]];
        }
        op.rows = rec.output->numel();
        return true;
      }
      case tt::trace::OpKind::kSumDim: {
        op.type = OpType::kSumDim;
        const tt::Shape& as = rec.inputs[0]->shape;
        op.outer = 1;
        op.inner = 1;
        for (std::size_t i = 0; i < rec.dim; ++i) op.outer *= as[i];
        op.red = as[rec.dim];
        for (std::size_t i = rec.dim + 1; i < as.size(); ++i) {
          op.inner *= as[i];
        }
        return true;
      }
      case tt::trace::OpKind::kSoftmax:
      case tt::trace::OpKind::kLogSoftmax:
        op.type = rec.kind == tt::trace::OpKind::kSoftmax
                      ? OpType::kSoftmax
                      : OpType::kLogSoftmax;
        op.cols = out_shape.back();
        op.rows = rec.output->numel() / op.cols;
        return true;
      case tt::trace::OpKind::kLayerNorm:
        op.type = OpType::kLayerNorm;
        op.eps = rec.scalar;
        op.cols = out_shape.back();
        op.rows = rec.output->numel() / op.cols;
        return true;
      case tt::trace::OpKind::kReshape:
      case tt::trace::OpKind::kEmbeddingLookup:
        break;  // handled before resolve_attrs
    }
    error_ = "unexpected op kind in trace";
    return false;
  }

  Graph graph_;
  std::unordered_map<const tt::Node*, ValueId> ids_;
  std::unordered_set<const tt::Node*> created_;
  std::vector<tt::NodePtr> keepalive_;
  std::string error_;
};

/// RAII sink installation (restores the previous sink on unwind).
class SinkScope {
 public:
  explicit SinkScope(tt::trace::Sink* sink)
      : previous_(tt::trace::set_sink(sink)) {}
  ~SinkScope() { tt::trace::set_sink(previous_); }
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;

 private:
  tt::trace::Sink* previous_;
};

}  // namespace

Graph trace_model(const core::ScenarioModel& model,
                  const tensor::Shape& input_shape) {
  if (model.training()) {
    throw TraceError("plan trace: model is in training mode (freeze first)");
  }
  // The probe input is created before the sink goes live so it reaches the
  // tracer as an external (re-classified to kInput in finish()).
  const tt::Tensor input = tt::Tensor::zeros(input_shape);
  Tracer tracer;
  std::array<tt::Tensor, sdl::kNumSlots> logits;
  {
    tt::NoGradGuard no_grad;
    SinkScope scope(&tracer);
    logits = model.forward(input);
  }
  return tracer.finish(input, logits);
}

}  // namespace tsdx::plan
