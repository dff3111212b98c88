#include "plan/trace.hpp"

#include <atomic>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "tensor/ops.hpp"
#include "tensor/shape.hpp"
#include "tensor/trace_hook.hpp"

namespace tsdx::plan {

namespace tt = tsdx::tensor;

namespace {

/// Process-wide source of Node::trace_id. Ids start at 1 (0 means "not
/// created under a trace") and never repeat, so a tracer recognizes its own
/// nodes as those stamped at or after the id it started from.
std::atomic<std::uint64_t> g_next_trace_id{1};

/// Collects the two trace streams into a Graph. Structural errors are
/// deferred until finish(): throwing out of on_op would unwind through the
/// traced forward with the sink still installed.
class Tracer final : public tt::trace::Sink {
 public:
  /// `input` was created before the sink went live; it is the one
  /// non-frozen value the forward reads from outside the trace.
  explicit Tracer(const tt::Node& input)
      : first_id_(g_next_trace_id.load(std::memory_order_relaxed)) {
    Value v;
    v.kind = ValueKind::kInput;
    v.numel = input.numel();
    graph_.input = add_value(std::move(v));
    outside_.emplace(&input, graph_.input);
  }

  void on_node(const tt::NodePtr& node) override {
    node->trace_id = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
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
        claim(*rec.output, add_value(std::move(v)));
        return;
      }
      case tt::trace::OpKind::kEmbeddingLookup:
        // The index list is a compile-time attribute the hook does not
        // carry, so the output is only reproducible by folding — which is
        // exactly right: the weight is frozen and the indices are fixed per
        // geometry.
        if (created_here(*rec.inputs[0])) {
          error_ = "embedding_lookup over a traced intermediate";
          return;
        }
        claim(*rec.output, add_constant(*rec.output));
        return;
      default:
        break;
    }

    Op op;
    op.inputs.reserve(rec.inputs.size());
    bool all_frozen = true;
    for (const tt::NodePtr& in : rec.inputs) {
      const ValueId id = value_of(in);
      if (!error_.empty()) return;
      op.inputs.push_back(id);
      const ValueKind kind =
          graph_.values[static_cast<std::size_t>(graph_.root(id))].kind;
      all_frozen = all_frozen && (kind == ValueKind::kExternal ||
                                  kind == ValueKind::kConstant);
    }
    if (all_frozen) {
      // Same value every forward: the traced result *is* the fold. This is
      // the one place an op's data is kept (the positional-embedding
      // arithmetic, for one).
      claim(*rec.output, add_constant(*rec.output));
      return;
    }
    if (!resolve_attrs(rec, op)) return;

    Value v;
    v.kind = ValueKind::kArena;
    v.numel = rec.output->numel();
    op.out = add_value(std::move(v));
    claim(*rec.output, op.out);
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
  Graph finish(const tt::Shape& input_shape,
               const std::array<tt::Tensor, sdl::kNumSlots>& logits,
               TraceStats* stats) {
    if (!error_.empty()) throw TraceError("plan trace: " + error_);
    graph_.input_shape = input_shape;
    for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
      graph_.logits[s] = find(*logits[s].node());
      if (graph_.logits[s] == kNoValue) {
        throw TraceError("plan trace: slot logits missing from the trace");
      }
    }
    if (stats != nullptr) {
      // Measured by walking what the graph holds, not by a running tally.
      stats->retained_bytes = 0;
      for (const Value& v : graph_.values) {
        if (v.traced) {
          stats->retained_bytes += v.traced->data.size() * sizeof(float);
        }
        if (v.constant) {
          stats->retained_bytes += v.constant->size() * sizeof(float);
        }
      }
    }
    return std::move(graph_);
  }

 private:
  bool created_here(const tt::Node& node) const {
    return node.trace_id >= first_id_;
  }

  ValueId add_value(Value v) {
    graph_.values.push_back(std::move(v));
    return static_cast<ValueId>(graph_.values.size() - 1);
  }

  /// A folded value: a copy of the traced node's data, which the forward is
  /// then free to drop.
  ValueId add_constant(const tt::Node& node) {
    Value v;
    v.kind = ValueKind::kConstant;
    v.numel = node.numel();
    v.constant = std::make_shared<const std::vector<float>>(node.data);
    return add_value(std::move(v));
  }

  void claim(const tt::Node& node, ValueId id) {
    if (created_here(node)) {
      by_id_.emplace(node.trace_id, id);
    } else {
      outside_.emplace(&node, id);
    }
  }

  ValueId find(const tt::Node& node) const {
    if (created_here(node)) {
      const auto it = by_id_.find(node.trace_id);
      return it == by_id_.end() ? kNoValue : it->second;
    }
    const auto it = outside_.find(&node);
    return it == outside_.end() ? kNoValue : it->second;
  }

  /// Id of an op operand. Unknown nodes created outside the trace are
  /// frozen externals (weights, positional tables); they outlive the trace,
  /// so their addresses are stable keys. Unknown nodes created *inside* the
  /// trace escaped through an unhooked op: defer the error.
  ValueId value_of(const tt::NodePtr& node) {
    const ValueId known = find(*node);
    if (known != kNoValue) return known;
    if (created_here(*node)) {
      error_ =
          "an unhooked op's result was consumed (shape " +
          tt::to_string(node->shape) + ")";
      return kNoValue;
    }
    Value v;
    v.kind = ValueKind::kExternal;
    v.numel = node->numel();
    // The model owns the node; holding it costs no bytes beyond the
    // weights themselves.
    v.traced = node;
    const ValueId id = add_value(std::move(v));
    outside_.emplace(node.get(), id);
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

  const std::uint64_t first_id_;
  Graph graph_;
  /// Nodes created under this trace, by Node::trace_id.
  std::unordered_map<std::uint64_t, ValueId> by_id_;
  /// Nodes from outside the trace (the input, the model's weights), by
  /// address.
  std::unordered_map<const tt::Node*, ValueId> outside_;
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
                  const tensor::Shape& input_shape, TraceStats* stats) {
  if (model.training()) {
    throw TraceError("plan trace: model is in training mode (freeze first)");
  }
  obs::Registry::global().counter("plan.traces").inc();
  // The probe input is created before the sink goes live; the tracer
  // registers it as the graph input up front, so no op over it folds.
  const tt::Tensor input = tt::Tensor::zeros(input_shape);
  Tracer tracer(*input.node());
  std::array<tt::Tensor, sdl::kNumSlots> logits;
  {
    tt::NoGradGuard no_grad;
    SinkScope scope(&tracer);
    logits = model.forward(input);
  }
  return tracer.finish(input_shape, logits, stats);
}

}  // namespace tsdx::plan
