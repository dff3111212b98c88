#include "plan/plan.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "core/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/memory.hpp"
#include "plan/trace.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/rows.hpp"

namespace tsdx::plan {

namespace tt = tsdx::tensor;
namespace kernels = tsdx::tensor::kernels;

const char* to_string(OpType type) {
  switch (type) {
    case OpType::kAdd: return "add";
    case OpType::kMulScalar: return "mul_scalar";
    case OpType::kGelu: return "gelu";
    case OpType::kMatmul: return "matmul";
    case OpType::kMatmulNt: return "matmul_nt";
    case OpType::kPermute: return "permute";
    case OpType::kSumDim: return "sum_dim";
    case OpType::kSoftmax: return "softmax";
    case OpType::kLogSoftmax: return "log_softmax";
    case OpType::kLayerNorm: return "layer_norm";
    case OpType::kBiasGelu: return "bias_gelu";
    case OpType::kScaledSoftmaxNt: return "scaled_softmax_nt";
    case OpType::kAddLayerNorm: return "add_layer_norm";
  }
  return "?";
}

namespace {

/// Mixed-radix permute ranks are bounded by the tubelet reshape (rank 8);
/// a fixed counter keeps the kernel allocation-free.
constexpr std::size_t kMaxRank = 16;

/// Per-run pointer resolution: value id -> buffer.
struct Binding {
  const Graph& graph;
  const float* input;
  float* arena;

  const float* ptr(ValueId id) const {
    const ValueId r = graph.root(id);
    const Value& v = graph.values[static_cast<std::size_t>(r)];
    switch (v.kind) {
      case ValueKind::kInput:
        return input;
      case ValueKind::kExternal:
        return graph.weights->data() + v.offset / sizeof(float);
      case ValueKind::kConstant:
        return v.constant->data();
      case ValueKind::kArena:
        return arena + v.offset / sizeof(float);
    }
    return nullptr;
  }

  float* wptr(ValueId id) const {
    const ValueId r = graph.root(id);
    const Value& v = graph.values[static_cast<std::size_t>(r)];
    return arena + v.offset / sizeof(float);
  }
};

/// Broadcast add with the modulo hoisted out: out[i] = big[i] + small[i % m]
/// computed block-by-block so the inner loop is a plain vectorizable
/// addition. i % m walks 0..m-1 cyclically, which is exactly what the
/// (block, j) decomposition produces — same elements, same order, same
/// float sums as the dynamic path's per-element-modulo loop.
inline void add_bcast_rows(float* out, const float* big, const float* small,
                           std::int64_t n, std::int64_t m) {
  for (std::int64_t i0 = 0; i0 < n; i0 += m) {
    const std::int64_t len = std::min(m, n - i0);
    const float* xr = big + i0;
    float* yr = out + i0;
    for (std::int64_t j = 0; j < len; ++j) yr[j] = xr[j] + small[j];
  }
}

void run_op(const Op& op, const Binding& b) {
  switch (op.type) {
    case OpType::kAdd: {
      const float* x = b.ptr(op.inputs[0]);
      const float* y = b.ptr(op.inputs[1]);
      float* out = b.wptr(op.out);
      const std::int64_t n = op.rows;
      const std::int64_t m = op.bcast_m;
      switch (op.bcast) {
        case Bcast::kSame:
          for (std::int64_t i = 0; i < n; ++i) out[i] = x[i] + y[i];
          break;
        case Bcast::kBSmall:
          add_bcast_rows(out, x, y, n, m);
          break;
        case Bcast::kASmall:
          add_bcast_rows(out, y, x, n, m);
          break;
      }
      return;
    }
    case OpType::kMulScalar: {
      const float* x = b.ptr(op.inputs[0]);
      float* out = b.wptr(op.out);
      const float s = op.scalar;
      for (std::int64_t i = 0; i < op.rows; ++i) out[i] = x[i] * s;
      return;
    }
    case OpType::kGelu: {
      const float* x = b.ptr(op.inputs[0]);
      float* out = b.wptr(op.out);
      const std::int64_t d = op.cols;
      kernels::for_each_row(op.rows, d, [&](std::int64_t r) {
        kernels::gelu_row(out + r * d, x + r * d, nullptr, d);
      });
      return;
    }
    case OpType::kBiasGelu: {
      const float* x = b.ptr(op.inputs[0]);
      const float* bias = b.ptr(op.inputs[1]);
      float* out = b.wptr(op.out);
      // Rows are one period of the suffix-broadcast bias. The sum is the
      // float an unfused add would have stored, and GELU is elementwise,
      // so any row split gives add-then-gelu's bits.
      const std::int64_t m = op.bcast_m;
      const std::int64_t rows = m > 0 ? op.rows * op.cols / m : 0;
      kernels::for_each_row(rows, m, [&](std::int64_t r) {
        kernels::gelu_row(out + r * m, x + r * m, bias, m);
      });
      return;
    }
    case OpType::kMatmul:
    case OpType::kMatmulNt: {
      const float* x = b.ptr(op.inputs[0]);
      const float* y = b.ptr(op.inputs[1]);
      float* out = b.wptr(op.out);
      const std::int64_t batch = op.batch, m = op.m, k = op.k, n = op.n;
      std::fill_n(out, batch * m * n, 0.0f);  // kernels accumulate
      const bool nt = op.type == OpType::kMatmulNt;
      // One dispatch for the whole batch — attention's per-(clip, head)
      // products are tiny, and per-slice mm() calls would pay the span /
      // metrics / pool / pack-buffer cost `batch` times (the dynamic
      // interpreter does; the compiled path is where the win comes from).
      const std::int64_t bstride =
          op.shared_rhs ? 0 : (nt ? n * k : k * n);
      kernels::mm_batched(kernels::Trans::kN,
                          nt ? kernels::Trans::kT : kernels::Trans::kN, batch,
                          m, k, n, x, y, bstride, out, kernels::Isa::kAvx2);
      return;
    }
    case OpType::kPermute: {
      const float* x = b.ptr(op.inputs[0]);
      float* out = b.wptr(op.out);
      const std::size_t r = op.out_extents.size();
      const std::size_t n = static_cast<std::size_t>(op.rows);
      if (r <= 1) {  // rank-0/1 permutes are copies
        std::memcpy(out, x, n * sizeof(float));
        return;
      }
      // Mixed-radix walk over the outer axes only; the innermost output
      // axis becomes a strided inner loop (or a memcpy when the source is
      // contiguous). Same element mapping as the dynamic path's
      // per-element counter — the counter bookkeeping just runs once per
      // row instead of once per element.
      const std::int64_t ie = op.out_extents[r - 1];
      const std::int64_t is = op.gather[r - 1];
      std::array<std::int64_t, kMaxRank> counter{};
      std::int64_t src = 0;
      for (std::size_t oi = 0; oi < n; oi += static_cast<std::size_t>(ie)) {
        if (is == 1) {
          std::memcpy(out + oi, x + src,
                      static_cast<std::size_t>(ie) * sizeof(float));
        } else {
          for (std::int64_t j = 0; j < ie; ++j) {
            out[oi + j] = x[src + j * is];
          }
        }
        for (std::size_t ax = r - 1; ax-- > 0;) {
          ++counter[ax];
          src += op.gather[ax];
          if (counter[ax] < op.out_extents[ax]) break;
          src -= op.gather[ax] * op.out_extents[ax];
          counter[ax] = 0;
        }
      }
      return;
    }
    case OpType::kSumDim: {
      const float* x = b.ptr(op.inputs[0]);
      float* out = b.wptr(op.out);
      std::fill_n(out, op.outer * op.inner, 0.0f);
      for (std::int64_t o = 0; o < op.outer; ++o) {
        for (std::int64_t j = 0; j < op.red; ++j) {
          const float* src = x + (o * op.red + j) * op.inner;
          float* dst = out + o * op.inner;
          for (std::int64_t i = 0; i < op.inner; ++i) dst[i] += src[i];
        }
      }
      return;
    }
    case OpType::kSoftmax: {
      const float* x = b.ptr(op.inputs[0]);
      float* out = b.wptr(op.out);
      const std::int64_t d = op.cols;
      kernels::for_each_row(op.rows, d, [&](std::int64_t r) {
        kernels::softmax_row(out + r * d, x + r * d, d);
      });
      return;
    }
    case OpType::kLogSoftmax: {
      const float* x = b.ptr(op.inputs[0]);
      float* out = b.wptr(op.out);
      const std::int64_t d = op.cols;
      kernels::for_each_row(op.rows, d, [&](std::int64_t r) {
        kernels::log_softmax_row(out + r * d, x + r * d, d);
      });
      return;
    }
    case OpType::kLayerNorm: {
      const float* x = b.ptr(op.inputs[0]);
      const float* gamma = b.ptr(op.inputs[1]);
      const float* beta = b.ptr(op.inputs[2]);
      float* out = b.wptr(op.out);
      const std::int64_t d = op.cols;
      kernels::for_each_row(op.rows, d, [&](std::int64_t r) {
        kernels::layer_norm_row(out + r * d, x + r * d, gamma, beta, d,
                                op.eps);
      });
      return;
    }
    case OpType::kAddLayerNorm: {
      const float* x = b.ptr(op.inputs[0]);
      const float* y = b.ptr(op.inputs[1]);
      const float* gamma = b.ptr(op.inputs[2]);
      const float* beta = b.ptr(op.inputs[3]);
      float* sum_out = b.wptr(op.out2);
      float* out = b.wptr(op.out);
      const std::int64_t d = op.cols;
      kernels::for_each_row(op.rows, d, [&](std::int64_t r) {
        const float* xr = x + r * d;
        const float* yr = y + r * d;
        float* sr = sum_out + r * d;
        // The residual sum is materialized (later ops read it), so the
        // normalization sees the identical float values the standalone add
        // would have produced.
        for (std::int64_t i = 0; i < d; ++i) sr[i] = xr[i] + yr[i];
        kernels::layer_norm_row(out + r * d, sr, gamma, beta, d, op.eps);
      });
      return;
    }
    case OpType::kScaledSoftmaxNt: {
      const float* q = b.ptr(op.inputs[0]);
      const float* k = b.ptr(op.inputs[1]);
      float* out = b.wptr(op.out);
      const std::int64_t batch = op.batch, m = op.m, kk = op.k, n = op.n;
      std::fill_n(out, batch * m * n, 0.0f);
      kernels::mm_batched(kernels::Trans::kN, kernels::Trans::kT, batch, m, kk,
                          n, q, k, op.shared_rhs ? 0 : n * kk, out,
                          kernels::Isa::kAvx2);
      const float scale = op.scalar;
      kernels::for_each_row(batch * m, n, [&](std::int64_t r) {
        float* row = out + r * n;
        // Scale first, then softmax over the scaled row — the same float
        // stream as mul_scalar + softmax_lastdim, one buffer instead of
        // three.
        for (std::int64_t i = 0; i < n; ++i) row[i] *= scale;
        kernels::softmax_row(row, row, n);
      });
      return;
    }
  }
}

}  // namespace

namespace {

// ---- batch polymorphism ----------------------------------------------------

/// The attribute on the line through (1, one) and (2, two), at `batch`.
/// With two == one or two == 2 * one (check_scaling) this is one or
/// batch * one — scaling only.
std::int64_t at_batch(std::int64_t one, std::int64_t two,
                      std::int64_t batch) {
  return one + (batch - 1) * (two - one);
}

bool scales(std::int64_t one, std::int64_t two) {
  return two == one || two == 2 * one;
}

/// Integer op attributes that may scale with B.
struct ScaledAttr {
  std::int64_t Op::*field;
  const char* name;
};
constexpr ScaledAttr kScaledAttrs[] = {
    {&Op::bcast_m, "bcast_m"}, {&Op::rows, "rows"},   {&Op::cols, "cols"},
    {&Op::batch, "batch"},     {&Op::m, "m"},         {&Op::k, "k"},
    {&Op::n, "n"},             {&Op::outer, "outer"}, {&Op::red, "red"},
    {&Op::inner, "inner"},
};

[[noreturn]] void not_polymorphic(std::size_t op, const Op& o,
                                  const std::string& what) {
  throw TraceError("plan: op #" + std::to_string(op) + " " +
                   to_string(o.type) + ": " + what +
                   " does not scale with the batch size between the B=1 "
                   "and B=2 traces");
}

/// Require `pair` (traced at B=2) to be `unit` (B=1) with every differing
/// attribute and value size doubled.
void check_scaling(const Graph& unit, const Graph& pair) {
  if (unit.ops.size() != pair.ops.size() ||
      unit.values.size() != pair.values.size() ||
      unit.fused_ops != pair.fused_ops || unit.input != pair.input ||
      unit.logits != pair.logits) {
    throw TraceError(
        "plan: the B=1 and B=2 traces differ in structure (the forward "
        "branches on the batch size)");
  }
  for (std::size_t i = 0; i < unit.ops.size(); ++i) {
    const Op& a = unit.ops[i];
    const Op& b = pair.ops[i];
    if (a.type != b.type || a.inputs != b.inputs || a.out != b.out ||
        a.out2 != b.out2 || a.bcast != b.bcast ||
        a.shared_rhs != b.shared_rhs) {
      not_polymorphic(i, a, "its operands or layout");
    }
    if (a.scalar != b.scalar) not_polymorphic(i, a, "attribute scalar");
    if (a.eps != b.eps) not_polymorphic(i, a, "attribute eps");
    for (const ScaledAttr& attr : kScaledAttrs) {
      if (!scales(a.*attr.field, b.*attr.field)) {
        not_polymorphic(i, a, std::string("attribute ") + attr.name);
      }
    }
    if (a.out_extents.size() != b.out_extents.size() ||
        a.gather.size() != b.gather.size()) {
      not_polymorphic(i, a, "permute rank");
    }
    for (std::size_t d = 0; d < a.out_extents.size(); ++d) {
      if (!scales(a.out_extents[d], b.out_extents[d]) ||
          !scales(a.gather[d], b.gather[d])) {
        not_polymorphic(i, a, "permute axis " + std::to_string(d));
      }
    }
  }
  for (std::size_t i = 0; i < unit.values.size(); ++i) {
    const Value& a = unit.values[i];
    const Value& b = pair.values[i];
    const bool same_source =
        a.kind == b.kind && a.alias_of == b.alias_of &&
        (a.kind != ValueKind::kConstant || *a.constant == *b.constant) &&
        (a.kind != ValueKind::kExternal || a.traced == b.traced);
    if (!same_source || !scales(a.numel, b.numel)) {
      throw TraceError("plan: value v" + std::to_string(i) +
                       " (numel " + std::to_string(a.numel) + " at B=1, " +
                       std::to_string(b.numel) +
                       " at B=2) does not scale with the batch size");
    }
  }
}

/// Copy every model parameter into one snapshot and point the graph's
/// externals at it. Externals that are not parameters (the sinusoidal
/// positional table) become constants. Afterwards the graph refers to no
/// model node.
void bind_weights(Graph& graph, const core::ScenarioModel& model) {
  auto weights = std::make_shared<std::vector<float>>();
  std::unordered_map<const tt::Node*, std::size_t> offsets;
  for (const tt::Tensor& p : model.parameters()) {
    const std::vector<float>& data = p.node()->data;
    offsets.emplace(p.node().get(), weights->size() * sizeof(float));
    weights->insert(weights->end(), data.begin(), data.end());
  }
  for (Value& v : graph.values) {
    if (v.kind != ValueKind::kExternal) continue;
    const auto it = offsets.find(v.traced.get());
    if (it != offsets.end()) {
      v.offset = it->second;
    } else {
      v.kind = ValueKind::kConstant;
      v.constant = std::make_shared<const std::vector<float>>(v.traced->data);
    }
    v.traced.reset();
  }
  graph.weights = std::move(weights);
}

Graph trace_and_fuse(const core::ScenarioModel& model, std::int64_t batch,
                     const tensor::Shape& clip_shape) {
  tensor::Shape shape{batch};
  shape.insert(shape.end(), clip_shape.begin(), clip_shape.end());
  Graph graph = trace_model(model, shape);
  fuse_attention_softmax(graph);
  fuse_bias_gelu(graph);
  fuse_residual_norm(graph);
  return graph;
}

}  // namespace

std::shared_ptr<const PolyPlan> PolyPlan::compile(
    const core::ScenarioModel& model, const tensor::Shape& clip_shape) {
  const auto start = std::chrono::steady_clock::now();
  TSDX_TRACE_SPAN("plan.compile");

  std::shared_ptr<PolyPlan> poly(new PolyPlan());
  poly->clip_shape_ = clip_shape;
  poly->unit_ = trace_and_fuse(model, 1, clip_shape);
  {
    const Graph pair = trace_and_fuse(model, 2, clip_shape);
    check_scaling(poly->unit_, pair);
    poly->pair_ops_ = pair.ops;
    poly->pair_numel_.reserve(pair.values.size());
    for (const Value& v : pair.values) poly->pair_numel_.push_back(v.numel);
  }
  plan_memory(poly->unit_);
  bind_weights(poly->unit_, model);

  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  auto& reg = obs::Registry::global();
  reg.histogram("plan.compile_ms").observe(ms);
  reg.gauge("plan.arena_bytes")
      .update_max(static_cast<std::int64_t>(poly->unit_.arena_bytes));
  reg.counter("plan.fused_ops")
      .inc(static_cast<std::uint64_t>(poly->unit_.fused_ops));
  reg.counter("plan.compiled").inc();
  return poly;
}

std::shared_ptr<const Plan> PolyPlan::at(std::int64_t batch) const {
  TSDX_CHECK(batch >= 1, "PolyPlan::at: batch must be >= 1, got ", batch);
  Graph graph = unit_;
  for (std::size_t i = 0; i < graph.ops.size(); ++i) {
    Op& op = graph.ops[i];
    const Op& two = pair_ops_[i];
    for (const ScaledAttr& attr : kScaledAttrs) {
      op.*attr.field = at_batch(op.*attr.field, two.*attr.field, batch);
    }
    for (std::size_t d = 0; d < op.out_extents.size(); ++d) {
      op.out_extents[d] =
          at_batch(op.out_extents[d], two.out_extents[d], batch);
      op.gather[d] = at_batch(op.gather[d], two.gather[d], batch);
    }
  }
  for (std::size_t i = 0; i < graph.values.size(); ++i) {
    Value& v = graph.values[i];
    v.numel = at_batch(v.numel, pair_numel_[i], batch);
    // The per-clip layout, `batch` times over: disjoint per-clip intervals
    // stay disjoint, and each holds its value at any B (memory.hpp).
    if (v.kind == ValueKind::kArena) {
      v.offset *= static_cast<std::size_t>(batch);
    }
  }
  graph.arena_bytes = arena_bytes(batch);
  graph.input_shape.front() = batch;
  return std::shared_ptr<const Plan>(new Plan(std::move(graph)));
}

std::shared_ptr<const Plan> Plan::compile(const core::ScenarioModel& model,
                                          const tensor::Shape& input_shape) {
  TSDX_CHECK(!input_shape.empty(), "Plan::compile: empty input shape");
  const tensor::Shape clip(input_shape.begin() + 1, input_shape.end());
  return PolyPlan::compile(model, clip)->at(input_shape.front());
}

void Plan::run(const float* input, float* arena) const {
  const Binding binding{graph_, input, arena};
  for (const Op& op : graph_.ops) run_op(op, binding);
}

const float* Plan::logits_ptr(std::size_t slot, const float* arena) const {
  const ValueId r = graph_.root(graph_.logits[slot]);
  const Value& v = graph_.values[static_cast<std::size_t>(r)];
  TSDX_CHECK(v.kind == ValueKind::kArena,
             "plan: slot logits folded to a constant — nothing to serve");
  return arena + v.offset / sizeof(float);
}

std::string Plan::debug_dump() const {
  std::ostringstream out;
  out << "plan: input " << tt::to_string(graph_.input_shape) << ", "
      << graph_.ops.size() << " ops, " << graph_.values.size() << " values, "
      << graph_.arena_bytes << " arena bytes, " << graph_.fused_ops
      << " fused\n";
  out << "values:\n";
  for (std::size_t i = 0; i < graph_.values.size(); ++i) {
    const Value& v = graph_.values[i];
    out << "  v" << i << " numel=" << v.numel;
    switch (v.kind) {
      case ValueKind::kInput: out << " input"; break;
      case ValueKind::kExternal: out << " weights+" << v.offset; break;
      case ValueKind::kConstant: out << " constant"; break;
      case ValueKind::kArena:
        if (v.alias_of != kNoValue) {
          out << " alias->v" << graph_.root(static_cast<ValueId>(i));
        } else {
          out << " arena+" << v.offset;
        }
        break;
    }
    out << "\n";
  }
  out << "ops:\n";
  for (std::size_t i = 0; i < graph_.ops.size(); ++i) {
    const Op& op = graph_.ops[i];
    out << "  #" << i << " " << to_string(op.type) << "(";
    for (std::size_t j = 0; j < op.inputs.size(); ++j) {
      out << (j ? ", " : "") << "v" << op.inputs[j];
    }
    out << ") -> v" << op.out;
    if (op.out2 != kNoValue) out << ", v" << op.out2;
    if (op.type == OpType::kMatmul || op.type == OpType::kMatmulNt ||
        op.type == OpType::kScaledSoftmaxNt) {
      out << " [batch=" << op.batch << " m=" << op.m << " k=" << op.k
          << " n=" << op.n << (op.shared_rhs ? " shared_rhs" : "") << "]";
    }
    out << "\n";
  }
  out << "logits:";
  for (ValueId id : graph_.logits) out << " v" << id;
  out << "\n";
  return out.str();
}

}  // namespace tsdx::plan
