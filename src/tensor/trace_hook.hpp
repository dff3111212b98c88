// trace_hook.hpp — tsdx::tensor::trace: the seam the inference plan compiler
// (src/plan) uses to observe one dynamic forward pass as a symbolic op graph.
//
// While a Sink is installed on the current thread, every tensor op that
// understands tracing reports an OpRecord (op kind, input/output nodes,
// attributes) right after computing its result, and make_tensor reports
// every node it creates. The plan tracer cross-references the two streams:
// a node that was created during tracing but never claimed by an OpRecord
// was produced by an op with no trace hook, and the tracer refuses
// (plan::TraceError) as soon as such a node is consumed by a hooked op or
// turns out to be a model output — either way, the forward ran an op the
// compiler does not understand, and the model does not compile. (Unclaimed
// nodes nobody reads are dead values — e.g. default-constructed Tensor
// placeholders — and are tolerated.)
//
// Cost when no sink is installed (always, outside plan compilation): one
// thread-local pointer load per op — the same posture as obs::trace span
// sites. Tracing is a per-thread affair by design: plan compilation runs the
// traced forward on the compiling thread while other threads keep serving.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace tsdx::tensor::trace {

/// Every tensor op the tracer understands. Ops not listed here (conv, pool,
/// losses, dropout-in-training, ...) have no hook: reaching one during a
/// trace surfaces as an unclaimed node, never as a miscompiled plan.
enum class OpKind : std::uint8_t {
  kAdd,
  kMulScalar,
  kGelu,
  kMatmul,
  kMatmulNt,
  kReshape,
  kPermute,
  kSumDim,
  kSoftmax,
  kLogSoftmax,
  kLayerNorm,
  kEmbeddingLookup,
};

/// One traced op: kind + data-flow (by node identity) + attributes. The
/// record shares its operands' nodes only while Sink::on_op runs; a sink
/// that needs a value later must copy it (the plan tracer copies what it
/// folds and nothing else).
struct OpRecord {
  OpKind kind;
  const char* name = nullptr;  ///< static op name, for diagnostics
  std::vector<NodePtr> inputs;
  NodePtr output;
  float scalar = 0.0f;             ///< kMulScalar factor / kLayerNorm eps
  std::size_t dim = 0;             ///< kSumDim reduction axis
  std::vector<std::size_t> perm{};  ///< kPermute axis permutation
};

/// Receiver for the two trace streams. Implemented by plan::Tracer.
class Sink {
 public:
  virtual ~Sink() = default;
  /// An op completed under the trace.
  virtual void on_op(const OpRecord& record) = 0;
  /// A node was created under the trace (leaf or op result). Called before
  /// the matching on_op, if any; the sink may stamp Node::trace_id.
  virtual void on_node(const NodePtr& node) = 0;
};

/// This thread's installed sink (null = not tracing).
Sink* sink();

/// Install `s` (null to stop tracing); returns the previous sink so nested
/// scopes can restore it.
Sink* set_sink(Sink* s);

inline bool active() { return sink() != nullptr; }

/// Forward `record` to the installed sink. Call only when active().
void record(OpRecord record);

/// Report a created node to the installed sink (no-op when inactive; called
/// from make_tensor, so it must stay cheap).
void note_node(const NodePtr& node);

}  // namespace tsdx::tensor::trace
