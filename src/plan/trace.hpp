// trace.hpp — build a plan::Graph by observing one dynamic forward.
//
// trace_model() runs `model.forward(zeros(input_shape))` with a
// tensor::trace::Sink installed on the calling thread and converts the
// recorded op stream into a Graph. The zero input is sound because nothing
// input-dependent is ever folded: an op folds into a constant only when its
// inputs are all frozen (model weights or earlier constants), and
// embedding lookups fold because their indices are fixed per geometry.
//
// Memory: a trace costs the memory of one forward. The tracer copies the
// data of the values it folds and refers to the model's own weight nodes;
// of every other node it keeps only the size, so the forward's
// intermediates die as soon as the forward drops them. Each node created
// under the trace is stamped with a process-unique Node::trace_id, and the
// tracer's node -> value map keys on it, so a freed node's address being
// reused by a later node cannot alias two values.
//
// Coverage contract: make_tensor reports every node created while the sink
// is installed. Any node that no hooked op claimed as its output was
// produced by an op the compiler does not understand (conv, pooling,
// dropout-in-training, ...) — trace_model throws TraceError instead of
// guessing.
#pragma once

#include <stdexcept>
#include <string>

#include "core/model.hpp"
#include "plan/graph.hpp"

namespace tsdx::plan {

/// The forward used an op the tracer has no hook for, violated a
/// structural assumption (e.g. non-suffix broadcast), or does not scale
/// with the batch size (plan.hpp). A server whose model raises it fails at
/// construction.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

/// What one trace held on to: the bytes the tracer retains (folded
/// constants plus the weights the forward read) at the end of the trace,
/// which is also its peak — nothing it holds is ever released early.
struct TraceStats {
  std::size_t retained_bytes = 0;
};

/// Trace one frozen forward of `model` at the given input geometry
/// [B, T, C, H, W] into a Graph (ops in execution order, constants folded,
/// no other passes run yet). The model must be in eval mode. Bumps the
/// plan.traces counter.
Graph trace_model(const core::ScenarioModel& model,
                  const tensor::Shape& input_shape,
                  TraceStats* stats = nullptr);

}  // namespace tsdx::plan
