// memory.hpp — liveness-based arena assignment for plan intermediates.
//
// Every kArena value gets a byte offset in one flat per-worker arena
// (executor.hpp owns the actual block). Placement is first-fit over live
// intervals: a value is born at the op that writes it and dies after its
// last reader (graph outputs live to the end), and two values may share
// bytes only if their intervals are disjoint — except for sanctioned
// in-place reuse, where an elementwise/row-local op writes straight over an
// input that dies at that op (the kernels in plan.cpp read each element
// before writing it, so aliasing is safe and bit-exact).
//
// The layout is planned once per clip (on the B=1 trace) and reused at
// every batch size B by multiplying each offset and the high-water mark by
// B (PolyPlan::at): intervals disjoint at B=1 stay disjoint, and a value
// whose size scales with B (or stays constant) still fits in its B-fold
// interval. Offsets are multiples of kArenaAlignment (graph.hpp) at every
// B, so reused buffers keep cache-line starts regardless of which value
// occupied them last.
#pragma once

#include "plan/graph.hpp"

namespace tsdx::plan {

/// Byte size a value occupies in the arena (kArenaAlignment multiple).
std::size_t aligned_bytes(std::int64_t numel);

/// Assign graph.values[*].offset for every live kArena root and set
/// graph.arena_bytes to the high-water mark. Also performs the in-place
/// aliasing described above (recording it via Value::alias_of).
void plan_memory(Graph& graph);

}  // namespace tsdx::plan
