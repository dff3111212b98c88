// executor.hpp — running compiled plans in the serving path.
//
// Three pieces:
//   * Arena       — one float block per worker (std::vector alignment; see
//                   the member comment). ensure() growths are counted so
//                   tests can assert the hot path stops allocating after
//                   warm-up.
//   * PlanCache   — geometry -> compiled plan, shared across workers behind
//                   a tsdx::Mutex at lockorder::Rank::kPlan (rank 43, below
//                   the tsdx::par ranks: compilation traces a forward that
//                   fans out through the pool while the cache lock is
//                   held). Trace failures are cached as null so an
//                   uncompilable model costs one attempt, not one per
//                   batch.
//   * PlanExecutor— per-worker facade with the extractor's contract:
//                   extract_batch() runs the plan and decodes its logits
//                   with the extractor's own decoder (core::decode_results,
//                   argmax or constrained). It falls back to the dynamic
//                   path only for an unfrozen model or a trace failure,
//                   bumping plan.fallbacks.
//
// The compiled path's logits are bit-identical to the dynamic path's (see
// plan.hpp) and both decode through the same function; the server may
// therefore flip ServerConfig::use_compiled_plan without any output
// contract change.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "core/annotations.hpp"
#include "core/extractor.hpp"
#include "plan/plan.hpp"

namespace tsdx::plan {

/// Flat scratch block for one worker's plan executions. Never shrinks;
/// grow() is the only allocation the compiled hot path can trigger, and the
/// growth counter exposes exactly when it does.
class Arena {
 public:
  Arena() = default;

  /// Ensure capacity >= bytes; reallocates (and counts a growth) only when
  /// the current block is too small.
  float* ensure(std::size_t bytes);

  float* data() { return block_.data(); }
  std::size_t capacity_bytes() const { return block_.size() * sizeof(float); }
  /// How many times ensure() had to (re)allocate. A steady-state worker
  /// sits at 1 per geometry high-water mark — plan_test asserts this stays
  /// flat across repeated batches.
  std::uint64_t growths() const { return growths_; }

 private:
  std::vector<float> block_;  // vector<float> keeps 64-byte alignment moot:
                              // operator new aligns to max_align_t and the
                              // kernels only need 4-byte float alignment;
                              // the 64-byte rounding in memory.hpp is about
                              // cache-line separation of reused buffers.
  std::uint64_t growths_ = 0;
};

/// Shared, thread-safe cache of compiled plans keyed by input geometry.
/// One cache per server; workers share it so a geometry compiles once.
class PlanCache {
 public:
  explicit PlanCache(CompileOptions options = {});

  /// The plan for `input_shape`, compiling on miss (the compile runs under
  /// the cache lock — concurrent workers wait rather than duplicating the
  /// trace). Returns nullptr when compilation failed; the failure is
  /// remembered.
  std::shared_ptr<const Plan> get_or_compile(const core::ScenarioModel& model,
                                             const tensor::Shape& input_shape)
      TSDX_EXCLUDES(mutex_);

  const CompileOptions& options() const { return options_; }

 private:
  const CompileOptions options_;
  mutable Mutex mutex_{"plan.cache", lockorder::Rank::kPlan};
  std::map<tensor::Shape, std::shared_ptr<const Plan>> plans_
      TSDX_GUARDED_BY(mutex_);
};

/// Per-worker compiled execution with dynamic fallback. Not thread-safe
/// (each worker owns one); the shared pieces (cache, extractor) are.
class PlanExecutor {
 public:
  PlanExecutor(std::shared_ptr<const core::ScenarioExtractor> extractor,
               std::shared_ptr<PlanCache> cache);

  /// Drop-in for ScenarioExtractor::extract_batch. Compiled when possible,
  /// dynamic otherwise — same results either way.
  std::vector<core::ExtractionResult> extract_batch(
      const data::Batch& batch);

  const Arena& arena() const { return arena_; }
  /// Did the most recent extract_batch() run a compiled plan (vs the
  /// dynamic fallback)? The server stamps this into the flight recorder as
  /// the request's execution path.
  bool last_used_plan() const { return last_used_plan_; }

 private:
  std::shared_ptr<const core::ScenarioExtractor> extractor_;
  std::shared_ptr<PlanCache> cache_;
  Arena arena_;
  bool last_used_plan_ = false;
  std::uint64_t plan_executions_ = 0;  // compiled runs by *this* executor
};

}  // namespace tsdx::plan
