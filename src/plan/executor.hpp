// executor.hpp — running compiled plans in the serving path.
//
// Three pieces:
//   * Arena       — one kArenaAlignment-aligned, uninitialized float block
//                   per worker. Pages no run touches never become resident,
//                   so reserving for max_batch up front costs only address
//                   space. ensure() growths are counted so tests can assert
//                   the hot path stops allocating after warm-up.
//   * PlanCache   — (model config, clip geometry, weights) -> PolyPlan,
//                   behind a tsdx::Mutex at lockorder::Rank::kPlan (rank 43,
//                   below the tsdx::par ranks: compilation traces forwards
//                   that fan out through the pool while the cache lock is
//                   held). PlanCache::global() is the one process-wide
//                   cache every InferenceServer and Router replica shares;
//                   private caches stay constructible for tests and benches.
//   * PlanExecutor— per-worker facade with the extractor's contract:
//                   extract_batch() runs the plan instantiated at the
//                   batch's size and decodes its logits with the
//                   extractor's own decoder (core::decode_results, argmax
//                   or constrained). There is no dynamic fallback: a model
//                   that does not compile fails when the executor (or the
//                   server) is built.
//
// The compiled path's logits are bit-identical to the dynamic path's (see
// plan.hpp) and both decode through the same function, so a served answer
// equals ScenarioExtractor::extract_batch's for the same clips.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/annotations.hpp"
#include "core/extractor.hpp"
#include "plan/plan.hpp"

namespace tsdx::plan {

/// Flat scratch block for one worker's plan executions. Never shrinks;
/// ensure() is the only allocation the compiled hot path can trigger, and
/// the growth counter exposes exactly when it does.
class Arena {
 public:
  Arena() = default;

  /// Ensure capacity >= bytes; reallocates (and counts a growth) only when
  /// the current block is too small. The block is left uninitialized.
  float* ensure(std::size_t bytes);

  float* data() { return block_.get(); }
  std::size_t capacity_bytes() const { return capacity_; }
  /// How many times ensure() had to (re)allocate. A server worker reserves
  /// for max_batch once and stays at 1; plan_test asserts it stays flat
  /// across repeated batches.
  std::uint64_t growths() const { return growths_; }

 private:
  struct Free {
    void operator()(float* block) const;
  };
  std::unique_ptr<float, Free> block_;
  std::size_t capacity_ = 0;
  std::uint64_t growths_ = 0;
};

/// Shared, thread-safe cache of compiled plans. The key is the model's
/// config, the clip geometry and the exact weights: a hit is confirmed by
/// comparing the model's parameter bytes with the plan's snapshot, so a
/// model rebuilt from the same seed reuses the plan and one that differs by
/// a single weight bit compiles its own.
class PlanCache {
 public:
  /// The process-wide cache. Every InferenceServer compiles through it, so
  /// servers and Router replicas of one model share one plan.
  static PlanCache& global();

  /// The plan for `model` at the clip geometry its ModelConfig fixes,
  /// compiling on miss (under the cache lock — concurrent callers wait
  /// rather than duplicating the traces). Throws TraceError when the model
  /// does not compile (training mode, untraceable ops, a backbone other
  /// than the video transformer, or a forward that does not scale with B);
  /// failures are counted in plan.trace_errors and not cached.
  std::shared_ptr<const PolyPlan> get_or_compile(
      const core::ScenarioModel& model) TSDX_EXCLUDES(mutex_);

  /// The same plan keyed by `input_shape`'s clip geometry, instantiated at
  /// input_shape[0].
  std::shared_ptr<const Plan> get_or_compile(const core::ScenarioModel& model,
                                             const tensor::Shape& input_shape)
      TSDX_EXCLUDES(mutex_);

  /// Plans held (at most kCapacity).
  std::size_t size() const TSDX_EXCLUDES(mutex_);

  /// Entries kept before the least recently used one is dropped (servers
  /// already holding its plan keep it alive).
  static constexpr std::size_t kCapacity = 8;

 private:
  struct Entry {
    core::ModelConfig config;
    std::shared_ptr<const PolyPlan> plan;
  };

  std::shared_ptr<const PolyPlan> lookup_or_compile(
      const core::ScenarioModel& model, const tensor::Shape& clip_shape)
      TSDX_EXCLUDES(mutex_);

  mutable Mutex mutex_{"plan.cache", lockorder::Rank::kPlan};
  /// Least recently used first.
  std::vector<Entry> entries_ TSDX_GUARDED_BY(mutex_);
};

/// Per-worker compiled execution. Not thread-safe (each worker owns one);
/// the shared pieces (plan, extractor) are.
class PlanExecutor {
 public:
  /// Run `plan` for `extractor`'s model. A nonzero `max_batch` reserves
  /// the arena for that many clips now, so no batch up to it ever grows
  /// it.
  PlanExecutor(std::shared_ptr<const core::ScenarioExtractor> extractor,
               std::shared_ptr<const PolyPlan> plan,
               std::size_t max_batch = 0);

  /// Compile (or look up) the extractor's plan in `cache` now; the arena
  /// grows on demand.
  PlanExecutor(std::shared_ptr<const core::ScenarioExtractor> extractor,
               const std::shared_ptr<PlanCache>& cache);

  /// Drop-in for ScenarioExtractor::extract_batch, same results. The
  /// batch must have the plan's clip geometry.
  std::vector<core::ExtractionResult> extract_batch(const data::Batch& batch);

  const Arena& arena() const { return arena_; }

 private:
  std::shared_ptr<const core::ScenarioExtractor> extractor_;
  std::shared_ptr<const PolyPlan> plan_;
  /// plan_ instantiated at each batch size this worker has run, by B.
  std::vector<std::shared_ptr<const Plan>> by_batch_;
  Arena arena_;
  std::uint64_t executions_ = 0;  // runs by *this* executor
};

}  // namespace tsdx::plan
