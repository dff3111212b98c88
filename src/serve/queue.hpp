// queue.hpp — bounded MPMC queue with an explicit backpressure policy.
//
// The queue is the single coupling point between producers (client threads
// calling InferenceServer::submit) and consumers (worker threads forming
// micro-batches). Capacity is a hard bound; what happens when it is reached
// is a first-class configuration choice rather than an accident:
//
//   kBlock      producer waits for space (lossless, propagates backpressure
//               upstream; the right default for batch/offline callers).
//   kReject     push throws QueueFullError immediately (bounded latency;
//               the caller owns retry/backoff — typical RPC front door).
//   kShedOldest the oldest queued item is evicted and returned to the
//               pusher, which fails it; freshest work wins (typical for
//               live video feeds where a stale frame is worthless).
//
// All operations are mutex + condition-variable based: simple, portable, and
// clean under ThreadSanitizer. The serving workload is dominated by model
// forward passes (milliseconds), so lock contention on the queue is noise.
// The mutex is a tsdx::Mutex (rank kQueue, outermost of the worker-side
// hierarchy — see DESIGN.md §12), every shared field is TSDX_GUARDED_BY it,
// and CV waits are explicit loops so the guarded reads stay inside the
// function that visibly holds the capability.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "core/annotations.hpp"
#include "core/check.hpp"
#include "serve/error.hpp"

namespace tsdx::serve {

enum class OverflowPolicy { kBlock, kReject, kShedOldest };

const char* to_string(OverflowPolicy policy);

template <typename T>
class BoundedQueue {
 public:
  struct NoInsertHook {
    void operator()(T& /*item*/) const {}
  };

  BoundedQueue(std::size_t capacity, OverflowPolicy policy)
      : capacity_(capacity), policy_(policy) {
    TSDX_CHECK(capacity_ >= 1, "BoundedQueue: capacity must be >= 1, got ",
               capacity_);
  }

  /// Enqueue one item, applying the overflow policy when at capacity.
  /// Returns the evicted item under kShedOldest (the caller must fail it);
  /// std::nullopt otherwise. Throws QueueFullError under kReject when full
  /// and ServerStoppedError if the queue has been closed; on a throw `item`
  /// is left untouched, so the caller still owns it. `on_insert(item)` runs
  /// under the queue lock once the item has won its place, just before it
  /// becomes poppable (the server stamps the enqueue milestone there).
  template <typename OnInsert = NoInsertHook>
  std::optional<T> push(T&& item, OnInsert&& on_insert = OnInsert{})
      TSDX_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    if (closed_) throw ServerStoppedError("push on closed queue");
    std::optional<T> shed;
    if (items_.size() >= capacity_) {
      switch (policy_) {
        case OverflowPolicy::kBlock:
          while (items_.size() >= capacity_ && !closed_) {
            not_full_.wait(lock);
          }
          if (closed_) throw ServerStoppedError("push on closed queue");
          break;
        case OverflowPolicy::kReject:
          throw QueueFullError("request queue full (capacity " +
                               std::to_string(capacity_) + ")");
        case OverflowPolicy::kShedOldest:
          shed = std::move(items_.front());
          items_.pop_front();
          break;
      }
    }
    on_insert(item);
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return shed;
  }

  /// Blocking pop: waits until an item is available or the queue is closed.
  /// After close(), keeps returning remaining items until empty, then
  /// std::nullopt (so a graceful drain can finish queued work).
  std::optional<T> pop() TSDX_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    while (items_.empty() && !closed_) {
      not_empty_.wait(lock);
    }
    return pop_locked();
  }

  /// Non-waiting pop: an item if immediately available, else std::nullopt.
  std::optional<T> try_pop() TSDX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    return pop_locked();
  }

  /// Close the queue: pushes fail from now on; blocked producers and
  /// consumers wake. Queued items stay poppable (graceful drain).
  void close() TSDX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Close and remove every queued item in FIFO order (hard shutdown: the
  /// caller fails the returned items' futures).
  std::vector<T> close_and_drain() TSDX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    closed_ = true;
    std::vector<T> leftover;
    leftover.reserve(items_.size());
    for (auto& item : items_) leftover.push_back(std::move(item));
    items_.clear();
    not_empty_.notify_all();
    not_full_.notify_all();
    return leftover;
  }

  std::size_t size() const TSDX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    return items_.size();
  }


 private:
  std::optional<T> pop_locked() TSDX_REQUIRES(mutex_) {
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  const std::size_t capacity_;
  const OverflowPolicy policy_;
  mutable Mutex mutex_{"serve.queue", lockorder::Rank::kQueue};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ TSDX_GUARDED_BY(mutex_);
  bool closed_ TSDX_GUARDED_BY(mutex_) = false;
};

}  // namespace tsdx::serve
