// thread_pool.hpp — inter-op thread creation. Together with the intra-op
// pool in src/tensor/kernels/parallel_for.cpp these are the only places in
// the repo allowed to construct std::thread (enforced by tools/tsdx_lint.py,
// rule `raw-thread`).
//
// Centralizing thread creation keeps ownership/joining in a single audited
// spot: every thread in a tsdx process is an InferenceServer worker, the
// Router's timer thread, an IndexIngestor consumer, a ThreadPool::run()
// fan-out, or a tsdx::par kernel worker, all of which join
// deterministically — there are no detached threads anywhere.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "core/annotations.hpp"

namespace tsdx::serve {

/// A fixed set of worker threads. Construction is explicit (spawn, once),
/// teardown is deterministic (join; the destructor joins as a safety net).
/// The pool never replaces a thread: an InferenceServer worker catches its
/// own faults and serves on.
class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Launch `count` threads, each running fn(worker_index). May be called
  /// once per pool lifetime (a pool is a batch of workers, not a task queue
  /// — the InferenceServer's request queue plays that role).
  void spawn(std::size_t count, std::function<void(std::size_t)> fn)
      TSDX_EXCLUDES(mutex_);

  /// Block until every spawned thread has returned. Idempotent.
  void join() TSDX_EXCLUDES(mutex_);

  /// Spawn-run-join in one call: run fn(i) on `count` concurrent threads and
  /// wait for all of them. This is the sanctioned primitive for producer
  /// fan-out in tests and benches (see the raw-thread lint rule).
  static void run(std::size_t count,
                  const std::function<void(std::size_t)>& fn);

 private:
  mutable Mutex mutex_{"serve.thread_pool", lockorder::Rank::kThreadPool};
  std::vector<std::thread> threads_ TSDX_GUARDED_BY(mutex_);
};

}  // namespace tsdx::serve
