#include "serve/thread_pool.hpp"

#include "core/check.hpp"

namespace tsdx::serve {

ThreadPool::~ThreadPool() { join(); }

void ThreadPool::spawn(std::size_t count, std::function<void(std::size_t)> fn) {
  LockGuard lock(mutex_);
  TSDX_CHECK(threads_.empty(), "ThreadPool::spawn: pool already spawned (",
             threads_.size(), " threads)");
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([fn, i] { fn(i); });
  }
}

void ThreadPool::join() {
  // Joining happens outside the lock: a joined thread may itself be blocked
  // on something the lock-holder must release.
  std::vector<std::thread> threads;
  {
    LockGuard lock(mutex_);
    threads.swap(threads_);
  }
  for (auto& t : threads) t.join();
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  ThreadPool pool;
  pool.spawn(count, fn);
  pool.join();
}

}  // namespace tsdx::serve
