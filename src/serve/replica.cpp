#include "serve/replica.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

namespace tsdx::serve {

const char* to_string(ReplicaState state) {
  switch (state) {
    case ReplicaState::kUp:
      return "up";
    case ReplicaState::kDraining:
      return "draining";
    case ReplicaState::kDown:
      return "down";
  }
  return "unknown";
}

ManagedReplica::ManagedReplica(
    std::size_t index, std::shared_ptr<const core::ScenarioExtractor> extractor,
    ReplicaConfig config, obs::Registry& registry)
    : index_(index),
      config_(std::move(config)),
      extractor_(std::move(extractor)),
      state_gauge_(registry.gauge("route.replica_state." +
                                  std::to_string(index))),
      queue_gauge_(registry.gauge("route.replica_queue_depth." +
                                  std::to_string(index))),
      dispatched_counter_(registry.counter("route.replica_dispatched." +
                                           std::to_string(index))),
      failures_counter_(registry.counter("route.replica_failures." +
                                         std::to_string(index))) {
  retry_budget_.ratio = config_.retry_budget_ratio;
  retry_budget_.cap = config_.retry_budget_cap;
  retry_budget_.tokens = config_.retry_budget_floor;
  server_ = std::make_shared<InferenceServer>(extractor_, config_.server);
  state_gauge_.set(static_cast<std::int64_t>(ReplicaState::kUp));
}

ReplicaState ManagedReplica::state() const {
  LockGuard lock(mutex_);
  return state_;
}

std::shared_ptr<InferenceServer> ManagedReplica::server() const {
  LockGuard lock(mutex_);
  return server_;
}

std::size_t ManagedReplica::load() const {
  std::shared_ptr<InferenceServer> server;
  std::int64_t in_flight = 0;
  {
    LockGuard lock(mutex_);
    if (state_ == ReplicaState::kDown || !server_) {
      return std::numeric_limits<std::size_t>::max();
    }
    server = server_;
    in_flight = std::max<std::int64_t>(0, in_flight_);
  }
  // queue_depth() takes the server's queue lock (rank kQueue, above
  // kReplica) — taken here *outside* the replica lock regardless, since the
  // depth is advisory and a stale read only costs routing precision.
  return static_cast<std::size_t>(in_flight) + server->queue_depth();
}

void ManagedReplica::on_dispatch() {
  {
    LockGuard lock(mutex_);
    ++in_flight_;
  }
  dispatched_counter_.inc();
}

void ManagedReplica::on_outcome(bool success) {
  bool failed = false;
  {
    LockGuard lock(mutex_);
    --in_flight_;
    if (success) {
      consecutive_failures_ = 0;
      retry_budget_.earn();
    } else {
      failed = true;
      ++consecutive_failures_;
      if (consecutive_failures_ >= config_.down_after_failures &&
          state_ != ReplicaState::kDown) {
        set_state_locked(ReplicaState::kDown);
      }
    }
  }
  if (failed) failures_counter_.inc();
}

void ManagedReplica::on_expired() {
  LockGuard lock(mutex_);
  --in_flight_;
}

bool ManagedReplica::try_spend_retry_token() {
  LockGuard lock(mutex_);
  return retry_budget_.try_spend();
}

void ManagedReplica::observe_circuit(CircuitState circuit) {
  LockGuard lock(mutex_);
  if (circuit == CircuitState::kOpen) {
    if (state_ == ReplicaState::kUp) set_state_locked(ReplicaState::kDraining);
  } else {
    if (state_ == ReplicaState::kDraining) set_state_locked(ReplicaState::kUp);
  }
}

void ManagedReplica::mark_up() {
  LockGuard lock(mutex_);
  if (!server_) return;  // killed: only revive() can bring it back
  consecutive_failures_ = 0;
  set_state_locked(ReplicaState::kUp);
}

ManagedReplica::Clock::time_point ManagedReplica::down_since() const {
  LockGuard lock(mutex_);
  return down_since_;
}

void ManagedReplica::update_queue_gauge() {
  std::shared_ptr<InferenceServer> server;
  {
    LockGuard lock(mutex_);
    server = server_;
  }
  queue_gauge_.set(
      server ? static_cast<std::int64_t>(server->queue_depth()) : 0);
}

void ManagedReplica::kill() {
  std::shared_ptr<InferenceServer> doomed;
  {
    LockGuard lock(mutex_);
    doomed = std::move(server_);
    server_ = nullptr;
    set_state_locked(ReplicaState::kDown);
  }
  // Shut down outside the replica lock: shutdown() joins worker threads and
  // may take a while; routing reads must not block behind it. Every request
  // the server accepted resolves through its callback inside shutdown().
  if (doomed) doomed->shutdown();
}

void ManagedReplica::revive() {
  auto fresh = std::make_shared<InferenceServer>(extractor_, config_.server);
  LockGuard lock(mutex_);
  server_ = std::move(fresh);
  consecutive_failures_ = 0;
  set_state_locked(ReplicaState::kUp);
}

void ManagedReplica::set_state_locked(ReplicaState next) {
  if (state_ != next && next == ReplicaState::kDown) {
    down_since_ = Clock::now();
  }
  state_ = next;
  state_gauge_.set(static_cast<std::int64_t>(next));
}

}  // namespace tsdx::serve
