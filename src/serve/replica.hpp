// replica.hpp — one managed shard of the router's fleet.
//
// A ManagedReplica owns an InferenceServer plus the router-side facts about
// it that no single request can see: a health state machine, the in-flight
// dispatch count that feeds least-loaded routing, the consecutive-failure
// streak that demotes it, and the retry budget that stops failovers from
// turning into retry storms (DESIGN.md §15).
//
// State machine:
//
//            consecutive failures >= down_after_failures,
//            or kill() (server shut down)
//     UP ───────────────────────────────────────────────▶ DOWN
//      │ ▲                                                 │
//      │ │ circuit closes                probe succeeds,   │
//      ▼ │ (observe_circuit)             passive heal      │
//   DRAINING ◀── circuit opens           backoff elapses,  │
//                (observe_circuit)       or revive()       │
//      ▲                                                   │
//      └────────────── UP ◀────────────────────────────────┘
//
//   UP        healthy: preferred dispatch target.
//   DRAINING  alive but degraded (its circuit breaker is OPEN, so it answers
//             from its per-shard fallback): steered away from while any UP
//             replica exists, still eligible when the rest of the fleet is
//             worse off — a degraded answer beats no answer.
//   DOWN      not dispatched at all; only a probe (or revive()) readmits it.
//
// Thread-safety: one tsdx::Mutex (rank kReplica) guards everything mutable.
// Replica locks all share one rank, so they may never nest — the router
// touches replicas strictly one at a time.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/annotations.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace tsdx::serve {

enum class ReplicaState { kUp, kDraining, kDown };

const char* to_string(ReplicaState state);

/// Deterministic token bucket limiting retries *onto* one replica. Each
/// primary success earns `ratio` tokens (capped), each retry spends one; the
/// floor seeds the bucket so a cold fleet can absorb a burst of failovers.
/// Classic retry-budget math: sustained retry throughput can never exceed
/// ratio x success throughput + the one-time floor, so a hard-down replica
/// is probed, not hammered. Not internally synchronized — owned under the
/// replica's mutex.
struct RetryBudget {
  double tokens = 0.0;
  double ratio = 0.1;
  double cap = 64.0;

  bool try_spend() {
    if (tokens < 1.0) return false;
    tokens -= 1.0;
    return true;
  }
  void earn() { tokens = tokens + ratio < cap ? tokens + ratio : cap; }
};

/// Router-side knobs for one replica (the ServerConfig inside is fully
/// resolved: the Router stamps name/fault_domain/metrics per index).
struct ReplicaConfig {
  ServerConfig server;
  /// Initial retry-budget tokens (the floor in the budget math above).
  double retry_budget_floor = 3.0;
  /// Tokens earned per primary success.
  double retry_budget_ratio = 0.1;
  /// Bucket depth cap.
  double retry_budget_cap = 64.0;
  /// Consecutive router-observed failures that demote UP/DRAINING -> DOWN.
  std::size_t down_after_failures = 3;
};

/// One shard: an InferenceServer plus its health/load/retry-budget state.
class ManagedReplica {
 public:
  using Clock = std::chrono::steady_clock;

  /// Builds the underlying server immediately (state starts UP). Exports
  /// route.replica_state.<i> / route.replica_queue_depth.<i> gauges and
  /// route.replica_dispatched.<i> / route.replica_failures.<i> counters
  /// into `registry`.
  ManagedReplica(std::size_t index,
                 std::shared_ptr<const core::ScenarioExtractor> extractor,
                 ReplicaConfig config, obs::Registry& registry);

  ManagedReplica(const ManagedReplica&) = delete;
  ManagedReplica& operator=(const ManagedReplica&) = delete;

  std::size_t index() const { return index_; }

  ReplicaState state() const TSDX_EXCLUDES(mutex_);

  /// The live server, or null after kill(). Callers copy the shared_ptr and
  /// submit outside the replica lock; a server swapped out mid-flight fails
  /// the caller's submit with ServerStoppedError, which the router treats
  /// as one failed attempt.
  std::shared_ptr<InferenceServer> server() const TSDX_EXCLUDES(mutex_);

  /// Load score for least-loaded dispatch: router-tracked in-flight
  /// dispatches + the server's queued depth. DOWN/killed replicas answer
  /// max(). Ties are broken by index, in the router.
  std::size_t load() const TSDX_EXCLUDES(mutex_);

  /// One dispatch left for this replica (submit accepted). Pairs with
  /// exactly one on_outcome() or on_expired(), which may come first: the
  /// answer's callback can run before submit() returns.
  void on_dispatch() TSDX_EXCLUDES(mutex_);

  /// The dispatch resolved. Success resets the failure streak and earns
  /// retry budget; failure extends the streak and demotes the replica to
  /// DOWN at down_after_failures.
  void on_outcome(bool success) TSDX_EXCLUDES(mutex_);

  /// The dispatch was abandoned without a verdict on replica health (its
  /// deadline expired pre-dispatch — overload, not a shard fault): releases
  /// the in-flight slot without touching the failure streak or the budget.
  void on_expired() TSDX_EXCLUDES(mutex_);

  /// Spend one retry-budget token if available (a retry is about to target
  /// this replica).
  bool try_spend_retry_token() TSDX_EXCLUDES(mutex_);

  /// Probe-tick input: the replica's circuit-breaker state. OPEN demotes
  /// UP -> DRAINING (steer away before it has to degrade more traffic);
  /// closing it promotes DRAINING -> UP. Never touches DOWN.
  void observe_circuit(CircuitState circuit) TSDX_EXCLUDES(mutex_);

  /// Readmits a DOWN replica (probe succeeded / heal backoff elapsed) and
  /// clears the failure streak.
  void mark_up() TSDX_EXCLUDES(mutex_);
  /// When the replica entered DOWN (valid while state() == kDown).
  Clock::time_point down_since() const TSDX_EXCLUDES(mutex_);

  /// Refresh the route.replica_queue_depth.<i> gauge from the live server.
  void update_queue_gauge() TSDX_EXCLUDES(mutex_);

  /// Hard-stop this shard: the server is shut down (queued requests fail
  /// with ServerStoppedError) and the slot goes DOWN with no server.
  void kill() TSDX_EXCLUDES(mutex_);

  /// Rebuild the server from the original extractor/config and go UP.
  void revive() TSDX_EXCLUDES(mutex_);

 private:
  void set_state_locked(ReplicaState next) TSDX_REQUIRES(mutex_);

  const std::size_t index_;
  const ReplicaConfig config_;
  const std::shared_ptr<const core::ScenarioExtractor> extractor_;
  obs::Gauge& state_gauge_;
  obs::Gauge& queue_gauge_;
  obs::Counter& dispatched_counter_;
  obs::Counter& failures_counter_;

  mutable Mutex mutex_{"route.replica", lockorder::Rank::kReplica};
  std::shared_ptr<InferenceServer> server_ TSDX_GUARDED_BY(mutex_);
  ReplicaState state_ TSDX_GUARDED_BY(mutex_) = ReplicaState::kUp;
  /// Dispatches minus answers: -1 for the instant between an answer and
  /// its own on_dispatch().
  std::int64_t in_flight_ TSDX_GUARDED_BY(mutex_) = 0;
  std::size_t consecutive_failures_ TSDX_GUARDED_BY(mutex_) = 0;
  RetryBudget retry_budget_ TSDX_GUARDED_BY(mutex_);
  Clock::time_point down_since_ TSDX_GUARDED_BY(mutex_){};
};

}  // namespace tsdx::serve
