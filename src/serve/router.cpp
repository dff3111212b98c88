#include "serve/router.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "core/check.hpp"
#include "obs/slo.hpp"
#include "serve/error.hpp"
#include "serve/fault/inject.hpp"

namespace tsdx::serve {

Router::Router(std::shared_ptr<const core::ScenarioExtractor> extractor,
               RouterConfig config)
    : extractor_(std::move(extractor)),
      config_(std::move(config)),
      // Aliasing shared_ptr: global() is a process-lifetime static (same
      // idiom as InferenceServer).
      registry_(config_.metrics != nullptr
                    ? config_.metrics
                    : std::shared_ptr<obs::Registry>(
                          std::shared_ptr<void>(), &obs::Registry::global())),
      admission_(
          std::make_unique<AdmissionController>(config_.admission, *registry_)),
      relay_queue_(std::max<std::size_t>(1, config_.relay_queue_capacity),
                   OverflowPolicy::kBlock),
      accounts_(*registry_) {
  TSDX_CHECK(config_.replicas >= 1, "Router: need at least one replica, got ",
             config_.replicas);
  TSDX_CHECK(config_.max_attempts >= 1,
             "Router: max_attempts must be >= 1, got ", config_.max_attempts);
  replicas_.reserve(config_.replicas);
  for (std::size_t i = 0; i < config_.replicas; ++i) {
    ReplicaConfig replica_config;
    replica_config.server = config_.server;
    replica_config.server.name = "replica" + std::to_string(i);
    replica_config.server.fault_domain = static_cast<int>(i);
    replica_config.server.metrics = registry_;
    replica_config.retry_budget_floor = config_.retry_budget_floor;
    replica_config.retry_budget_ratio = config_.retry_budget_ratio;
    replica_config.retry_budget_cap = config_.retry_budget_cap;
    replica_config.down_after_failures = config_.down_after_failures;
    replicas_.push_back(std::make_unique<ManagedReplica>(
        i, extractor_, std::move(replica_config), *registry_));
  }
  relays_.spawn(std::max<std::size_t>(1, config_.relay_threads),
                [this](std::size_t) { relay_loop(); });
  prober_.spawn(1, [this](std::size_t) { probe_loop(); });
}

Router::~Router() { shutdown(); }

std::future<core::ExtractionResult> Router::submit(
    sim::VideoClip clip, std::optional<Clock::time_point> deadline,
    const std::string& tenant) {
  TSDX_TRACE_SPAN("route.submit");
  if (!accepting_.load(std::memory_order_acquire)) {
    throw ServerStoppedError("router is not accepting requests");
  }
  const auto now = Clock::now();
  // Mint the trace before admission so even a shed request leaves a
  // flight-recorder record carrying the verdict.
  const obs::trace::Context trace = obs::trace::mint();
  obs::Recorder::Record rec =
      obs::Recorder::global().begin(obs::Recorder::Kind::kRouter,
                                    trace.trace_id);
  const AdmitVerdict verdict = admission_->admit(tenant, now);
  rec.admission = to_string(verdict);
  if (verdict != AdmitVerdict::kAdmitted) {
    obs::Recorder::global().finish(rec, obs::Recorder::Outcome::kRejected,
                                   accounts_);
    throw AdmissionRejectedError("admission rejected tenant '" + tenant +
                                 "': " + to_string(verdict));
  }

  Ticket ticket;
  ticket.tenant = tenant;
  ticket.clip = std::move(clip);
  ticket.deadline = deadline;
  ticket.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  ticket.submit_time = now;
  ticket.trace = trace;
  ticket.rec = rec;
  auto future = ticket.promise.get_future();
  pending_inc();

  std::exception_ptr dispatch_error;
  if (dispatch(ticket, std::nullopt, false, &dispatch_error) !=
      DispatchOutcome::kDispatched) {
    resolve_fleet_dark(ticket, dispatch_error);
    return future;
  }
  try {
    relay_queue_.push(std::move(ticket));
  } catch (const ServerStoppedError&) {
    // shutdown() closed the relay queue between our accepting_ check and
    // the push, which left the ticket with us. The inner request is already
    // in flight on the replica (the replica's own shutdown resolves it);
    // close the ticket as cancelled — counted failed, so route.admitted
    // still balances — and report teardown to the caller.
    replicas_[ticket.replica]->on_expired();
    fail_ticket(ticket, std::current_exception(),
                obs::Recorder::Outcome::kCancelled);
    throw;
  }
  return future;
}

std::optional<std::size_t> Router::pick_replica(
    std::optional<std::size_t> exclude, const std::vector<bool>& tried) const {
  std::optional<std::size_t> best;
  int best_tier = 0;
  std::size_t best_load = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (tried[i]) continue;
    const ManagedReplica& replica = *replicas_[i];
    const ReplicaState state = replica.state();
    if (state == ReplicaState::kDown) continue;
    const auto server = replica.server();
    if (!server) continue;
    int tier = (state == ReplicaState::kUp &&
                server->circuit_state() != CircuitState::kOpen)
                   ? 0
                   : 1;
    if (exclude && *exclude == i) tier += 2;
    const std::size_t load = replica.load();
    // Strict < on (tier, load) keeps the lowest index on ties: the pick is
    // a pure function of observed state, which is what makes dispatch
    // deterministic enough to pin in router_test.
    if (!best || tier < best_tier ||
        (tier == best_tier && load < best_load)) {
      best = i;
      best_tier = tier;
      best_load = load;
    }
  }
  return best;
}

Router::DispatchOutcome Router::dispatch(Ticket& ticket,
                                         std::optional<std::size_t> exclude,
                                         bool is_retry,
                                         std::exception_ptr* last_error) {
  std::vector<bool> tried(replicas_.size(), false);
  bool budget_denied = false;
  for (;;) {
    const auto pick = pick_replica(exclude, tried);
    if (!pick) break;
    const std::size_t index = *pick;
    tried[index] = true;
    ManagedReplica& replica = *replicas_[index];
    if (is_retry && !replica.try_spend_retry_token()) {
      budget_denied = true;
      continue;
    }
    const auto server = replica.server();
    if (!server) continue;
    try {
      // Adopt the ticket's trace for the inner submit: the replica server
      // reuses an ambient context instead of minting, so the replica-side
      // record, spans, and exemplars all share the router's trace ID.
      obs::trace::ContextGuard trace_guard(ticket.trace);
      auto inner = server->submit(sim::VideoClip(ticket.clip), ticket.deadline);
      replica.on_dispatch();
      ticket.inner = std::move(inner);
      ticket.replica = index;
      ticket.rec.replica = static_cast<std::int32_t>(index);
      return DispatchOutcome::kDispatched;
    } catch (const QueueFullError&) {
      if (last_error) *last_error = std::current_exception();
    } catch (const ServerStoppedError&) {
      if (last_error) *last_error = std::current_exception();
    }
  }
  return budget_denied ? DispatchOutcome::kNoBudget
                       : DispatchOutcome::kNoCandidate;
}

void Router::relay_loop() {
  for (;;) {
    auto popped = relay_queue_.pop();
    if (!popped) return;  // closed and empty
    Ticket ticket = std::move(*popped);
    service(ticket);
  }
}

void Router::service(Ticket& ticket) {
  for (;;) {
    if (ticket.deadline) {
      const auto give_up = *ticket.deadline + config_.deadline_grace;
      if (ticket.inner.wait_until(give_up) != std::future_status::ready) {
        // The replica is wedged past the deadline + grace (its own batcher
        // would have expired an undispatched request by now). Abandon the
        // inner future — deadlines are never extended — and charge the
        // stall to the replica's failure streak.
        replicas_[ticket.replica]->on_outcome(false);
        // The inner server never saw this expiry (it's wedged inside the
        // batch), so the router is the one that flags the miss.
        obs::SloEngine::global().note_anomaly(obs::Anomaly::kDeadlineMiss,
                                              ticket.trace.trace_id);
        fail_ticket(ticket,
                    std::make_exception_ptr(DeadlineExceededError(
                        "deadline passed while replica" +
                        std::to_string(ticket.replica) + " stalled")),
                    obs::Recorder::Outcome::kDeadlineExpired);
        return;
      }
    } else {
      ticket.inner.wait();
    }

    std::exception_ptr error;
    try {
      core::ExtractionResult result = ticket.inner.get();
      replicas_[ticket.replica]->on_outcome(true);
      complete_ticket(ticket, std::move(result));
      return;
    } catch (const DeadlineExceededError&) {
      // Scrubbed pre-dispatch by the replica: overload, not a shard fault —
      // and the deadline cannot be extended, so there is nothing to retry.
      replicas_[ticket.replica]->on_expired();
      fail_ticket(ticket, std::current_exception(),
                  obs::Recorder::Outcome::kDeadlineExpired);
      return;
    } catch (...) {
      error = std::current_exception();
    }
    replicas_[ticket.replica]->on_outcome(false);

    if (shutting_down_.load(std::memory_order_acquire) ||
        ticket.attempt >= config_.max_attempts) {
      if (!shutting_down_.load(std::memory_order_acquire)) {
        // The request burned every attempt it was allowed — retry storm
        // territory; dump the recorder so the sequence of shards and
        // backoffs is reconstructible.
        obs::SloEngine::global().note_anomaly(obs::Anomaly::kRetryStorm,
                                              ticket.trace.trace_id);
      }
      fail_ticket(ticket, error);
      return;
    }
    const auto backoff = backoff_for(ticket);
    if (ticket.deadline &&
        Clock::now() + backoff + config_.retry_cost_floor >= *ticket.deadline) {
      // Fail fast: the remaining budget cannot cover backoff plus a useful
      // attempt. The original submit_within deadline stands — a retry never
      // buys the request more time.
      fail_ticket(ticket,
                  std::make_exception_ptr(DeadlineExceededError(
                      "remaining deadline budget cannot cover a retry after "
                      "attempt " +
                      std::to_string(ticket.attempt) + " failed")),
                  obs::Recorder::Outcome::kDeadlineExpired);
      return;
    }
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);

    const std::size_t failed_replica = ticket.replica;
    ticket.attempt += 1;
    switch (dispatch(ticket, failed_replica, true, nullptr)) {
      case DispatchOutcome::kDispatched:
        // route.retries / route.failovers derive from these at close.
        ++ticket.rec.attempts;
        if (ticket.replica != failed_replica) ++ticket.rec.failovers;
        ticket.rec.backoff_ns +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(backoff)
                .count();
        break;  // await the new inner future
      case DispatchOutcome::kNoCandidate:
        resolve_fleet_dark(ticket, error);
        return;
      case DispatchOutcome::kNoBudget:
        // The budget is the storm brake: surface the original failure
        // instead of hammering replicas that stopped earning tokens. That
        // brake engaging IS the retry-storm signal.
        obs::SloEngine::global().note_anomaly(obs::Anomaly::kRetryStorm,
                                              ticket.trace.trace_id);
        fail_ticket(ticket, error);
        return;
    }
  }
}

std::chrono::microseconds Router::backoff_for(const Ticket& ticket) const {
  std::int64_t base = config_.retry_backoff.count();
  const std::int64_t cap =
      std::max<std::int64_t>(base, config_.retry_backoff_cap.count());
  for (std::size_t k = 1; k < ticket.attempt && base < cap; ++k) base *= 2;
  base = std::min(base, cap);
  if (base <= 0) return std::chrono::microseconds{0};
  const std::uint64_t h =
      fault::mix64(config_.seed ^ fault::mix64(ticket.sequence) ^
                   static_cast<std::uint64_t>(ticket.attempt));
  // Jitter into [1/2, 1] x base from the top 53 bits — deterministic for a
  // fixed RouterConfig::seed, decorrelated across (request, attempt).
  const double frac =
      0.5 + 0.5 * static_cast<double>(h >> 11) /
                static_cast<double>(std::uint64_t{1} << 53);
  return std::chrono::microseconds(
      static_cast<std::int64_t>(static_cast<double>(base) * frac));
}

void Router::resolve_fleet_dark(Ticket& ticket, std::exception_ptr cause) {
  if (config_.fallback != nullptr) {
    // The fallback's extract prepends kDegradedWarning itself (fallback.hpp
    // contract), which is also what complete_ticket keys the degraded
    // counter on.
    complete_ticket(ticket, config_.fallback->extract(ticket.clip));
    return;
  }
  fail_ticket(ticket,
              cause != nullptr
                  ? cause
                  : std::make_exception_ptr(NoReplicaAvailableError(
                        "every replica is down and no fleet fallback is "
                        "configured")));
}

void Router::complete_ticket(Ticket& ticket, core::ExtractionResult result) {
  const bool degraded =
      !result.warnings.empty() && result.warnings.front() == kDegradedWarning;
  close_ticket(ticket, degraded ? obs::Recorder::Outcome::kDegraded
                                : obs::Recorder::Outcome::kCompleted);
  ticket.promise.set_value(std::move(result));
  release_ticket(ticket);
}

void Router::fail_ticket(Ticket& ticket, std::exception_ptr error,
                         obs::Recorder::Outcome outcome) {
  close_ticket(ticket, outcome);
  ticket.promise.set_exception(std::move(error));
  release_ticket(ticket);
}

void Router::close_ticket(Ticket& ticket, obs::Recorder::Outcome outcome) {
  obs::trace::record_span("route.request", ticket.trace, ticket.submit_time,
                          Clock::now());
  obs::Recorder::global().finish(ticket.rec, outcome, accounts_);
}

void Router::release_ticket(Ticket& ticket) {
  admission_->on_done(ticket.tenant);
  LockGuard lock(router_mutex_);
  if (pending_ > 0) --pending_;
  if (pending_ == 0) pending_cv_.notify_all();
}

void Router::pending_inc() {
  LockGuard lock(router_mutex_);
  ++pending_;
}

void Router::wait_pending_zero() {
  UniqueLock lock(router_mutex_);
  while (pending_ != 0) {
    pending_cv_.wait(lock);
  }
}

void Router::probe_loop() {
  for (;;) {
    {
      UniqueLock lock(router_mutex_);
      const auto wake = Clock::now() + config_.probe_interval;
      while (!probe_stop_) {
        if (probe_cv_.wait_until(lock, wake) == std::cv_status::timeout) {
          break;
        }
      }
      if (probe_stop_) return;
    }
    probe_tick();
  }
}

void Router::probe_tick() {
  const auto now = Clock::now();
  for (auto& entry : replicas_) {
    ManagedReplica& replica = *entry;
    replica.update_queue_gauge();
    const auto server = replica.server();
    if (!server) continue;  // killed — only revive_replica() brings it back
    replica.observe_circuit(server->circuit_state());
    if (replica.state() != ReplicaState::kDown) continue;
    if (config_.probe_clip) {
      bool healthy = false;
      try {
        auto probe = server->submit_within(
            sim::VideoClip(*config_.probe_clip), config_.probe_timeout);
        if (probe.wait_until(Clock::now() + 2 * config_.probe_timeout) ==
            std::future_status::ready) {
          probe.get();  // throws if the probe failed
          healthy = true;
        }
      } catch (...) {
        healthy = false;
      }
      if (healthy) replica.mark_up();
    } else if (now - replica.down_since() >= config_.heal_backoff) {
      replica.mark_up();
    }
  }
}

void Router::stop_prober() {
  {
    LockGuard lock(router_mutex_);
    probe_stop_ = true;
    probe_cv_.notify_all();
  }
  prober_.join();
}

void Router::drain() {
  {
    LockGuard lock(router_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  accepting_.store(false, std::memory_order_release);
  stop_prober();
  // Drain replicas one by one: each completes every request it accepted.
  // Replicas must drain before the pending wait — an inline (workers == 0)
  // server only processes its queue inside drain(). The flip side: a retry
  // sleeping out its backoff can wake to a drained fleet and resolve
  // fleet-dark, so callers that need every retry to play out against live
  // replicas must settle (stats().pending == 0) before calling drain().
  for (auto& replica : replicas_) replica->drain_server();
  wait_pending_zero();
  relay_queue_.close();
  relays_.join();
}

void Router::shutdown() {
  {
    LockGuard lock(router_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  accepting_.store(false, std::memory_order_release);
  shutting_down_.store(true, std::memory_order_release);
  stop_prober();
  for (auto& replica : replicas_) replica->shutdown_server();
  // Every inner future is resolved now (shutdown fails queued requests and
  // finishes in-flight batches), and shutting_down_ disables retries.
  // Tickets still parked in the relay queue are serviced right here so no
  // router future is ever abandoned.
  auto leftovers = relay_queue_.close_and_drain();
  for (auto& ticket : leftovers) service(ticket);
  wait_pending_zero();
  relays_.join();
}

void Router::kill_replica(std::size_t index) {
  TSDX_CHECK(index < replicas_.size(), "kill_replica: index ", index,
             " out of range (", replicas_.size(), " replicas)");
  replicas_[index]->kill();
}

void Router::revive_replica(std::size_t index) {
  TSDX_CHECK(index < replicas_.size(), "revive_replica: index ", index,
             " out of range (", replicas_.size(), " replicas)");
  replicas_[index]->revive();
}

ReplicaState Router::replica_state(std::size_t index) const {
  TSDX_CHECK(index < replicas_.size(), "replica_state: index ", index,
             " out of range (", replicas_.size(), " replicas)");
  return replicas_[index]->state();
}

RouterStats Router::stats() const {
  RouterStats stats;
  stats.admitted = admission_->admitted();
  stats.shed = admission_->rejected();
  stats.completed = accounts_.completed.value();
  stats.failed = accounts_.failed.value();
  stats.degraded = accounts_.degraded.value();
  stats.retries = accounts_.retries.value();
  stats.failovers = accounts_.failovers.value();
  {
    LockGuard lock(router_mutex_);
    stats.pending = pending_;
  }
  stats.replica_states.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    stats.replica_states.push_back(replica->state());
  }
  return stats;
}

}  // namespace tsdx::serve
