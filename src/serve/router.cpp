#include "serve/router.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
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
  post(Timer{.due = Clock::now() + config_.probe_interval});
  timer_thread_.spawn(1, [this](std::size_t) { timer_loop(); });
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

  const auto ticket = std::make_shared<Ticket>();
  ticket->tenant = tenant;
  ticket->clip = std::move(clip);
  ticket->deadline = deadline;
  ticket->sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  ticket->submit_time = now;
  ticket->trace = trace;
  ticket->rec = rec;
  auto future = ticket->promise.get_future();
  {
    LockGuard lock(router_mutex_);
    ++pending_;
  }

  dispatch(ticket, std::nullopt);
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

void Router::dispatch(const TicketPtr& ticket,
                      std::optional<std::size_t> exclude) {
  const bool is_retry = exclude.has_value();
  std::vector<bool> tried(replicas_.size(), false);
  bool budget_denied = false;
  std::exception_ptr refused;  // the last submit that threw
  while (const auto pick = pick_replica(exclude, tried)) {
    const std::size_t index = *pick;
    tried[index] = true;
    ManagedReplica& replica = *replicas_[index];
    if (is_retry && !replica.try_spend_retry_token()) {
      budget_denied = true;
      continue;
    }
    const auto server = replica.server();
    if (!server) continue;
    // Open the attempt first: its callback may run before submit() returns.
    // Past submit(), this reads no ticket field a callback writes.
    const std::size_t attempt = ticket->attempt;
    ticket->open_attempt.store(attempt, std::memory_order_release);
    try {
      // Adopt the ticket's trace for the inner submit: the replica server
      // reuses an ambient context instead of minting, so the replica-side
      // record, spans, and exemplars all share the router's trace ID.
      obs::trace::ContextGuard trace_guard(ticket->trace);
      server->submit(
          sim::VideoClip(ticket->clip), ticket->deadline,
          [this, ticket, attempt, index](core::ExtractionResult result,
                                         std::exception_ptr error) {
            if (claim(*ticket, attempt, index)) {
              on_answer(ticket, std::move(result), std::move(error));
            }
          });
      replica.on_dispatch();
      if (ticket->deadline) {
        post(Timer{.due = *ticket->deadline + config_.deadline_grace,
                   .kind = Timer::Kind::kWatchdog, .watched = ticket,
                   .attempt = attempt, .replica = index});
      }
      return;
    } catch (const QueueFullError&) {
      refused = std::current_exception();
    } catch (const ServerStoppedError&) {
      refused = std::current_exception();
    }
    ticket->open_attempt.store(0, std::memory_order_relaxed);
  }
  const std::exception_ptr cause = is_retry ? ticket->error : refused;
  if (budget_denied) {
    // The budget is the storm brake: surface the original failure instead
    // of hammering replicas that stopped earning tokens. That brake
    // engaging IS the retry-storm signal.
    obs::SloEngine::global().note_anomaly(obs::Anomaly::kRetryStorm,
                                          ticket->trace.trace_id);
    fail_ticket(*ticket, cause);
    return;
  }
  resolve_fleet_dark(*ticket, cause);
}

bool Router::claim(Ticket& ticket, std::size_t attempt, std::size_t replica) {
  std::size_t open = attempt;
  if (!ticket.open_attempt.compare_exchange_strong(open, 0)) return false;
  // route.retries / route.failovers derive from these at close.
  if (attempt > 1) {
    ++ticket.rec.attempts;
    if (replica != ticket.replica) ++ticket.rec.failovers;
  }
  ticket.replica = replica;
  ticket.rec.replica = static_cast<std::int32_t>(replica);
  return true;
}

void Router::on_answer(const TicketPtr& shared, core::ExtractionResult result,
                       std::exception_ptr error) {
  Ticket& ticket = *shared;
  ManagedReplica& replica = *replicas_[ticket.replica];
  if (error == nullptr) {
    replica.on_outcome(true);
    complete_ticket(ticket, std::move(result));
    return;
  }
  try {
    std::rethrow_exception(error);
  } catch (const DeadlineExceededError&) {
    // Scrubbed pre-dispatch by the replica: overload, not a shard fault —
    // and the deadline cannot be extended, so there is nothing to retry.
    replica.on_expired();
    fail_ticket(ticket, error, obs::Recorder::Outcome::kDeadlineExpired);
    return;
  } catch (const std::invalid_argument&) {
    // The caller's malformed clip, which every replica refuses alike: it
    // fails alone, unretried, with no verdict on this replica's health.
    replica.on_expired();
    fail_ticket(ticket, error);
    return;
  } catch (...) {
  }
  replica.on_outcome(false);  // a replica fault

  const bool stopping = shutting_down_.load(std::memory_order_acquire);
  if (stopping || ticket.attempt >= config_.max_attempts) {
    // The request burned every attempt it was allowed — retry storm
    // territory; dump the recorder so the sequence of shards and backoffs
    // is reconstructible.
    if (!stopping) {
      obs::SloEngine::global().note_anomaly(obs::Anomaly::kRetryStorm,
                                            ticket.trace.trace_id);
    }
    fail_ticket(ticket, error);
    return;
  }
  const auto backoff = backoff_for(ticket);
  const auto now = Clock::now();
  if (ticket.deadline &&
      now + backoff + config_.retry_cost_floor >= *ticket.deadline) {
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
  ticket.error = error;
  ticket.rec.backoff_ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(backoff).count();
  post(Timer{.due = now + backoff, .kind = Timer::Kind::kRetry,
             .ticket = shared});
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

void Router::post(Timer timer) {
  {
    LockGuard lock(router_mutex_);
    timers_.push(std::move(timer));
  }
  timer_cv_.notify_one();
}

void Router::timer_loop() {
  for (;;) {
    Timer timer;
    {
      UniqueLock lock(router_mutex_);
      for (;;) {
        if (timer_stop_) return;
        if (timers_.empty()) {
          timer_cv_.wait(lock);
          continue;
        }
        const Clock::time_point due = timers_.top().due;
        if (Clock::now() >= due) break;
        timer_cv_.wait_until(lock, due);
      }
      timer = timers_.top();
      timers_.pop();
    }
    fire(timer);
  }
}

void Router::fire(const Timer& timer) {
  switch (timer.kind) {
    case Timer::Kind::kRetry:
      if (shutting_down_.load(std::memory_order_acquire)) {
        fail_ticket(*timer.ticket, timer.ticket->error);  // retries disabled
        return;
      }
      timer.ticket->attempt += 1;
      dispatch(timer.ticket, timer.ticket->replica);
      return;
    case Timer::Kind::kWatchdog: {
      const TicketPtr shared = timer.watched.lock();
      if (!shared || !claim(*shared, timer.attempt, timer.replica)) return;
      Ticket& ticket = *shared;
      // The replica is wedged past the deadline + grace (its batcher would
      // have expired an undispatched request by now): abandon the attempt
      // — deadlines are never extended — charge the stall to the replica,
      // and flag the miss the wedged server cannot see.
      replicas_[timer.replica]->on_outcome(false);
      obs::SloEngine::global().note_anomaly(obs::Anomaly::kDeadlineMiss,
                                            ticket.trace.trace_id);
      fail_ticket(ticket,
                  std::make_exception_ptr(DeadlineExceededError(
                      "deadline passed while replica" +
                      std::to_string(timer.replica) + " stalled")),
                  obs::Recorder::Outcome::kDeadlineExpired);
      return;
    }
    case Timer::Kind::kProbe:
      if (!accepting_.load(std::memory_order_acquire)) return;  // stopped
      probe_tick();
      post(Timer{.due = Clock::now() + config_.probe_interval});
      return;
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
    if (!config_.probe_clip) {
      if (now - replica.down_since() >= config_.heal_backoff) {
        replica.mark_up();
      }
      continue;
    }
    // Active heal: the probe's callback readmits the replica, so this
    // thread never waits for it. A full queue would park this thread in a
    // kBlock submit; the next tick tries again.
    if (server->queue_depth() >= server->config().queue_capacity) continue;
    try {
      server->submit(
          sim::VideoClip(*config_.probe_clip), now + config_.probe_timeout,
          [&replica](core::ExtractionResult, std::exception_ptr error) {
            if (error == nullptr) replica.mark_up();
          });
    } catch (...) {
      // Refused (queue full / stopped): the next tick tries again.
    }
  }
}

void Router::finish() {
  {
    UniqueLock lock(router_mutex_);
    while (pending_ != 0) {
      pending_cv_.wait(lock);
    }
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  timer_thread_.join();
}

void Router::drain() {
  if (!accepting_.exchange(false, std::memory_order_acq_rel)) return;
  // Drain replicas one by one: each completes every request it accepted.
  // Replicas must drain before the pending wait — an inline (workers == 0)
  // server only processes its queue inside drain(). The timer thread keeps
  // serving retries and watchdogs until nothing is pending. The flip side:
  // a retry whose backoff ends after its target drained resolves
  // fleet-dark, so callers that need every retry to play out against live
  // replicas must settle (stats().pending == 0) before calling drain().
  for (auto& replica : replicas_) {
    if (const auto server = replica->server()) server->drain();
  }
  finish();
}

void Router::shutdown() {
  if (!accepting_.exchange(false, std::memory_order_acq_rel)) return;
  // Retries are off from here: a callback fails its ticket instead of
  // posting one, and a retry already in the heap fails when it comes due.
  shutting_down_.store(true, std::memory_order_release);
  for (auto& replica : replicas_) {
    if (const auto server = replica->server()) server->shutdown();
  }
  finish();
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
