// router.hpp — tsdx::serve::Router: the sharded front door over a fleet of
// InferenceServer replicas.
//
// Architecture (DESIGN.md §15 "Router & admission control"):
//
//   client threads ──submit(clip, deadline, tenant)──▶ AdmissionController
//        ▲                                              (token bucket +
//        │ std::future                                   fair in-flight
//        │                                               shares)
//        │                 least-loaded dispatch ──▶ ManagedReplica[0..N)
//        │                 (tier by health, then         each: InferenceServer
//        │                  load, then index)            + health state
//        │                       ▲ retries               + retry budget
//        └── done callback ◀─────┼────────────────────────────┘
//            (classify; resolve, │
//             or post a retry) ──┴─▶ timer heap ─▶ timer thread (retries,
//                                                  watchdogs, probe ticks)
//
// * submit() admits (or rejects, AdmissionRejectedError), picks the
//   least-loaded healthy replica (deterministic: lowest (tier, load, index))
//   and forwards the clip with a completion callback; no thread waits on it.
// * The callback classifies the answer: success resolves the router future;
//   a replica fault posts a deadline-aware retry to the timer heap — the
//   original deadline is NEVER extended, a retry must fit backoff +
//   retry_cost_floor inside the remaining budget or the request fails fast
//   with DeadlineExceededError; each retry spends a token from the *target*
//   replica's RetryBudget so a dying fleet is probed, not hammered.
// * Every accepted request resolves exactly once: completed, failed, or
//   (fleet fully dark, fallback configured) answered degraded with
//   kDegradedWarning. chaos_test kills a replica mid-stream and counts.
// * Lock ranks kRouter(2) < kAdmission(4) < kReplica(6) sit *below* every
//   server-internal rank, so router code may call into replica servers while
//   holding router state; servers run callbacks holding no lock of theirs
//   (DESIGN.md §12).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/extractor.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/replica.hpp"
#include "serve/server.hpp"
#include "serve/thread_pool.hpp"

namespace tsdx::serve {

struct RouterConfig {
  /// Fleet size. Each replica is an independent InferenceServer built from
  /// the `server` template with name "replica<i>", fault_domain i, and the
  /// router's metrics registry stamped in.
  std::size_t replicas = 2;
  ServerConfig server;
  AdmissionConfig admission;

  /// Fleet-level degraded answer source for a fully-dark fleet (every
  /// replica DOWN): the router answers from here (with kDegradedWarning)
  /// instead of failing with NoReplicaAvailableError. Distinct from
  /// server.fallback, which each replica's own circuit breaker uses.
  std::shared_ptr<const FallbackExtractor> fallback;

  /// Total dispatch attempts per request (1 = no retries).
  std::size_t max_attempts = 3;
  /// Backoff before attempt k+1: retry_backoff x 2^(k-1), capped, then
  /// jittered into [1/2, 1] x by mix64(seed, sequence, attempt) — fully
  /// deterministic for a fixed seed.
  std::chrono::microseconds retry_backoff{500};
  std::chrono::microseconds retry_backoff_cap{20000};
  /// Minimum useful remaining deadline budget after backoff: a retry that
  /// cannot fit backoff + retry_cost_floor before the deadline fails fast.
  std::chrono::microseconds retry_cost_floor{1000};
  /// How long past a request's deadline the router waits for a wedged
  /// replica's answer before its watchdog abandons the attempt and fails
  /// the request (the inner server normally expires it first; the grace
  /// covers a stall inside extract_batch).
  std::chrono::microseconds deadline_grace{2000};
  std::uint64_t seed = 0;

  /// Per-replica retry-budget token bucket (see RetryBudget).
  double retry_budget_floor = 3.0;
  double retry_budget_ratio = 0.1;
  double retry_budget_cap = 64.0;

  /// Consecutive failures that mark a replica DOWN.
  std::size_t down_after_failures = 3;

  /// Health-probe cadence. Each tick refreshes queue-depth gauges, mirrors
  /// circuit state into UP/DRAINING, and tries to readmit DOWN replicas.
  std::chrono::milliseconds probe_interval{20};
  /// Deadline of an active heal probe: a probe the replica has not
  /// dispatched by then fails there with DeadlineExceededError.
  std::chrono::milliseconds probe_timeout{250};
  /// Passive heal: with no probe_clip, a DOWN (but not killed) replica is
  /// optimistically readmitted after this long.
  std::chrono::milliseconds heal_backoff{100};
  /// Active heal: a canned clip submitted to DOWN replicas; a successful
  /// answer readmits. Leave unset for workers == 0 replicas — with no
  /// worker threads a probe can never complete, so passive heal applies.
  std::optional<sim::VideoClip> probe_clip;

  /// Metrics registry (route.* series plus every replica's serve.* series).
  /// Null means obs::Registry::global().
  std::shared_ptr<obs::Registry> metrics;
};

/// Counter snapshot (values since this router's construction counters were
/// registered; pass a private RouterConfig::metrics registry for exact
/// per-instance counts, as tests do).
struct RouterStats {
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;  ///< refused at admission (route.shed)
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;  ///< retries that changed replica
  std::size_t pending = 0;      ///< admitted, not yet resolved
  std::vector<ReplicaState> replica_states;
};

class Router {
 public:
  using Clock = std::chrono::steady_clock;

  /// Builds `config.replicas` InferenceServers over the shared frozen
  /// extractor and starts the router's timer thread.
  Router(std::shared_ptr<const core::ScenarioExtractor> extractor,
         RouterConfig config);

  /// Calls shutdown() if the router is still running.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Route one clip through the fleet. Thread-safe. Throws
  /// AdmissionRejectedError synchronously when the tenant is over its rate
  /// or fair share, ServerStoppedError after drain()/shutdown(). The future
  /// resolves with the extraction (primary, or degraded with
  /// kDegradedWarning), or DeadlineExceededError, or the final attempt's
  /// failure, or NoReplicaAvailableError (fleet dark, no fallback).
  std::future<core::ExtractionResult> submit(
      sim::VideoClip clip,
      std::optional<Clock::time_point> deadline = std::nullopt,
      const std::string& tenant = "default");

  /// Convenience: deadline as a timeout from now.
  std::future<core::ExtractionResult> submit_within(
      sim::VideoClip clip, std::chrono::microseconds timeout,
      const std::string& tenant = "default") {
    return submit(std::move(clip), Clock::now() + timeout, tenant);
  }

  /// Stop intake and probing, resolve every accepted request (draining
  /// each replica; retries still play out), stop the timer thread.
  void drain() TSDX_EXCLUDES(router_mutex_);

  /// Stop intake, disable retries (one waiting out its backoff fails when
  /// due), shut every replica down (queued inner requests fail), resolve
  /// every accepted router future, stop the timer thread.
  void shutdown() TSDX_EXCLUDES(router_mutex_);

  /// Chaos/test surface: hard-kill replica i (its server shuts down; the
  /// slot goes DOWN) / rebuild it from the original extractor and config.
  void kill_replica(std::size_t index);
  void revive_replica(std::size_t index);

  ReplicaState replica_state(std::size_t index) const;
  std::size_t replica_count() const { return replicas_.size(); }

  RouterStats stats() const TSDX_EXCLUDES(router_mutex_);
  AdmissionController& admission() { return *admission_; }

  obs::Registry& metrics_registry() const { return *registry_; }
  std::string metrics_text() const { return registry_->to_prometheus(); }
  std::string metrics_json() const { return registry_->to_json(); }

  const RouterConfig& config() const { return config_; }

 private:
  struct Ticket {
    std::string tenant;
    sim::VideoClip clip;  ///< kept for retries
    std::uint64_t sequence = 0;
    std::optional<Clock::time_point> deadline;
    std::promise<core::ExtractionResult> promise;
    std::size_t attempt = 1;  ///< dispatch attempts made
    /// The dispatched attempt no one has claimed yet (0: none).
    std::atomic<std::size_t> open_attempt{0};
    std::size_t replica = 0;  ///< the last claimed attempt's target
    std::exception_ptr error;  ///< the failure a posted retry retries
    Clock::time_point submit_time;
    obs::trace::Context trace;
    /// The router hop's flight record: admission verdict, replica and
    /// retries are plain field writes, and close_ticket() hands it to
    /// obs::Recorder::finish — the one source of the route.* counts.
    obs::Recorder::Record rec;
  };
  using TicketPtr = std::shared_ptr<Ticket>;

  /// A timer heap entry: dispatch a retry, fail an attempt still unclaimed
  /// at its deadline + grace (watchdog), or run a probe tick.
  struct Timer {
    enum class Kind { kRetry, kWatchdog, kProbe };
    Clock::time_point due;
    Kind kind = Kind::kProbe;
    TicketPtr ticket{};               ///< kRetry: owned while it backs off
    std::weak_ptr<Ticket> watched{};  ///< kWatchdog: never kept alive by it
    std::size_t attempt = 0;
    std::size_t replica = 0;
    bool operator>(const Timer& other) const { return due > other.due; }
  };

  /// Deterministic least-loaded pick: lowest (tier, load, index) among
  /// un-tried replicas; tier 0 = UP with circuit not OPEN, tier 1 =
  /// DRAINING / circuit-open, +2 when the replica equals `exclude` (the
  /// attempt that just failed) so a retry changes shard whenever it can.
  std::optional<std::size_t> pick_replica(
      std::optional<std::size_t> exclude,
      const std::vector<bool>& tried) const;

  /// Submit the ticket's clip to the best candidate with a completion
  /// callback, walking down the preference order past replicas whose
  /// submit throws (queue full / stopped), and arm the attempt's watchdog.
  /// A retry spends a token from each candidate's retry budget first. When
  /// no replica takes the clip the ticket resolves here: fleet-dark, or
  /// failed when only the retry budgets stood in the way.
  void dispatch(const TicketPtr& ticket, std::optional<std::size_t> exclude);

  /// True exactly once per dispatched attempt: for its callback or for its
  /// watchdog, whichever comes first. The winner records the attempt.
  static bool claim(Ticket& ticket, std::size_t attempt, std::size_t replica);
  /// A claimed attempt's answer: resolve the ticket or post a retry.
  void on_answer(const TicketPtr& ticket, core::ExtractionResult result,
                 std::exception_ptr error);
  /// Backoff before the ticket's next attempt (exponential + seeded jitter).
  std::chrono::microseconds backoff_for(const Ticket& ticket) const;

  void post(Timer timer) TSDX_EXCLUDES(router_mutex_);
  void timer_loop() TSDX_EXCLUDES(router_mutex_);
  void fire(const Timer& timer);
  void probe_tick();
  /// Wait until nothing is pending, then stop the timer thread.
  void finish() TSDX_EXCLUDES(router_mutex_);

  /// Fleet fully dark: answer from config_.fallback (degraded) or fail with
  /// `cause` (the failure a retry retried, or the last per-replica submit
  /// error) when one exists, else NoReplicaAvailableError.
  void resolve_fleet_dark(Ticket& ticket, std::exception_ptr cause = nullptr);
  void complete_ticket(Ticket& ticket, core::ExtractionResult result);
  void fail_ticket(
      Ticket& ticket, std::exception_ptr error,
      obs::Recorder::Outcome outcome = obs::Recorder::Outcome::kFailed);
  /// The close path complete_ticket and fail_ticket share, before they
  /// resolve the promise: records the route.request span and closes the
  /// ticket's record through obs::Recorder::finish.
  void close_ticket(Ticket& ticket, obs::Recorder::Outcome outcome);
  /// Admission release + pending decrement, after the promise is resolved.
  void release_ticket(Ticket& ticket) TSDX_EXCLUDES(router_mutex_);

  const std::shared_ptr<const core::ScenarioExtractor> extractor_;
  const RouterConfig config_;
  const std::shared_ptr<obs::Registry> registry_;  // never null
  std::unique_ptr<AdmissionController> admission_;
  std::vector<std::unique_ptr<ManagedReplica>> replicas_;
  ThreadPool timer_thread_;

  /// The route.* series Recorder::finish derives closed records into.
  const obs::Recorder::RouterAccounts accounts_;

  std::atomic<bool> accepting_{true};
  /// Set by shutdown(): disables retries so leftover tickets resolve fast.
  std::atomic<bool> shutting_down_{false};
  std::atomic<std::uint64_t> next_sequence_{0};

  /// Outermost router lock (rank kRouter): pending count, timer heap.
  mutable Mutex router_mutex_{"route.router", lockorder::Rank::kRouter};
  CondVar pending_cv_;
  CondVar timer_cv_;
  std::size_t pending_ TSDX_GUARDED_BY(router_mutex_) = 0;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_
      TSDX_GUARDED_BY(router_mutex_);
  bool timer_stop_ TSDX_GUARDED_BY(router_mutex_) = false;
};

}  // namespace tsdx::serve
