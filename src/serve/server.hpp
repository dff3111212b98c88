// server.hpp — tsdx::serve::InferenceServer: the concurrent request path of
// the extractor.
//
// Architecture (see DESIGN.md "Serving runtime" and "Fault tolerance
// contract"):
//
//   client threads ──submit()──▶ BoundedQueue ──▶ worker pool (ThreadPool)
//        ▲                        (capacity +        each worker: Replica
//        └── done callback ◀──── backpressure)       ├─ micro-batcher
//                                                    ├─ deadline scrub
//                                                    └─ PlanExecutor
//                                                         │ faults
//                                                         ▼
//                                      fallback ◀─ CircuitBreaker
//
// * The server runs compiled plans only (tsdx::plan). The constructor
//   compiles the model through the process-wide plan::PlanCache — once per
//   process for a given model, shared with every other server and Router
//   replica serving the same weights — and a model that does not compile
//   fails construction with plan::TraceError. The clip geometry is the
//   one the model's ModelConfig fixes.
// * submit() converts nothing and trains nothing: it checks the clip's
//   geometry (a mismatch fails only that request with
//   std::invalid_argument, before it reaches the queue), enqueues the clip
//   and resolves it through one completion callback (or a future set by
//   one). Overflow behaviour is the queue's OverflowPolicy (block / reject /
//   shed-oldest). An optional per-request deadline bounds how long the
//   request may wait: the batcher scrubs already-expired requests (failing
//   them with DeadlineExceededError) so doomed work never occupies a slot.
// * Each worker owns a Replica — a handle onto the *shared, frozen* model
//   weights. Inference is a const traversal of those weights; the server
//   refuses models left in training mode, where dropout would mutate the
//   shared Rng behind extract()'s const facade (see layers.hpp::Dropout).
// * The micro-batcher coalesces queued requests: a worker takes the first
//   request, then keeps accepting more until `max_batch` are in hand or
//   `batch_window` has elapsed — whichever comes first — and runs the batch
//   through its PlanExecutor: one plan run per micro-batch, in an arena
//   reserved for max_batch when the worker starts.
// * In-place recovery: an exception thrown out of the plan run fails only
//   the in-flight batch's requests (with the captured exception) and
//   increments ServerStats::worker_faults; the same worker thread then pops
//   the next request with the same PlanExecutor, whose arena is scratch
//   every run writes before it reads. K consecutive faults — or
//   sustained queue saturation — trip the CircuitBreaker into degraded
//   mode, routing requests to the configured FallbackExtractor until a
//   cooldown + successful probe heals it (DESIGN.md §9 has the state
//   machine).
// * drain() stops intake and completes every accepted request, then stops
//   the workers. shutdown() stops intake, fails still-queued requests with
//   ServerStoppedError, finishes in-flight batches, and stops the workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "core/annotations.hpp"
#include "core/extractor.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "plan/executor.hpp"
#include "obs/trace.hpp"
#include "serve/circuit.hpp"
#include "serve/fallback.hpp"
#include "serve/queue.hpp"
#include "serve/stats.hpp"
#include "serve/thread_pool.hpp"

namespace tsdx::serve {

/// One successfully answered request, as seen by ServerConfig::on_result.
/// `result` is a reference into the serving path and is valid only for the
/// duration of the callback — copy what you keep.
struct CompletionInfo {
  /// Admission order: the value of a per-server counter at submit(). Dense
  /// and unique across the server's lifetime, which makes it a ready-made
  /// document id for downstream consumers (tsdx::index ingestion) even
  /// though *completion* order is whatever the worker pool produced.
  std::uint64_t sequence = 0;
  const core::ExtractionResult& result;
  /// True when the answer came from the fallback extractor (circuit open).
  bool degraded = false;
};

/// A request's completion: the answer and a null `error`, or an empty
/// result and the error that failed it (contract: DESIGN.md §8).
using DoneCallback =
    std::function<void(core::ExtractionResult result, std::exception_ptr error)>;

struct ServerConfig {
  /// Worker (consumer) threads. 0 is a deterministic test/debug mode: no
  /// threads are spawned and queued requests are processed inline by
  /// drain() on the calling thread.
  std::size_t workers = 2;
  /// Largest model batch a worker will assemble.
  std::size_t max_batch = 8;
  /// How long a worker holds an incomplete batch open waiting for more
  /// requests. 0 means "never wait": batch whatever is already queued.
  std::chrono::microseconds batch_window{2000};
  /// Bound on queued (not yet dispatched) requests.
  std::size_t queue_capacity = 64;
  OverflowPolicy overflow = OverflowPolicy::kBlock;

  /// Degraded-mode answer source. When null, the circuit breaker never
  /// trips: worker faults still fail their batch and the worker serves on,
  /// but there is nothing to route around the model to.
  std::shared_ptr<const FallbackExtractor> fallback;
  /// Trip/heal thresholds for the circuit breaker (see circuit.hpp).
  CircuitConfig circuit;

  /// Intra-op (tsdx::par) thread budget each worker's kernels may use. 0
  /// picks hardware_concurrency / workers (min 1) so inter-op workers don't
  /// oversubscribe the cores between them. Ignored when TSDX_NUM_THREADS is
  /// set — an explicit user choice always wins (par::env_override()).
  std::size_t intra_op_threads = 0;

  /// Metrics registry this server reports into (serve.* counters, gauges
  /// and histograms). Null means the process-wide obs::Registry::global() —
  /// the right default for a deployment with one scrape endpoint. Tests
  /// that assert exact process-visible counts pass a private registry.
  std::shared_ptr<obs::Registry> metrics;

  /// Instance name for per-shard metric series. Empty (a standalone server)
  /// keeps the historical names serve.circuit_state / serve.circuit_trips;
  /// non-empty (the Router names each replica "replica<i>") appends
  /// ".<name>" so N breakers sharing one registry don't fight over a gauge.
  std::string name;

  /// Identity for replica-scoped fault injection (fault::ReplicaPlan). The
  /// Router sets it to the replica index; kNoDomain (-1, the default) makes
  /// the server immune to replica-scoped plans while still counting toward
  /// the process-wide fault script.
  int fault_domain = fault_domain_none();
  static constexpr int fault_domain_none() { return -1; }

  /// Completion sink: invoked once per *successfully* answered request
  /// (primary or degraded), on the worker thread, just before the request's
  /// callback runs. Failed requests (faults, deadlines, sheds, shutdown)
  /// are not reported — the sink sees exactly the results clients got.
  /// Called concurrently from every worker, so it must be thread-safe; keep
  /// it cheap (a queue push — see index::IndexIngestor::sink()), because it
  /// runs on the serving path. Exceptions it throws are swallowed: a broken
  /// sink must not convert a successful extraction into a failed request.
  std::function<void(const CompletionInfo&)> on_result;
};

class InferenceServer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Compiles the model's plan (or finds it in plan::PlanCache::global())
  /// and starts the worker pool: `workers` threads, which a fault does not
  /// end (see "In-place recovery" above). The extractor's model must be
  /// frozen (`model().set_training(false)`) — a model in training mode would
  /// run dropout, whose weight masks draw from the shared training Rng. Throws
  /// plan::TraceError when the model does not compile.
  InferenceServer(std::shared_ptr<const core::ScenarioExtractor> extractor,
                  ServerConfig config);

  /// Calls shutdown() if the server is still running.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueue one clip for extraction. Thread-safe. `done` (which must not
  /// throw) runs exactly once, with no server lock held and possibly before
  /// submit() returns, with the result (primary or, in degraded mode,
  /// fallback), or with std::invalid_argument if the clip's geometry is not
  /// the model's, or with the model's exception if inference failed, or
  /// with DeadlineExceededError if `deadline` passed before dispatch, or
  /// QueueFullError if this request was later shed, or ServerStoppedError
  /// if shutdown() discarded it — unless submit() throws QueueFullError
  /// (kReject, queue full) or ServerStoppedError (after drain()/shutdown()),
  /// which accepts nothing.
  void submit(sim::VideoClip clip, std::optional<Clock::time_point> deadline,
              DoneCallback done);
  /// The same, with a future in place of the callback.
  std::future<core::ExtractionResult> submit(
      sim::VideoClip clip,
      std::optional<Clock::time_point> deadline = std::nullopt);

  /// Convenience: deadline as a timeout from now.
  std::future<core::ExtractionResult> submit_within(
      sim::VideoClip clip, std::chrono::microseconds timeout) {
    return submit(std::move(clip), Clock::now() + timeout);
  }

  /// Stop intake, complete every accepted request, stop workers.
  void drain() TSDX_EXCLUDES(lifecycle_mutex_);

  /// Stop intake, fail queued requests with ServerStoppedError, finish
  /// in-flight batches, stop workers.
  void shutdown() TSDX_EXCLUDES(lifecycle_mutex_);

  /// Counter/gauge/histogram snapshot (thread-safe, callable live).
  ServerStats stats() const;

  /// The registry this server reports into (ServerConfig::metrics, else
  /// the process-wide obs::Registry::global()).
  obs::Registry& metrics_registry() const { return *registry_; }
  /// Prometheus text exposition of that registry — the response body a
  /// GET /metrics endpoint would serve.
  std::string metrics_text() const { return registry_->to_prometheus(); }
  /// JSON snapshot of the same registry (tools/trace_check.py schema).
  std::string metrics_json() const { return registry_->to_json(); }

  /// Live circuit-breaker state (kClosed when healthy).
  CircuitState circuit_state() const { return circuit_.state(); }

  const ServerConfig& config() const { return config_; }
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  struct Request {
    sim::VideoClip clip;
    /// Admission counter value (see CompletionInfo::sequence).
    std::uint64_t sequence = 0;
    DoneCallback done;
    std::chrono::steady_clock::time_point submit_time;
    std::optional<Clock::time_point> deadline;
    /// Trace context carried to the worker so the batch's spans
    /// (serve.batch -> plan.execute -> gemm.*) join the submitting
    /// request's trace. Minted at submit() — unless the submitting thread
    /// already runs under a trace (the Router's dispatch), which the server
    /// adopts so the routed hop and the replica hop share one trace ID.
    obs::trace::Context trace;
    /// The request's flight record, opened at submit(): milestones, batch
    /// and worker are plain field writes, and close_request() hands it to
    /// obs::Recorder::finish — the one source of this request's
    /// accounting.
    obs::Recorder::Record rec;
  };

  /// Per-worker execution state: the worker's PlanExecutor (its own arena,
  /// reserved for max_batch) over the server's shared plan and extractor.
  struct Replica {
    std::size_t worker_index = 0;
    plan::PlanExecutor executor;
  };

  Replica make_replica(std::size_t worker_index) const;

  void worker_loop(std::size_t worker_index);
  /// Assemble one micro-batch starting from `first` (max_batch / batch
  /// window, whichever first), scrubbing expired requests as it goes. May
  /// return an empty batch if everything it saw had expired.
  std::vector<Request> fill_batch(Request first);
  /// Dispatch a micro-batch through the replica (or the fallback when the
  /// circuit is open) and resolve every request. A plan run that throws
  /// fails the batch's unresolved requests with its exception and counts a
  /// worker fault; the exception goes no further, so the replica serves on.
  void process_batch(Replica& replica, std::vector<Request> requests);
  void process_degraded(std::vector<Request>& requests);
  /// If the request's deadline has passed, fail it with
  /// DeadlineExceededError and return true.
  bool expire_if_due(Request& request, Clock::time_point now);
  /// Deliver a successful result to ServerConfig::on_result (if set),
  /// swallowing any exception the sink throws.
  void notify_result(const Request& request,
                     const core::ExtractionResult& result, bool degraded);
  /// The one terminal path of every request that opened a record: records
  /// its serve.request span, closes the record through
  /// obs::Recorder::finish (which derives every serve.* outcome count,
  /// obs.e2e_ms and the SLO event), feeds the exact latency sample store
  /// from the e2e value finish returns, and releases the pending slot — all
  /// before the request resolves. A non-null `error` then resolves the
  /// request with it; without one the caller resolves it itself (or throws
  /// from submit() instead of accepting it).
  void close_request(Request& request, obs::Recorder::Outcome outcome,
                     std::exception_ptr error = nullptr)
      TSDX_EXCLUDES(pending_mutex_);
  void process_inline();  // workers == 0 path, used by drain()

  const std::shared_ptr<const core::ScenarioExtractor> extractor_;
  const ServerConfig config_;
  /// The model's compiled plan, shared by every worker and by every other
  /// server of the same model.
  std::shared_ptr<const plan::PolyPlan> plan_;
  const std::shared_ptr<obs::Registry> registry_;  // never null
  BoundedQueue<Request> queue_;
  StatsCollector stats_;
  CircuitBreaker circuit_;
  ThreadPool workers_;

  std::atomic<bool> accepting_{true};
  /// Mints Request::sequence at submit() (admission order).
  std::atomic<std::uint64_t> next_sequence_{0};

  /// Serializes drain()/shutdown(). Rank kServerLifecycle: the outermost
  /// lock of the server — teardown holds it while taking the queue and
  /// thread-pool locks below it; no request resolves under it (§12).
  Mutex lifecycle_mutex_{"serve.lifecycle",
                         lockorder::Rank::kServerLifecycle};
  bool stopped_ TSDX_GUARDED_BY(lifecycle_mutex_) = false;

  // Accepted-but-unresolved request count; drain() waits for it to hit 0.
  Mutex pending_mutex_{"serve.pending", lockorder::Rank::kServerPending};
  CondVar pending_cv_;
  std::size_t pending_ TSDX_GUARDED_BY(pending_mutex_) = 0;
};

}  // namespace tsdx::serve
