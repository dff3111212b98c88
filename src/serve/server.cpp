#include "serve/server.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/check.hpp"
#include "obs/slo.hpp"
#include "serve/fault/inject.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/shape.hpp"

namespace tsdx::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Stack clips into one [B, T, C, H, W] batch tensor. Clip storage is
/// already [T, C, H, W] row-major and submit() admitted only clips of the
/// model's geometry, so stacking is concatenation.
nn::Tensor stack_clips(const std::vector<const sim::VideoClip*>& clips) {
  const sim::VideoClip& head = *clips.front();
  std::vector<float> stacked;
  stacked.reserve(head.data.size() * clips.size());
  for (const sim::VideoClip* clip : clips) {
    stacked.insert(stacked.end(), clip->data.begin(), clip->data.end());
  }
  return nn::Tensor::from_vector(
      {static_cast<std::int64_t>(clips.size()), head.frames, sim::kNumChannels,
       head.height, head.width},
      std::move(stacked));
}

}  // namespace

InferenceServer::InferenceServer(
    std::shared_ptr<const core::ScenarioExtractor> extractor,
    ServerConfig config)
    : extractor_(std::move(extractor)),
      config_(std::move(config)),
      // Aliasing shared_ptr: global() is a process-lifetime static, so a
      // non-owning handle is safe and keeps the two cases uniform.
      registry_(config_.metrics != nullptr
                    ? config_.metrics
                    : std::shared_ptr<obs::Registry>(
                          std::shared_ptr<void>(), &obs::Registry::global())),
      queue_(config_.queue_capacity, config_.overflow),
      stats_(*registry_, config_.queue_capacity, config_.max_batch),
      // Per-shard series when the server is named (Router replicas), the
      // historical flat names otherwise — see ServerConfig::name.
      circuit_(config_.circuit, config_.fallback != nullptr,
               &registry_->gauge(config_.name.empty()
                                     ? "serve.circuit_state"
                                     : "serve.circuit_state." + config_.name),
               &registry_->counter(
                   config_.name.empty()
                       ? "serve.circuit_trips"
                       : "serve.circuit_trips." + config_.name)) {
  TSDX_CHECK(extractor_ != nullptr, "InferenceServer: extractor is null");
  TSDX_CHECK(config_.max_batch >= 1,
             "InferenceServer: max_batch must be >= 1, got ",
             config_.max_batch);
  TSDX_CHECK(!extractor_->model().training(),
             "InferenceServer: model is in training mode; freeze it with "
             "model().set_training(false) before serving (training-mode "
             "dropout draws from the shared Rng and is not thread-safe)");
  // Compile before any thread starts: a model that does not compile fails
  // here, and every worker finds its plan ready.
  plan_ = plan::PlanCache::global().get_or_compile(extractor_->model());
  if (config_.workers > 0) {
    // Budget the intra-op pool so inter-op workers share the machine instead
    // of each assuming they own it. TSDX_NUM_THREADS (an explicit user
    // choice) takes precedence over both the config field and the default.
    if (!par::env_override()) {
      std::size_t budget = config_.intra_op_threads;
      if (budget == 0) {
        const std::size_t cores =
            std::max<std::size_t>(1, std::thread::hardware_concurrency());
        budget = std::max<std::size_t>(1, cores / config_.workers);
      }
      par::set_threads(budget);
    }
    workers_.spawn(config_.workers,
                   [this](std::size_t index) { worker_loop(index); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

std::future<core::ExtractionResult> InferenceServer::submit(
    sim::VideoClip clip, std::optional<Clock::time_point> deadline) {
  auto promise = std::make_shared<std::promise<core::ExtractionResult>>();
  submit(std::move(clip), deadline,
         [promise](core::ExtractionResult result, std::exception_ptr error) {
           if (error != nullptr) return promise->set_exception(error);
           promise->set_value(std::move(result));
         });
  return promise->get_future();
}

void InferenceServer::submit(sim::VideoClip clip,
                             std::optional<Clock::time_point> deadline,
                             DoneCallback done) {
  if (!accepting_.load(std::memory_order_acquire)) {
    throw ServerStoppedError("submit after drain()/shutdown()");
  }
  Request request;
  request.clip = std::move(clip);
  request.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  // One trace ID per request. Minted at the boundary — unless the submitting
  // thread already carries a context (the Router's dispatch runs under the
  // ticket's trace): adopting it stitches the router hop and this server hop
  // into one trace. The context rides in the Request so the worker that
  // dispatches it can adopt it; the guard scopes it to this call so the
  // client thread's serve.submit span (and any inline processing under
  // drain()) records under it too.
  const obs::trace::Context ambient = obs::trace::current();
  request.trace = ambient.trace_id != 0 ? ambient : obs::trace::mint();
  request.rec = obs::Recorder::global().begin(obs::Recorder::Kind::kServer,
                                              request.trace.trace_id);
  obs::trace::ContextGuard trace_guard(request.trace);
  TSDX_TRACE_SPAN("serve.submit");
  request.submit_time = Clock::now();
  request.deadline = deadline;
  request.done = std::move(done);
  {
    LockGuard lock(pending_mutex_);
    ++pending_;
  }

  // A clip of the wrong geometry fails alone, here: it never reaches a
  // batch, so it cannot fail the clips batched with it or fault a worker.
  const tensor::Shape& clip_shape = plan_->clip_shape();
  if (request.clip.frames != clip_shape[0] ||
      sim::kNumChannels != clip_shape[1] ||
      request.clip.height != clip_shape[2] ||
      request.clip.width != clip_shape[3] ||
      static_cast<std::int64_t>(request.clip.data.size()) !=
          tensor::numel(clip_shape)) {
    stats_.on_submit(queue_.size());
    close_request(
        request, obs::Recorder::Outcome::kFailed,
        std::make_exception_ptr(std::invalid_argument(
            "InferenceServer: clip [" + std::to_string(request.clip.frames) +
            ", " + std::to_string(request.clip.height) + "x" +
            std::to_string(request.clip.width) + ", " +
            std::to_string(request.clip.data.size()) +
            " values] does not match the model's clip geometry " +
            tensor::to_string(clip_shape))));
    return;
  }

  // A deadline already in the past fails fast: the request is accounted for
  // (submitted + deadline_expired) but never reaches the queue, so it
  // cannot displace live work.
  if (deadline && *deadline <= request.submit_time) {
    stats_.on_submit(queue_.size());
    close_request(request, obs::Recorder::Outcome::kDeadlineExpired,
                  std::make_exception_ptr(DeadlineExceededError(
                      "deadline already expired at submit()")));
    obs::SloEngine::global().note_anomaly(obs::Anomaly::kDeadlineMiss,
                                          request.trace.trace_id);
    return;
  }

  std::optional<Request> shed;
  try {
    shed = queue_.push(std::move(request), [](Request& queued) {
      queued.rec.enqueue_ns = obs::Recorder::global().now_ns();
    });
  } catch (...) {
    // QueueFullError (kReject), or ServerStoppedError to a kBlock push
    // parked on a full queue that shutdown() woke. Either way the client
    // gets this throw instead of a callback, and the push left the request
    // with us: it counts as rejected.
    close_request(request, obs::Recorder::Outcome::kRejected);
    throw;
  }
  const std::size_t depth = queue_.size();
  stats_.on_submit(depth);
  circuit_.on_queue_depth(depth, config_.queue_capacity, Clock::now());

  if (shed) {
    close_request(*shed, obs::Recorder::Outcome::kShed,
                  std::make_exception_ptr(QueueFullError(
                      "request shed by a newer submission "
                      "(OverflowPolicy::kShedOldest)")));
  }
}

InferenceServer::Replica InferenceServer::make_replica(
    std::size_t worker_index) const {
  return Replica{worker_index,
                 plan::PlanExecutor(extractor_, plan_, config_.max_batch)};
}

void InferenceServer::worker_loop(std::size_t worker_index) {
  Replica replica = make_replica(worker_index);
  while (std::optional<Request> first = queue_.pop()) {
    process_batch(replica, fill_batch(std::move(*first)));
  }
}

std::vector<InferenceServer::Request> InferenceServer::fill_batch(
    Request first) {
  std::vector<Request> batch;
  batch.reserve(config_.max_batch);
  std::optional<Request> next(std::move(first));
  do {
    // Scrub expired requests here, as they are taken: a request whose
    // deadline has passed is failed immediately and never takes a slot a
    // live request could use. Nothing waits between here and the plan run.
    if (expire_if_due(*next, Clock::now())) continue;
    next->rec.dispatch_ns = obs::Recorder::global().now_ns();
    batch.push_back(std::move(*next));
  } while (batch.size() < config_.max_batch && (next = queue_.try_pop()));
  return batch;
}

void InferenceServer::process_batch(Replica& replica,
                                    std::vector<Request> requests) {
  if (requests.empty()) return;
  const auto now = Clock::now();

  // Adopt the oldest request's trace for the whole dispatch: every span
  // below (serve.batch -> plan.execute -> gemm.*, including
  // tsdx::par workers) joins that request's trace. Per-request queue waits
  // are recorded with explicit endpoints under each request's own context.
  obs::trace::ContextGuard trace_guard(requests.front().trace);
  TSDX_TRACE_SPAN("serve.batch");
  for (const Request& request : requests) {
    obs::trace::record_span("serve.queue_wait", request.trace,
                            request.submit_time, now);
  }

  if (circuit_.route(now) == CircuitBreaker::Route::kDegraded) {
    process_degraded(requests);
    return;
  }

  stats_.on_batch(requests.size());
  // Flight-record the execution start: one batch id per plan run.
  obs::Recorder& recorder = obs::Recorder::global();
  const std::uint64_t batch_id = recorder.mint_batch_id();
  const std::int64_t execute_ns = recorder.now_ns();
  for (Request& request : requests) {
    obs::Recorder::Record& rec = request.rec;
    rec.execute_ns = execute_ns;
    rec.batch_id = batch_id;
    rec.batch_size = static_cast<std::uint32_t>(requests.size());
    rec.worker = static_cast<std::int32_t>(replica.worker_index);
  }
  std::size_t resolved = 0;
  try {
    std::vector<const sim::VideoClip*> clips;
    clips.reserve(requests.size());
    for (const Request& request : requests) clips.push_back(&request.clip);
    data::Batch batch;
    batch.video = stack_clips(clips);
    fault::Injector::instance().on_extract_batch(config_.fault_domain);
    std::vector<core::ExtractionResult> results =
        replica.executor.extract_batch(batch);
    TSDX_CHECK(results.size() == requests.size(),
               "InferenceServer: the plan returned ", results.size(),
               " results for a batch of ", requests.size());
    // Accounting before resolution, here and in the catch below: a client
    // that has observed its request's outcome must also observe the
    // matching counters and circuit state (updates sequenced before the
    // callback are visible to whoever it hands the outcome to).
    circuit_.on_success();
    for (; resolved < requests.size(); ++resolved) {
      Request& request = requests[resolved];
      notify_result(request, results[resolved], /*degraded=*/false);
      close_request(request, obs::Recorder::Outcome::kCompleted);
      request.done(std::move(results[resolved]), nullptr);
    }
  } catch (...) {
    // Worker fault: every request still in flight on this worker fails with
    // the captured exception, and the worker serves on with the same
    // executor — its arena is scratch that every plan run writes before it
    // reads, so a run cut short leaves nothing the next run depends on.
    const std::exception_ptr error = std::current_exception();
    stats_.on_worker_fault();
    circuit_.on_fault(Clock::now());
    for (std::size_t i = resolved; i < requests.size(); ++i) {
      close_request(requests[i], obs::Recorder::Outcome::kFailed, error);
    }
  }
}

void InferenceServer::process_degraded(std::vector<Request>& requests) {
  // The circuit only routes here when a fallback is configured.
  for (Request& request : requests) {
    try {
      core::ExtractionResult result = config_.fallback->extract(request.clip);
      // Accounting before resolution (same visibility contract as
      // process_batch): a client that got a degraded answer can rely on
      // degraded_completions already counting it.
      notify_result(request, result, /*degraded=*/true);
      close_request(request, obs::Recorder::Outcome::kDegraded);
      request.done(std::move(result), nullptr);
    } catch (...) {
      // A fallback error fails only this request — degraded mode must not
      // take down the worker that is keeping the service answering.
      close_request(request, obs::Recorder::Outcome::kFailed,
                    std::current_exception());
    }
  }
}

bool InferenceServer::expire_if_due(Request& request, Clock::time_point now) {
  if (!request.deadline || now < *request.deadline) return false;
  close_request(request, obs::Recorder::Outcome::kDeadlineExpired,
                std::make_exception_ptr(DeadlineExceededError(
                    "request deadline expired before dispatch")));
  // A missed deadline is the SLO engine's flagship anomaly: snapshot the
  // recorder + span state while the evidence is still in the rings.
  obs::SloEngine::global().note_anomaly(obs::Anomaly::kDeadlineMiss,
                                        request.trace.trace_id);
  return true;
}

void InferenceServer::notify_result(const Request& request,
                                    const core::ExtractionResult& result,
                                    bool degraded) {
  if (!config_.on_result) return;
  try {
    config_.on_result(CompletionInfo{request.sequence, result, degraded});
  } catch (...) {
    // The sink's contract (ServerConfig::on_result): a throwing sink is a
    // consumer bug, not a serving failure — the client still gets its
    // successfully extracted result.
  }
}

void InferenceServer::close_request(Request& request,
                                    obs::Recorder::Outcome outcome,
                                    std::exception_ptr error) {
  obs::trace::record_span("serve.request", request.trace, request.submit_time,
                          Clock::now());
  if (const std::optional<double> e2e_ms = obs::Recorder::global().finish(
          request.rec, outcome, stats_.accounts())) {
    stats_.on_latency(*e2e_ms);
  }
  {
    LockGuard lock(pending_mutex_);
    --pending_;
  }
  pending_cv_.notify_all();
  if (error != nullptr) request.done({}, std::move(error));
}

void InferenceServer::process_inline() {
  Replica replica = make_replica(/*worker_index=*/0);
  while (std::optional<Request> first = queue_.try_pop()) {
    process_batch(replica, fill_batch(std::move(*first)));
  }
}

void InferenceServer::drain() {
  // Stop intake and finish the accepted requests before taking the
  // lifecycle lock: no request resolves under it (DESIGN.md §12).
  accepting_.store(false, std::memory_order_release);
  if (config_.workers == 0) {
    // No worker threads: consume on this thread until every accepted
    // request (including any being delivered by a producer blocked in a
    // kBlock push) has been resolved.
    while (true) {
      process_inline();
      UniqueLock lock(pending_mutex_);
      if (pending_ == 0) break;
      pending_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  } else {
    // Workers (which serve on past a fault) finish every accepted request
    // before we tear anything down.
    UniqueLock lock(pending_mutex_);
    while (pending_ != 0) {
      pending_cv_.wait(lock);
    }
  }
  LockGuard lifecycle(lifecycle_mutex_);
  if (stopped_) return;
  queue_.close();
  workers_.join();
  stopped_ = true;
}

void InferenceServer::shutdown() {
  std::vector<Request> leftover;
  {
    LockGuard lifecycle(lifecycle_mutex_);
    if (stopped_) return;
    accepting_.store(false, std::memory_order_release);
    leftover = queue_.close_and_drain();
    // Workers finish their in-flight batch, see the closed-and-empty
    // queue, and exit; join() then waits for exactly that.
    workers_.join();
    stopped_ = true;
  }
  // The leftovers resolve after the lifecycle lock is released.
  const std::exception_ptr stopped = std::make_exception_ptr(
      ServerStoppedError("server shut down before the request was dispatched"));
  for (Request& request : leftover) {
    close_request(request, obs::Recorder::Outcome::kCancelled, stopped);
  }
}

ServerStats InferenceServer::stats() const {
  return stats_.snapshot(queue_.size(), circuit_.state(), circuit_.trips());
}

}  // namespace tsdx::serve
