#include "obs/recorder.hpp"

#include <sstream>

#include "core/check.hpp"
#include "obs/slo.hpp"

namespace tsdx::obs {

namespace {

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

const char* to_string(Recorder::Kind kind) {
  switch (kind) {
    case Recorder::Kind::kServer: return "server";
    case Recorder::Kind::kRouter: return "router";
  }
  return "?";
}

const char* to_string(Recorder::Outcome outcome) {
  switch (outcome) {
    case Recorder::Outcome::kInFlight: return "in_flight";
    case Recorder::Outcome::kCompleted: return "completed";
    case Recorder::Outcome::kDegraded: return "degraded";
    case Recorder::Outcome::kFailed: return "failed";
    case Recorder::Outcome::kDeadlineExpired: return "deadline_expired";
    case Recorder::Outcome::kShed: return "shed";
    case Recorder::Outcome::kRejected: return "rejected";
    case Recorder::Outcome::kCancelled: return "cancelled";
  }
  return "?";
}

Recorder::Recorder()
    : records_(kRingCapacity), epoch_(std::chrono::steady_clock::now()) {}

Recorder& Recorder::global() {
  static Recorder recorder;
  return recorder;
}

std::int64_t Recorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Recorder::ServerAccounts::ServerAccounts(Registry& registry, SloEngine* slo)
    : completed(registry.counter("serve.completed")),
      degraded(registry.counter("serve.degraded_completions")),
      failed(registry.counter("serve.failed")),
      deadline_expired(registry.counter("serve.deadline_expired")),
      shed(registry.counter("serve.shed")),
      cancelled(registry.counter("serve.cancelled")),
      rejected(registry.counter("serve.rejected")),
      e2e(registry.histogram("obs.e2e_ms")),
      admission(registry.histogram("obs.segment_ms.admission")),
      queue(registry.histogram("obs.segment_ms.queue")),
      batch_wait(registry.histogram("obs.segment_ms.batch_wait")),
      execute(registry.histogram("obs.segment_ms.execute")),
      slo(slo != nullptr ? *slo : SloEngine::global()) {}

Recorder::RouterAccounts::RouterAccounts(Registry& registry)
    : completed(registry.counter("route.completed")),
      degraded(registry.counter("route.degraded")),
      failed(registry.counter("route.failed")),
      retries(registry.counter("route.retries")),
      failovers(registry.counter("route.failovers")),
      retry_backoff(registry.histogram("obs.segment_ms.retry_backoff")) {}

Recorder::Record Recorder::begin(Kind kind, std::uint64_t trace_id) {
  Record record;
  record.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.kind = kind;
  record.trace_id = trace_id;
  record.submit_ns = now_ns();
  LockGuard lock(mutex_);
  records_[record.id & (kRingCapacity - 1)] = record;
  return record;
}

bool Recorder::close(Record& record, Outcome outcome) {
  if (record.id == 0) return false;
  record.outcome = outcome;
  record.done_ns = now_ns();
  LockGuard lock(mutex_);
  Record& slot = records_[record.id & (kRingCapacity - 1)];
  // A lapped slot now belongs to a younger record: leave it be.
  if (slot.id == record.id) slot = record;
  return true;
}

std::optional<double> Recorder::finish(Record& record, Outcome outcome,
                                       const ServerAccounts& accounts) {
  TSDX_CHECK(record.kind == Kind::kServer,
             "Recorder::finish: router record closed with server accounts");
  if (!close(record, outcome)) return std::nullopt;
  // Derived from the record alone, after the ring lock is released: obs.slo
  // ranks below obs.recorder.
  switch (outcome) {
    case Outcome::kInFlight: return std::nullopt;
    case Outcome::kDeadlineExpired:
      accounts.deadline_expired.inc();
      // An expired request never got an answer, whatever its latency.
      accounts.slo.on_event(/*ok=*/false, /*latency_ms=*/0.0);
      return std::nullopt;
    case Outcome::kShed: accounts.shed.inc(); return std::nullopt;
    case Outcome::kCancelled: accounts.cancelled.inc(); return std::nullopt;
    case Outcome::kRejected: accounts.rejected.inc(); return std::nullopt;
    case Outcome::kCompleted: accounts.completed.inc(); break;
    case Outcome::kDegraded:
      accounts.completed.inc();
      accounts.degraded.inc();
      break;
    case Outcome::kFailed: accounts.failed.inc(); break;
  }
  // Segment derivation: a milestone the request never reached contributes a
  // zero-length segment so the per-segment counts stay equal and the sums
  // still add up to e2e.
  const std::int64_t enqueue =
      record.enqueue_ns != 0 ? record.enqueue_ns : record.submit_ns;
  const std::int64_t dispatch =
      record.dispatch_ns != 0 ? record.dispatch_ns : enqueue;
  const std::int64_t execute =
      record.execute_ns != 0 ? record.execute_ns : dispatch;
  const std::uint64_t ex = record.trace_id;
  const double e2e_ms = ns_to_ms(record.done_ns - record.submit_ns);
  accounts.admission.observe(ns_to_ms(enqueue - record.submit_ns), ex);
  accounts.queue.observe(ns_to_ms(dispatch - enqueue), ex);
  accounts.batch_wait.observe(ns_to_ms(execute - dispatch), ex);
  accounts.execute.observe(ns_to_ms(record.done_ns - execute), ex);
  accounts.e2e.observe(e2e_ms, ex);
  // Failures burn budget; so does a completion slower than the objective
  // (the engine applies the threshold).
  accounts.slo.on_event(outcome != Outcome::kFailed, e2e_ms);
  return e2e_ms;
}

void Recorder::finish(Record& record, Outcome outcome,
                      const RouterAccounts& accounts) {
  TSDX_CHECK(record.kind == Kind::kRouter,
             "Recorder::finish: server record closed with router accounts");
  if (!close(record, outcome)) return;
  switch (outcome) {
    case Outcome::kCompleted: accounts.completed.inc(); break;
    case Outcome::kDegraded:
      accounts.completed.inc();
      accounts.degraded.inc();
      break;
    case Outcome::kFailed:
    case Outcome::kDeadlineExpired:
    case Outcome::kCancelled: accounts.failed.inc(); break;
    case Outcome::kInFlight:
    case Outcome::kShed:
    case Outcome::kRejected: break;
  }
  accounts.retries.inc(record.attempts);
  accounts.failovers.inc(record.failovers);
  if (record.backoff_ns > 0) {
    accounts.retry_backoff.observe(ns_to_ms(record.backoff_ns),
                                   record.trace_id);
  }
}

std::vector<Recorder::Record> Recorder::snapshot() const {
  std::vector<Record> out;
  LockGuard lock(mutex_);
  const std::uint64_t newest = next_id_.load(std::memory_order_relaxed);
  out.reserve(records_.size());
  // Oldest live id is newest - capacity + 1 (clamped to 1): walk ids in
  // order so the copy comes out oldest-first regardless of ring position.
  const std::uint64_t oldest =
      newest > kRingCapacity ? newest - kRingCapacity + 1 : 1;
  for (std::uint64_t id = oldest; id <= newest; ++id) {
    const Record& record = records_[id & (kRingCapacity - 1)];
    if (record.id == id) out.push_back(record);
  }
  return out;
}

void Recorder::clear() {
  LockGuard lock(mutex_);
  for (Record& record : records_) record = Record{};
}

namespace {

void append_record_json(std::ostringstream& os, const Recorder::Record& r) {
  os << "{\"id\": " << r.id << ", \"trace_id\": " << r.trace_id
     << ", \"kind\": \"" << to_string(r.kind) << "\", \"outcome\": \""
     << to_string(r.outcome) << "\"";
  if (r.admission != nullptr) os << ", \"admission\": \"" << r.admission
                                 << "\"";
  os << ", \"batch_id\": " << r.batch_id << ", \"batch_size\": "
     << r.batch_size << ", \"worker\": " << r.worker << ", \"replica\": "
     << r.replica << ", \"attempts\": " << r.attempts << ", \"failovers\": "
     << r.failovers << ", \"submit_ns\": " << r.submit_ns
     << ", \"enqueue_ns\": " << r.enqueue_ns << ", \"dispatch_ns\": "
     << r.dispatch_ns << ", \"execute_ns\": " << r.execute_ns
     << ", \"done_ns\": " << r.done_ns << ", \"backoff_ns\": " << r.backoff_ns
     << "}";
}

}  // namespace

std::string records_json_array(const std::vector<Recorder::Record>& records) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    os << (i == 0 ? "\n  " : ",\n  ");
    append_record_json(os, records[i]);
  }
  os << "\n]";
  return os.str();
}

std::string Recorder::to_json() const {
  return "{\"records\": " + records_json_array(snapshot()) + "}\n";
}

}  // namespace tsdx::obs
