// recorder.hpp — tsdx::obs flight recorder: an always-on ring of structured
// per-request records keyed by the span-tracing trace ID.
//
// Spans (trace.hpp) answer "where did time go inside this process" but are
// sampled and name-oriented; aggregate metrics (metrics.hpp) answer "how is
// the fleet doing" but forget individual requests. The recorder fills the
// gap between them: for the last kRingCapacity requests it keeps *one record
// each* carrying the request's full serving story — admission verdict,
// queue-wait, batch id/size, worker, replica, retry/failover counts and a
// per-segment timestamp timeline —
// cheap enough to leave on even with tracing off (TSDX_TRACE=off mints
// trace id 0; the record is still written, it just cannot be joined against
// spans).
//
// The request owns its record (DESIGN.md §17): begin() hands back a Record
// by value, the serving layer writes milestones, batch, worker, replica and
// retries into it as plain field writes, and finish() is the one terminal
// sink per hop. begin() publishes the record's begin-time fields to the ring
// so in-flight requests show up in dumps; finish() publishes the closed
// record unless its slot has been lapped (the ring is a diagnostic buffer,
// not a ledger) and *always* derives the hop's accounting from it, so a
// lapped ring can never lose a count. A record with id 0 (never begun) is
// inert: finish() ignores it.
//
// Segment model: each record carries nanosecond timestamps (relative to the
// recorder's construction) for submit / enqueue / dispatch (picked out of
// the queue into a batch) / execute (batch extraction began) / done, plus
// accumulated retry backoff for router-level records. finish() derives the
// named segments —
//
//   admission   = enqueue  - submit     (submit-side checks + queue push)
//   queue       = dispatch - enqueue    (waiting in the bounded queue)
//   batch_wait  = execute  - dispatch   (batch window fill + scrub + setup)
//   execute     = done     - execute    (extractor / plan / fallback)
//   retry_backoff                        (router backoff sleeps, accumulated)
//
// — and observes them into obs.segment_ms.* histograms (with the record's
// trace ID as the exemplar) plus obs.e2e_ms for the total, so
// admission + queue + batch_wait + execute == e2e by construction; the
// attribution gate in tools/obs_report.py holds the residue under 5%.
// Server records with terminal outcomes completed/degraded/failed feed the
// histograms; expired/shed/rejected/cancelled records keep their timeline
// for dumps but never reached a worker's answer, so they stay out.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "obs/metrics.hpp"

namespace tsdx::obs {

class SloEngine;

class Recorder {
 public:
  /// Which hop of the serving stack wrote the record. A routed request has
  /// two records under one trace ID: the router's (admission, retries,
  /// backoff) and the replica server's (queue, batch, execute).
  enum class Kind : std::uint8_t { kServer, kRouter };

  /// Terminal state of the request. kInFlight is the initial value; finish()
  /// is the only writer of the others.
  enum class Outcome : std::uint8_t {
    kInFlight,
    kCompleted,
    kDegraded,
    kFailed,
    kDeadlineExpired,
    kShed,
    kRejected,
    kCancelled,
  };

  /// One request's flight record. POD-ish by design: snapshot() copies the
  /// ring wholesale.
  struct Record {
    std::uint64_t id = 0;  ///< dense, from begin(); 0 = never begun
    std::uint64_t trace_id = 0;
    Kind kind = Kind::kServer;
    Outcome outcome = Outcome::kInFlight;
    const char* admission = nullptr;  ///< static verdict string, router only
    std::uint64_t batch_id = 0;       ///< 0 = never batched
    std::uint32_t batch_size = 0;
    std::int32_t worker = -1;
    std::int32_t replica = -1;
    std::uint32_t attempts = 0;   ///< retries dispatched (router)
    std::uint32_t failovers = 0;  ///< retries that changed replica
    // Timeline: ns since the recorder's epoch; 0 = milestone not reached.
    std::int64_t submit_ns = 0;
    std::int64_t enqueue_ns = 0;
    std::int64_t dispatch_ns = 0;
    std::int64_t execute_ns = 0;
    std::int64_t done_ns = 0;
    std::int64_t backoff_ns = 0;  ///< accumulated retry backoff (router)
  };

  /// Records retained before the ring laps. Power of two so slot selection
  /// is a mask.
  static constexpr std::size_t kRingCapacity = 4096;

  Recorder();

  /// The process-wide recorder every serving layer reports into.
  static Recorder& global();

  /// The registry series a server hop's closed records derive into, bound
  /// once so finish() does no per-request name lookups. ServerStats reads
  /// its outcome fields back off the same counters.
  struct ServerAccounts {
    /// `slo` receives the records' SLO events; null means
    /// SloEngine::global().
    explicit ServerAccounts(Registry& registry, SloEngine* slo = nullptr);
    Counter& completed;         ///< serve.completed (degraded included)
    Counter& degraded;          ///< serve.degraded_completions
    Counter& failed;            ///< serve.failed
    Counter& deadline_expired;  ///< serve.deadline_expired
    Counter& shed;              ///< serve.shed
    Counter& cancelled;         ///< serve.cancelled
    Counter& rejected;          ///< serve.rejected
    Histogram& e2e;             ///< obs.e2e_ms
    Histogram& admission;       ///< obs.segment_ms.admission
    Histogram& queue;           ///< obs.segment_ms.queue
    Histogram& batch_wait;      ///< obs.segment_ms.batch_wait
    Histogram& execute;         ///< obs.segment_ms.execute
    SloEngine& slo;
  };

  /// The router hop's series, bound once like ServerAccounts; RouterStats
  /// reads them back.
  struct RouterAccounts {
    explicit RouterAccounts(Registry& registry);
    Counter& completed;  ///< route.completed (degraded included)
    Counter& degraded;   ///< route.degraded
    Counter& failed;     ///< route.failed (expired and cancelled included)
    Counter& retries;    ///< route.retries: Record::attempts summed
    Counter& failovers;  ///< route.failovers: Record::failovers summed
    Histogram& retry_backoff;  ///< obs.segment_ms.retry_backoff
  };

  /// Open a record (id never 0; the milestone clock starts here, at
  /// submit_ns) and publish its begin-time fields to the ring.
  Record begin(Kind kind, std::uint64_t trace_id) TSDX_EXCLUDES(mutex_);

  /// Close a server record: stamps outcome and done_ns, publishes it unless
  /// lapped, then derives serve.<outcome> counters, the segment timeline and
  /// obs.e2e_ms (trace ID as the bucket exemplar), and the SLO event — good
  /// iff completed/degraded within the objective; failed and
  /// deadline-expired are bad; shed/cancelled/rejected send none. Returns
  /// the e2e milliseconds when the record fed obs.e2e_ms.
  std::optional<double> finish(Record& record, Outcome outcome,
                               const ServerAccounts& accounts)
      TSDX_EXCLUDES(mutex_);
  /// Close a router record the same way, deriving route.* counters (expired
  /// and cancelled count as failed; rejected is admission's to count) and
  /// obs.segment_ms.retry_backoff when any backoff accumulated.
  void finish(Record& record, Outcome outcome, const RouterAccounts& accounts)
      TSDX_EXCLUDES(mutex_);

  /// Process-unique batch id (dense, starts at 1) for Record::batch_id.
  std::uint64_t mint_batch_id() {
    return next_batch_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Copy of every live record, oldest first.
  std::vector<Record> snapshot() const TSDX_EXCLUDES(mutex_);
  /// {"records": [...]} — the schema tools/trace_check.py --recorder/--dump
  /// validates.
  std::string to_json() const TSDX_EXCLUDES(mutex_);
  /// Drop all records (tests; the ring otherwise never resets).
  void clear() TSDX_EXCLUDES(mutex_);

  /// Nanoseconds since the recorder's epoch, the record timeline's unit.
  std::int64_t now_ns() const;

 private:
  /// Stamp the terminal fields and publish the record unless the ring has
  /// lapped its slot. False for the inert record (id 0).
  bool close(Record& record, Outcome outcome) TSDX_EXCLUDES(mutex_);

  mutable Mutex mutex_{"obs.recorder", lockorder::Rank::kRecorder};
  std::vector<Record> records_ TSDX_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_batch_id_{0};
  const std::chrono::steady_clock::time_point epoch_;
};

const char* to_string(Recorder::Kind kind);
const char* to_string(Recorder::Outcome outcome);

/// Serialize a record list as a JSON array (no wrapper object); shared by
/// Recorder::to_json and the SLO engine's anomaly dumps so
/// tools/trace_check.py validates one record shape.
std::string records_json_array(const std::vector<Recorder::Record>& records);

}  // namespace tsdx::obs
