// stats.hpp — observability surface of the serving runtime.
//
// A serving-side view over the tsdx::obs registry (DESIGN.md §11):
//
//   * percentile() / LatencyHistogram — aliases of the obs originals, shared
//     with the bench harness (bench_common.hpp) so every latency column in
//     the repo is computed identically.
//   * ServerStats — immutable snapshot of one server's counters, queue
//     gauge, batch-size distribution and end-to-end latency distribution,
//     plus a bench-table printer.
//   * StatsCollector — the live state behind InferenceServer::stats(). It
//     counts nothing a request's flight record knows: every outcome counter
//     (completed, failed, expired, shed, cancelled, rejected, degraded) is
//     derived by obs::Recorder::finish from the closed record, into the
//     ServerAccounts the collector binds once. The collector itself keeps
//     only what no single record carries — serve.submitted, worker faults,
//     the queue-depth gauges and the batch-size distribution — and reads
//     each counter's value at construction so ServerStats stays
//     "cumulative since construction" even when several servers share the
//     process-wide Registry::global(). Exact latency samples (fed from the
//     e2e value finish() returns) and the exact per-size batch histogram
//     stay mutex-guarded here — fixed registry buckets cannot carry them.
//
// Consistency note: counter bumps are relaxed atomics and the exact sample
// store is mutex-guarded, so a snapshot taken *while workers are mid-flight*
// may see a counter increment whose latency sample hasn't landed yet (or
// vice versa). Quiescent snapshots — after drain()/shutdown(), which is when
// the tests and bench tables read them — are exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "serve/circuit.hpp"

namespace tsdx::serve {

/// Shared implementations (see obs/metrics.hpp for the edge-case contract).
using obs::percentile;
using LatencyHistogram = obs::LatencyHistogram;

/// Point-in-time snapshot of a server's observable state. All counters are
/// cumulative since construction.
struct ServerStats {
  // Request counters (submitted == completed + failed + deadline_expired +
  // shed + cancelled + still-pending at snapshot time; degraded_completions
  // is a subset of completed).
  std::uint64_t submitted = 0;   ///< accepted by submit()
  std::uint64_t completed = 0;   ///< result delivered through the future
  std::uint64_t failed = 0;      ///< model error delivered through the future
  /// submit() threw after opening a record: QueueFullError (kReject), or
  /// ServerStoppedError to a producer parked in a kBlock push that
  /// shutdown() woke.
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;        ///< evicted by kShedOldest
  std::uint64_t cancelled = 0;   ///< discarded by shutdown()

  // Fault-tolerance counters (see DESIGN.md §9).
  std::uint64_t worker_faults = 0;        ///< batches thrown out of a worker
  std::uint64_t deadline_expired = 0;     ///< DeadlineExceededError futures
  std::uint64_t degraded_completions = 0; ///< answered by the fallback
  std::uint64_t circuit_trips = 0;        ///< transitions into OPEN
  CircuitState circuit_state = CircuitState::kClosed;  ///< at snapshot time

  // Queue-depth gauge.
  std::size_t queue_depth = 0;      ///< at snapshot time
  std::size_t queue_depth_max = 0;  ///< high-water mark
  std::size_t queue_capacity = 0;

  // Micro-batching behaviour: batch_size_counts[s] = number of dispatched
  // model batches of size s (index 0 unused).
  std::vector<std::uint64_t> batch_size_counts;
  std::uint64_t batches() const;
  double mean_batch_size() const;

  // End-to-end request latency (submit() -> future ready), milliseconds.
  LatencyHistogram latency;

  /// One bench-table row: counters, mean batch, p50/p95/p99. `label` names
  /// the configuration (e.g. "workers=4 window=2ms").
  std::string table_row(const std::string& label) const;
  /// Header matching table_row's columns.
  static std::string table_header();

  /// One-line fault-tolerance summary: worker faults, expired deadlines,
  /// degraded completions, circuit state/trips. Printed by bench_s1_serving
  /// and bench_r1_degradation alongside the throughput tables.
  std::string fault_summary() const;
};

/// Thread-safe state behind InferenceServer::stats(), reporting into
/// `registry` under the serve.* namespace: counter serve.submitted /
/// serve.worker_faults, gauges serve.queue_depth[_max], histogram
/// serve.batch_size, plus the outcome series of accounts() (DESIGN.md §11).
class StatsCollector {
 public:
  StatsCollector(obs::Registry& registry, std::size_t queue_capacity,
                 std::size_t max_batch);

  /// The series obs::Recorder::finish derives this server's records into.
  const obs::Recorder::ServerAccounts& accounts() const { return accounts_; }

  void on_submit(std::size_t queue_depth_after) TSDX_EXCLUDES(mutex_);
  void on_batch(std::size_t batch_size) TSDX_EXCLUDES(mutex_);
  void on_worker_fault();
  /// One exact end-to-end sample: the value Recorder::finish returned.
  void on_latency(double e2e_ms) TSDX_EXCLUDES(mutex_);

  ServerStats snapshot(std::size_t queue_depth_now,
                       CircuitState circuit_state,
                       std::uint64_t circuit_trips) const
      TSDX_EXCLUDES(mutex_);

 private:
  /// A registry counter plus its value when this collector was built:
  /// delta() is the "since construction" reading ServerStats reports, while
  /// the registry itself keeps the process-cumulative value for scrapes.
  struct Bound {
    obs::Counter& counter;
    std::uint64_t base;
    void inc(std::uint64_t delta = 1) { counter.inc(delta); }
    std::uint64_t delta() const { return counter.value() - base; }
  };
  static Bound bind(obs::Counter& counter) {
    return Bound{counter, counter.value()};
  }

  const obs::Recorder::ServerAccounts accounts_;
  Bound submitted_;
  Bound completed_;
  Bound failed_;
  Bound rejected_;
  Bound shed_;
  Bound cancelled_;
  Bound worker_faults_;
  Bound deadline_expired_;
  Bound degraded_completions_;
  obs::Gauge& queue_depth_gauge_;
  obs::Gauge& queue_depth_max_gauge_;  ///< process high-water (update_max)
  obs::Histogram& batch_size_hist_;

  // Exact per-server state the registry's fixed buckets can't carry.
  mutable Mutex mutex_{"serve.stats", lockorder::Rank::kStats};
  LatencyHistogram latency_samples_ TSDX_GUARDED_BY(mutex_);
  std::vector<std::uint64_t> batch_size_counts_ TSDX_GUARDED_BY(mutex_);
  std::size_t queue_depth_max_ TSDX_GUARDED_BY(mutex_) = 0;
  const std::size_t queue_capacity_;  // set once at construction
};

}  // namespace tsdx::serve
