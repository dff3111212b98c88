#include "serve/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "core/check.hpp"
#include "serve/queue.hpp"

namespace tsdx::serve {

namespace {

/// serve.batch_size histogram bounds. Registry buckets are fixed at first
/// registration, so they cannot depend on one server's max_batch; powers of
/// two cover every configuration and the exact per-size counts live in the
/// collector.
const std::vector<double>& batch_size_bounds() {
  static const std::vector<double> bounds{1, 2, 4, 8, 16, 32, 64, 128};
  return bounds;
}

}  // namespace

const char* to_string(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kBlock: return "block";
    case OverflowPolicy::kReject: return "reject";
    case OverflowPolicy::kShedOldest: return "shed-oldest";
  }
  return "?";
}

std::uint64_t ServerStats::batches() const {
  return std::accumulate(batch_size_counts.begin(), batch_size_counts.end(),
                         std::uint64_t{0});
}

double ServerStats::mean_batch_size() const {
  std::uint64_t total = 0;
  std::uint64_t weighted = 0;
  for (std::size_t s = 0; s < batch_size_counts.size(); ++s) {
    total += batch_size_counts[s];
    weighted += batch_size_counts[s] * s;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(weighted) / static_cast<double>(total);
}

std::string ServerStats::table_header() {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%-26s %9s %9s %6s %6s %7s %8s %8s %8s %6s %6s",
                "config", "completed", "dropped", "depth", "batch", "p50ms",
                "p95ms", "p99ms", "meanms", "faults", "degr");
  return buf;
}

std::string ServerStats::table_row(const std::string& label) const {
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "%-26s %9llu %9llu %6zu %6.2f %7.2f %8.2f %8.2f %8.2f %6llu "
                "%6llu",
                label.c_str(), static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(rejected + shed + cancelled +
                                                deadline_expired),
                queue_depth_max, mean_batch_size(), latency.percentile(50.0),
                latency.percentile(95.0), latency.percentile(99.0),
                latency.mean(),
                static_cast<unsigned long long>(worker_faults),
                static_cast<unsigned long long>(degraded_completions));
  return buf;
}

std::string ServerStats::fault_summary() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "worker_faults=%llu deadline_expired=%llu "
                "degraded_completions=%llu circuit=%s trips=%llu",
                static_cast<unsigned long long>(worker_faults),
                static_cast<unsigned long long>(deadline_expired),
                static_cast<unsigned long long>(degraded_completions),
                to_string(circuit_state),
                static_cast<unsigned long long>(circuit_trips));
  return buf;
}

StatsCollector::StatsCollector(obs::Registry& registry,
                               std::size_t queue_capacity,
                               std::size_t max_batch)
    : accounts_(registry),
      submitted_(bind(registry.counter("serve.submitted"))),
      completed_(bind(accounts_.completed)),
      failed_(bind(accounts_.failed)),
      rejected_(bind(accounts_.rejected)),
      shed_(bind(accounts_.shed)),
      cancelled_(bind(accounts_.cancelled)),
      worker_faults_(bind(registry.counter("serve.worker_faults"))),
      deadline_expired_(bind(accounts_.deadline_expired)),
      degraded_completions_(bind(accounts_.degraded)),
      queue_depth_gauge_(registry.gauge("serve.queue_depth")),
      queue_depth_max_gauge_(registry.gauge("serve.queue_depth_max")),
      batch_size_hist_(registry.histogram("serve.batch_size",
                                          batch_size_bounds())),
      queue_capacity_(queue_capacity) {
  batch_size_counts_.assign(max_batch + 1, 0);
}

void StatsCollector::on_submit(std::size_t queue_depth_after) {
  submitted_.inc();
  queue_depth_gauge_.set(static_cast<std::int64_t>(queue_depth_after));
  queue_depth_max_gauge_.update_max(
      static_cast<std::int64_t>(queue_depth_after));
  LockGuard lock(mutex_);
  queue_depth_max_ = std::max(queue_depth_max_, queue_depth_after);
}

void StatsCollector::on_batch(std::size_t batch_size) {
  batch_size_hist_.observe(static_cast<double>(batch_size));
  LockGuard lock(mutex_);
  TSDX_CHECK(batch_size < batch_size_counts_.size(),
             "StatsCollector::on_batch: size ", batch_size,
             " exceeds max_batch ", batch_size_counts_.size() - 1);
  ++batch_size_counts_[batch_size];
}

void StatsCollector::on_worker_fault() { worker_faults_.inc(); }

void StatsCollector::on_latency(double e2e_ms) {
  LockGuard lock(mutex_);
  latency_samples_.record(e2e_ms);
}

ServerStats StatsCollector::snapshot(std::size_t queue_depth_now,
                                     CircuitState circuit_state,
                                     std::uint64_t circuit_trips) const {
  ServerStats stats;
  stats.submitted = submitted_.delta();
  stats.completed = completed_.delta();
  stats.failed = failed_.delta();
  stats.rejected = rejected_.delta();
  stats.shed = shed_.delta();
  stats.cancelled = cancelled_.delta();
  stats.worker_faults = worker_faults_.delta();
  stats.deadline_expired = deadline_expired_.delta();
  stats.degraded_completions = degraded_completions_.delta();
  stats.circuit_state = circuit_state;
  stats.circuit_trips = circuit_trips;
  stats.queue_depth = queue_depth_now;
  stats.queue_capacity = queue_capacity_;
  LockGuard lock(mutex_);
  stats.queue_depth_max = queue_depth_max_;
  stats.batch_size_counts = batch_size_counts_;
  stats.latency = latency_samples_;
  return stats;
}

}  // namespace tsdx::serve
