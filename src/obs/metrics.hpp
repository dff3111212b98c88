// metrics.hpp — tsdx::obs: the process-wide metrics registry.
//
// Three metric kinds, all lock-cheap on the hot path (a relaxed atomic op per
// update; the registry mutex is taken only at registration and snapshot
// time):
//
//   * Counter    — monotone uint64 (requests served, GEMM flops, faults).
//   * Gauge      — signed point-in-time value with a high-watermark helper
//                  (queue depth, circuit-breaker state, pool threads).
//   * Histogram  — fixed-bucket distribution (latency, queue wait). Bucket
//                  bounds are fixed at registration so observation is a
//                  single relaxed increment; quantiles are bucket-resolution
//                  approximations, good enough for dashboards.
//
// Registries are instantiable: `Registry::global()` is the process-wide
// default every layer (kernels, pool, standalone tools) reports into, while
// a component that needs isolated accounting — an InferenceServer whose
// stats are "since construction", a unit test asserting exact counts — can
// own a private one (see ServerConfig::metrics).
//
// For *exact* percentiles over modest sample counts (bench tables, the
// server's end-to-end latency report) use LatencyHistogram below: a raw
// sample store with nearest-rank percentile(), shared by src/serve and
// bench/bench_common.hpp so every latency column in the repo is computed
// identically.
//
// Snapshots export as JSON (`to_json`) and Prometheus text exposition
// (`to_prometheus`); see tools/trace_check.py for the schema the CI job
// validates.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/annotations.hpp"

namespace tsdx::obs {

/// Exact percentile (nearest-rank on a copy; `p` in [0, 100]). Edge cases
/// are part of the contract, pinned by tests/obs_test.cpp: an empty sample
/// set returns 0 (printers need no special-casing), a single sample answers
/// every percentile, p == 0 is the minimum and p == 100 the maximum, and
/// tail percentiles over fewer samples than their rank resolution (p99 of
/// n < 100) resolve to the maximum — never past the end.
double percentile(std::vector<double> samples, double p);

/// Accumulates raw samples (milliseconds by convention) and answers exact
/// distribution queries. Not thread-safe on its own — owners lock around it.
///
/// Storage is bounded: the first kReservoirCapacity samples are kept
/// verbatim (every query below the cap is exact), after which Algorithm R
/// reservoir sampling keeps a uniform subset — with the random draw replaced
/// by a splitmix64 hash of the running count, so two runs observing the same
/// sequence hold bit-identical reservoirs. count()/mean()/min()/max() are
/// running aggregates over *all* samples ever recorded; percentile() answers
/// from the reservoir, with p == 0 / p == 100 pinned to the exact running
/// extremes.
class LatencyHistogram {
 public:
  /// Samples retained before reservoir replacement kicks in.
  static constexpr std::size_t kReservoirCapacity = 4096;

  void record(double ms);

  /// Total samples ever recorded (not the reservoir size).
  std::size_t count() const { return count_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  /// p in [0, 100], e.g. p50/p95/p99 tail latency. Exact while count() <=
  /// kReservoirCapacity; a uniform-reservoir estimate beyond.
  double percentile(double p) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;  ///< the reservoir
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Monotone event count. All operations are relaxed atomics: counters are
/// statistical, not synchronization — readers that need ordering get it from
/// the surrounding protocol (e.g. future.get() in src/serve).
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed value.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raise the gauge to `v` if it is below (high-watermark tracking).
  void update_max(std::int64_t v);
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket distribution: counts per upper bound plus a +Inf overflow
/// bucket, a running sum, and an approximate quantile. Bounds are sorted and
/// fixed at construction.
class Histogram {
 public:
  /// A per-bucket exemplar: the most recent observation in that bucket that
  /// carried a trace ID, linking the bucket to a concrete request. trace_id
  /// 0 = the bucket has no exemplar.
  struct Exemplar {
    std::uint64_t trace_id = 0;
    double value = 0.0;
  };

  explicit Histogram(std::vector<double> bounds);

  /// Count `x` into its bucket. A nonzero `exemplar_trace_id` additionally
  /// stamps the bucket's exemplar (latest writer wins; the id/value pair is
  /// two relaxed stores — statistical, like the counts).
  void observe(double x, std::uint64_t exemplar_trace_id = 0);

  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Approximate quantile (`q` in [0, 100]): the upper bound of the bucket
  /// holding the nearest-rank sample (+Inf bucket answers the largest finite
  /// bound). Empty histogram returns 0.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts: bucket_count(i) counts observations <= bounds()[i];
  /// bucket_count(bounds().size()) is the +Inf overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const;
  /// Bucket i's exemplar ({0, 0} when no traced observation landed there).
  Exemplar exemplar(std::size_t i) const;

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::vector<std::atomic<std::uint64_t>> exemplar_ids_;  // parallel to counts_
  std::vector<std::atomic<double>> exemplar_values_;
  std::atomic<double> sum_{0.0};
};

/// Default bucket bounds for millisecond latencies: 0.1 ms to ~26 s,
/// doubling. Shared by obs.e2e_ms and the obs.segment_ms.* histograms so the
/// segments are directly comparable with the total in an exposition scrape.
const std::vector<double>& default_latency_buckets_ms();

/// Named metric store. Registration is idempotent — the first caller of a
/// name creates the metric, later callers get the same object (registering
/// one name as two different kinds throws ValueError). Returned references
/// are stable for the registry's lifetime.
class Registry {
 public:
  /// The process-wide default registry.
  static Registry& global();

  Counter& counter(const std::string& name) TSDX_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) TSDX_EXCLUDES(mutex_);
  Histogram& histogram(
      const std::string& name,
      const std::vector<double>& bounds = default_latency_buckets_ms())
      TSDX_EXCLUDES(mutex_);

  /// JSON snapshot: {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, sum, buckets: [{le, count}...]}}}.
  std::string to_json() const TSDX_EXCLUDES(mutex_);
  /// Prometheus text exposition ('.' in names becomes '_'; histogram buckets
  /// are cumulative with an +Inf le, plus _sum and _count series).
  std::string to_prometheus() const TSDX_EXCLUDES(mutex_);

 private:
  void check_unique(const std::string& name, const char* kind) const
      TSDX_REQUIRES(mutex_);

  mutable Mutex mutex_{"obs.registry", lockorder::Rank::kRegistry};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      TSDX_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      TSDX_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      TSDX_GUARDED_BY(mutex_);
};

}  // namespace tsdx::obs
