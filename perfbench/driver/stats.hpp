// stats.hpp — the benchmark's own arithmetic: seeded inputs, open-loop
// arrival schedules, exact percentiles with a tail-support rule, due-time
// latency accounting and JSON number formatting.
//
// Header-only and free of tsdx types, so perfbench/tests/selftest.cpp tests
// exactly the code the workloads run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64 finalizer: every seeded choice in the benchmark derives from
/// it, so one --seed fixes every input.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic stream of 64-bit draws for one (seed, purpose) pair.
/// Distinct purposes give independent streams from the same --seed.
class SeededStream {
 public:
  SeededStream(std::uint64_t seed, std::uint64_t purpose)
      : state_(mix64(seed) ^ mix64(purpose + 0x5eedull)) {}
  std::uint64_t next() { return mix64(state_++); }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [0, n); n must be > 0.
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// One open-loop request: when it is due (seconds from the run's start),
/// which tenant sends it and which pre-generated clip it carries.
struct Arrival {
  double due_s = 0.0;
  std::uint32_t tenant = 0;
  std::uint32_t clip = 0;
};

/// Open-loop arrival schedule over [0, seconds): a Poisson process at
/// `rate_per_s` conditioned on its count, round(rate * seconds). Given the
/// count, Poisson arrival times are uniform order statistics, so the offered
/// load is identical for every seed and a seed only moves where the bursts
/// fall. Tenant 0 sends `heavy_share` of the requests, tenant 1 the rest;
/// each request carries a uniformly chosen clip of `clips`.
inline std::vector<Arrival> poisson_schedule(std::uint64_t seed,
                                             double rate_per_s,
                                             double seconds,
                                             std::size_t clips,
                                             double heavy_share) {
  const auto count =
      static_cast<std::size_t>(std::llround(rate_per_s * seconds));
  SeededStream times(seed, 1), mix(seed, 2);
  std::vector<Arrival> schedule(count);
  for (Arrival& a : schedule) a.due_s = times.uniform() * seconds;
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& x, const Arrival& y) {
              return x.due_s < y.due_s;
            });
  for (Arrival& a : schedule) {
    a.tenant = mix.uniform() < heavy_share ? 0u : 1u;
    a.clip = static_cast<std::uint32_t>(mix.below(clips));
  }
  return schedule;
}

/// Nearest-rank index (1-based) of percentile `p` (0 < p <= 100) among `n`
/// sorted samples.
inline std::size_t percentile_rank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

/// Samples strictly beyond the nearest-rank percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - percentile_rank(n, p);
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer, and one outlier decides the number.
inline constexpr std::size_t kMinTailSamples = 10;

inline bool tail_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinTailSamples;
}

/// Exact nearest-rank percentile of all samples (no reservoir). Empty input
/// returns 0.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = percentile_rank(samples.size(), p);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median: the middle sample, or the mean of the two middle samples of an
/// even count. Empty input returns 0.
inline double median(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

/// Samples per window of the windowed estimators below: the fewest that
/// leave kMinTailSamples beyond a p95.
inline constexpr std::size_t kWindowSamples = 200;

/// Percentile `p` of each run of `window` consecutive samples of `ordered`
/// (samples in the order they were taken; the windows split them evenly,
/// at least `window` each when there are that many), then the median over
/// windows. A host that stalls for a moment moves one window, not the
/// run's figure, while each window keeps the samples its percentile needs.
inline std::size_t window_count(std::size_t n,
                                std::size_t window = kWindowSamples) {
  return std::max<std::size_t>(1, n / std::max<std::size_t>(window, 1));
}

inline double windowed_percentile(const std::vector<double>& ordered, double p,
                                  std::size_t window = kWindowSamples) {
  const std::size_t n = ordered.size();
  const std::size_t windows = window_count(n, window);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = static_cast<std::ptrdiff_t>(w * n / windows);
    const auto last = static_cast<std::ptrdiff_t>((w + 1) * n / windows);
    per_window.push_back(percentile(
        std::vector<double>(ordered.begin() + first, ordered.begin() + last),
        p));
  }
  return median(std::move(per_window));
}

/// Smallest window windowed_percentile() uses for `n` samples.
inline std::size_t smallest_window(std::size_t n,
                                   std::size_t window = kWindowSamples) {
  return n / window_count(n, window);
}

/// Median over whole `window_s` windows of [0, seconds) of the event rate
/// (1/s), from event times in seconds since the start.
inline double windowed_rate(const std::vector<double>& times_s, double seconds,
                            double window_s) {
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(seconds / window_s)));
  std::vector<double> counts(windows, 0.0);
  for (double t : times_s) {
    const auto w = static_cast<std::size_t>(t / window_s);
    if (t >= 0.0 && w < windows) counts[w] += 1.0;
  }
  for (double& c : counts) c /= window_s;
  return median(std::move(counts));
}

/// Due-time accounting for an open loop. Each request is timed from when it
/// was *due*, not from when the generator got round to sending it, so a
/// stall charges its wait to every request queued behind it. Completions
/// may arrive in any order; each request resolves at most once.
class DueTimeLedger {
 public:
  explicit DueTimeLedger(std::vector<double> due_s)
      : due_s_(std::move(due_s)),
        done_s_(due_s_.size(), std::numeric_limits<double>::quiet_NaN()),
        ok_(due_s_.size(), 0) {}

  /// Record request `i` resolving at `done_s` (same origin as its due time).
  /// `ok` is false for a failed, shed or expired request. Returns false,
  /// recording nothing, for an unknown index or a second resolution.
  bool resolve(std::size_t i, double done_s, bool ok) {
    if (i >= due_s_.size() || !std::isnan(done_s_[i])) return false;
    done_s_[i] = done_s;
    ok_[i] = ok ? 1 : 0;
    ++resolved_;
    if (ok) ++succeeded_;
    return true;
  }

  std::size_t scheduled() const { return due_s_.size(); }
  std::size_t resolved() const { return resolved_; }
  std::size_t succeeded() const { return succeeded_; }

  /// Due-to-done latency (ms) of every successful request, in due order.
  std::vector<double> latencies_ms() const {
    std::vector<double> out;
    out.reserve(succeeded_);
    for (std::size_t i = 0; i < due_s_.size(); ++i) {
      if (ok_[i]) out.push_back((done_s_[i] - due_s_[i]) * 1e3);
    }
    return out;
  }

  /// Share of all scheduled requests that succeeded within `limit_ms` of
  /// their due time. Failed and unresolved requests count as misses.
  double attainment(double limit_ms) const {
    if (due_s_.empty()) return 0.0;
    std::size_t met = 0;
    for (std::size_t i = 0; i < due_s_.size(); ++i) {
      if (ok_[i] && (done_s_[i] - due_s_[i]) * 1e3 <= limit_ms) ++met;
    }
    return static_cast<double>(met) / static_cast<double>(due_s_.size());
  }

  /// Latest resolution time (seconds), 0 when nothing resolved.
  double last_done_s() const {
    double last = 0.0;
    for (double d : done_s_) {
      if (!std::isnan(d)) last = std::max(last, d);
    }
    return last;
  }

 private:
  std::vector<double> due_s_;
  std::vector<double> done_s_;
  std::vector<unsigned char> ok_;
  std::size_t resolved_ = 0;
  std::size_t succeeded_ = 0;
};

/// One named measurement with its unit.
struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest round-trip decimal form of a finite double; non-finite values
/// have no JSON form and are written as null (the caller fails the run).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// JSON string literal (names and units are ASCII; quote and backslash are
/// the only characters that need escaping among them).
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
