// selftest.cpp — self-tests of the benchmark's own arithmetic
// (driver/stats.hpp): seeded schedules, the tail-sample rule, exact and
// windowed percentiles, due-time accounting and JSON number formatting.
//
// Built by perfbench/CMakeLists.txt; run with `python3 perfbench/run.py
// --self-test`. Exit status 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED: %s\n", line, what);
    ++g_failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using perfbench::Arrival;

bool same_schedule(const std::vector<Arrival>& a,
                   const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_s != b[i].due_s || a[i].tenant != b[i].tenant ||
        a[i].clip != b[i].clip) {
      return false;
    }
  }
  return true;
}

void poisson_schedule_is_deterministic_per_seed() {
  const auto a = perfbench::poisson_schedule(7, 200.0, 10.0, 64, 0.75);
  const auto b = perfbench::poisson_schedule(7, 200.0, 10.0, 64, 0.75);
  const auto c = perfbench::poisson_schedule(8, 200.0, 10.0, 64, 0.75);
  EXPECT(same_schedule(a, b));
  EXPECT(!same_schedule(a, c));
  // The count is fixed by rate x duration for every seed.
  EXPECT(a.size() == 2000);
  EXPECT(c.size() == 2000);
  std::size_t heavy = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT(a[i].due_s >= 0.0 && a[i].due_s < 10.0);
    EXPECT(i == 0 || a[i - 1].due_s <= a[i].due_s);
    EXPECT(a[i].clip < 64 && a[i].tenant < 2);
    if (a[i].tenant == 0) ++heavy;
  }
  // 3:1 tenant mix and exponential-looking gaps: the share of gaps longer
  // than the mean gap is e^-1 for a Poisson process.
  const double share =
      static_cast<double>(heavy) / static_cast<double>(a.size());
  EXPECT(std::fabs(share - 0.75) < 0.04);
  std::size_t long_gaps = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i].due_s - a[i - 1].due_s > 1.0 / 200.0) ++long_gaps;
  }
  const double long_share =
      static_cast<double>(long_gaps) / static_cast<double>(a.size() - 1);
  EXPECT(std::fabs(long_share - std::exp(-1.0)) < 0.04);
}

void tail_rule_needs_ten_samples_beyond() {
  EXPECT(perfbench::samples_beyond(1000, 99.0) == 10);
  EXPECT(perfbench::tail_supported(1000, 99.0));
  EXPECT(!perfbench::tail_supported(999, 99.0));
  EXPECT(!perfbench::tail_supported(100, 99.0));
  EXPECT(perfbench::samples_beyond(200, 95.0) == 10);
  EXPECT(perfbench::tail_supported(200, 95.0));
  EXPECT(!perfbench::tail_supported(199, 95.0));
  EXPECT(perfbench::tail_supported(20, 50.0));
  EXPECT(!perfbench::tail_supported(19, 50.0));
  EXPECT(perfbench::samples_beyond(0, 99.0) == 0);
  EXPECT(perfbench::percentile_rank(1, 99.0) == 1);
}

void percentiles_are_exact_nearest_rank() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(perfbench::percentile(v, 50.0) == 500.0);
  EXPECT(perfbench::percentile(v, 99.0) == 990.0);
  EXPECT(perfbench::percentile(v, 100.0) == 1000.0);
  EXPECT(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(perfbench::median({30.0, 10.0}) == 20.0);
  EXPECT(perfbench::percentile({}, 50.0) == 0.0);
}

void windowed_estimators_ignore_one_bad_window() {
  // 800 samples in four windows of 200; the third window stalled.
  std::vector<double> v;
  for (int w = 0; w < 4; ++w) {
    for (int i = 1; i <= 200; ++i) v.push_back(w == 2 ? 1000.0 + i : i);
  }
  EXPECT(perfbench::smallest_window(v.size()) == 200);
  EXPECT(perfbench::windowed_percentile(v, 95.0) == 190.0);
  EXPECT(perfbench::windowed_percentile(v, 50.0) == 100.0);
  // The whole run's p95 lands in the stalled window.
  EXPECT(perfbench::percentile(v, 95.0) > 1000.0);
  // A 200-sample window leaves exactly the 10 samples a p95 needs.
  EXPECT(perfbench::tail_supported(perfbench::smallest_window(v.size()), 95.0));
  // Fewer samples than a window: one window, the plain percentile.
  const std::vector<double> few(v.begin(), v.begin() + 100);
  EXPECT(perfbench::windowed_percentile(few, 50.0) ==
         perfbench::percentile(few, 50.0));
  EXPECT(perfbench::smallest_window(399) == 399);
  EXPECT(perfbench::smallest_window(400) == 200);
  // An explicit window: one per 256-clip archive round.
  EXPECT(perfbench::smallest_window(1024, 256) == 256);
  // Rates: 10 events/s for 4 s except a burst in second 2.
  std::vector<double> times;
  for (int s = 0; s < 4; ++s) {
    const int n = s == 2 ? 50 : 10;
    for (int i = 0; i < n; ++i) times.push_back(s + (i + 0.5) / n);
  }
  times.push_back(4.5);  // beyond the last whole window: ignored
  EXPECT(perfbench::windowed_rate(times, 4.5, 1.0) == 10.0);
  EXPECT(perfbench::windowed_rate(times, 4.0, 2.0) == 20.0);  // (10 + 30) / 2
}

void due_time_latency_survives_out_of_order_completion() {
  perfbench::DueTimeLedger ledger({0.0, 0.1, 0.2, 0.3});
  // Request 2 finishes first, then 0, then 1; request 3 never resolves.
  EXPECT(ledger.resolve(2, 0.25, true));
  EXPECT(ledger.resolve(0, 0.30, true));
  EXPECT(ledger.resolve(1, 0.15, false));
  EXPECT(!ledger.resolve(2, 0.40, true));  // resolves once
  EXPECT(!ledger.resolve(9, 0.40, true));  // unknown request
  EXPECT(ledger.scheduled() == 4);
  EXPECT(ledger.resolved() == 3);
  EXPECT(ledger.succeeded() == 2);
  const std::vector<double> lat = ledger.latencies_ms();
  EXPECT(lat.size() == 2);
  // Timed from the due time of the request itself, whatever the order.
  EXPECT(std::fabs(lat[0] - 300.0) < 1e-9);
  EXPECT(std::fabs(lat[1] - 50.0) < 1e-9);
  // Failed and unresolved requests miss any limit.
  EXPECT(ledger.attainment(100.0) == 0.25);
  EXPECT(ledger.attainment(1000.0) == 0.5);
  EXPECT(ledger.last_done_s() == 0.30);
}

void json_numbers_round_trip() {
  for (const double v : {0.1, 1e-9, 12345.678, 199.88315768054005, 1.0,
                         0.0, -3.5}) {
    const std::string s = perfbench::json_number(v);
    EXPECT(std::strtod(s.c_str(), nullptr) == v);
  }
  EXPECT(perfbench::json_number(1.0) == "1");
  EXPECT(perfbench::json_number(std::nan("")) == "null");
  EXPECT(perfbench::json_string("a\"b\\c") == "\"a\\\"b\\\\c\"");
}

}  // namespace

int main() {
  poisson_schedule_is_deterministic_per_seed();
  tail_rule_needs_ten_samples_beyond();
  percentiles_are_exact_nearest_rank();
  windowed_estimators_ignore_one_bad_window();
  due_time_latency_survives_out_of_order_completion();
  json_numbers_round_trip();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
