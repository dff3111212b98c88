// online.cpp — the `online` workload: open-loop serving through the Router.
//
// Independent users send clips on a seeded Poisson schedule at a fixed rate
// well below what the fleet sustains, so batches stay at 1-2 requests and
// what a request waits for is the batch window, queueing, admission and
// per-request overhead. Latency runs from each request's due time. The
// index is never touched.
#include <algorithm>
#include <condition_variable>
#include <future>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "serve/router.hpp"
#include "serve/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kReplicas = 2;
constexpr std::size_t kClipPool = 64;
constexpr std::size_t kSetups = 31;
constexpr double kHeavyShare = 0.75;  // tenants send 3:1
const char* const kTenants[] = {"fleet", "lab"};
/// Deadline after the due time, as a multiple of the latency limit: far
/// enough out that it never decides a request at the offered load.
constexpr double kDeadlineLimits = 10.0;
/// A run whose generator sent its p99 request later than this after the
/// due time measured the generator, not the server: it is invalid.
constexpr double kMaxGeneratorLagMs = 20.0;

serve::RouterConfig router_config(double rate) {
  serve::RouterConfig rc;
  rc.replicas = kReplicas;
  rc.server.workers = 1;
  // The fleet shares the machine: each replica's intra-op budget is its
  // share of the cores, so the fleet never oversubscribes them.
  rc.server.intra_op_threads = std::max<std::size_t>(
      1, std::thread::hardware_concurrency() / kReplicas);
  rc.admission.tenants = {{kTenants[0], 3.0}, {kTenants[1], 1.0}};
  // Admission runs on every request but never refuses at the offered load:
  // a 4x rate budget and a congestion window far above the in-flight count.
  rc.admission.aggregate_rate_per_s = 4.0 * rate;
  rc.admission.congestion_window = 64;
  return rc;
}

/// One pass of the open loop over a schedule.
struct Pass {
  DueTimeLedger ledger{std::vector<double>{}};
  std::vector<double> lag_ms;  ///< send time - due time, per request
  std::uint64_t matched = 0;   ///< results bit-identical to the oracle
};

struct InFlight {
  std::size_t index;
  std::future<core::ExtractionResult> result;
};

Pass run_pass(serve::Router& router, const std::vector<Arrival>& schedule,
              const std::vector<sim::VideoClip>& clips,
              const std::vector<core::ExtractionResult>& oracle,
              double limit_ms) {
  std::vector<double> due;
  due.reserve(schedule.size());
  for (const Arrival& a : schedule) due.push_back(a.due_s);
  Pass pass;
  pass.ledger = DueTimeLedger(due);
  pass.lag_ms.reserve(schedule.size());

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<InFlight> handoff;     // generator -> completion thread
  std::vector<std::size_t> refused;  // Router::submit threw
  bool generator_done = false;

  const auto deadline = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kDeadlineLimits * limit_ms));
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };

  serve::ThreadPool::run(2, [&](std::size_t role) {
    if (role == 0) {
      // Generator. The clip copy is made before the due time, so the
      // program receives only the generated input, when it is due.
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        sim::VideoClip clip = clips[schedule[i].clip];
        const Clock::time_point due_at = at(schedule[i].due_s);
        std::this_thread::sleep_until(due_at);
        pass.lag_ms.push_back(seconds_between(due_at, Clock::now()) * 1e3);
        try {
          ScopedSpan span("route.submit", i + 1, "bench.request");
          auto result = router.submit(std::move(clip), due_at + deadline,
                                      kTenants[schedule[i].tenant]);
          std::lock_guard<std::mutex> lock(mutex);
          handoff.push_back({i, std::move(result)});
        } catch (const std::exception&) {
          std::lock_guard<std::mutex> lock(mutex);
          refused.push_back(i);
        }
        cv.notify_one();
      }
      std::lock_guard<std::mutex> lock(mutex);
      generator_done = true;
      cv.notify_one();
      return;
    }
    // Completion thread: wait on the oldest request, then sweep the rest,
    // so a request that finishes out of order is stamped within one sweep
    // interval of its completion.
    constexpr auto kSweep = std::chrono::microseconds(200);
    std::vector<InFlight> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (pending.empty()) {
          cv.wait(lock, [&] {
            return !handoff.empty() || !refused.empty() || generator_done;
          });
        }
        for (InFlight& f : handoff) pending.push_back(std::move(f));
        handoff.clear();
        for (std::size_t i : refused) {
          pass.ledger.resolve(i, seconds_between(start, Clock::now()), false);
        }
        refused.clear();
        if (pending.empty() && generator_done) break;
      }
      if (pending.empty()) continue;
      pending.front().result.wait_for(kSweep);
      const Clock::time_point now = Clock::now();
      std::erase_if(pending, [&](InFlight& f) {
        if (f.result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          return false;
        }
        bool ok = false;
        try {
          const core::ExtractionResult result = f.result.get();
          ok = true;
          if (same_result(result, oracle[schedule[f.index].clip])) {
            ++pass.matched;
          }
        } catch (const std::exception&) {
        }
        pass.ledger.resolve(f.index, seconds_between(start, now), ok);
        if (SpanLog::global().enabled()) {
          SpanLog::global().record("bench.request", f.index + 1, "",
                                   at(schedule[f.index].due_s), now);
        }
        return true;
      });
    }
  });
  return pass;
}

}  // namespace

Outcome run_online(const Options& opt) {
  Outcome out;
  const serve::RouterConfig rc = router_config(opt.online_rate);

  // Inputs, all from --seed, before any clock starts. A traced run splits
  // its time between an untraced and a traced pass over the same schedule,
  // which makes the tracing overhead a paired comparison.
  const std::vector<sim::VideoClip> clips = make_clips(opt.seed, kClipPool);
  const double pass_seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const std::vector<Arrival> schedule = poisson_schedule(
      opt.seed, opt.online_rate, pass_seconds, clips.size(), kHeavyShare);

  // Set-up: model build and freeze, router and replica start, and one
  // request per replica so lazy first-request work counts as set-up.
  std::vector<double> setup_s;
  std::shared_ptr<core::ScenarioExtractor> extractor;
  std::unique_ptr<serve::Router> router;
  for (std::size_t s = 0; s < kSetups; ++s) {
    if (router) router->drain();
    router.reset();
    const auto start = Clock::now();
    extractor = build_extractor();
    router = std::make_unique<serve::Router>(extractor, rc);
    std::vector<std::future<core::ExtractionResult>> warm;
    for (std::size_t r = 0; r < kReplicas; ++r) {
      warm.push_back(router->submit(clips[r]));
    }
    for (auto& f : warm) f.get();
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  out.metric("setup_s", median(setup_s), "s");

  std::vector<core::ExtractionResult> oracle;
  oracle.reserve(clips.size());
  for (const sim::VideoClip& clip : clips) {
    oracle.push_back(extractor->extract(clip));
  }

  const serve::RouterStats route_start = router->stats();
  const ServeCounters serve0 = ServeCounters::take();
  const Pass pass =
      run_pass(*router, schedule, clips, oracle, opt.online_slo_ms);

  // Layer readings cover the traced pass alone.
  const serve::RouterStats route0 = router->stats();
  const ServeSnapshot serve_before = ServeSnapshot::take();
  std::optional<Pass> traced;
  if (opt.trace) {
    SpanLog::global().enable(true);
    traced = run_pass(*router, schedule, clips, oracle, opt.online_slo_ms);
    SpanLog::global().enable(false);
  }
  const serve::RouterStats route_traced = router->stats();
  router->drain();

  const serve::RouterStats route = router->stats();
  const std::int64_t gap =
      ServeCounters::take().since(serve0).conservation_gap();
  const bool router_balanced =
      route.pending == 0 &&
      route.admitted - route_start.admitted ==
          (route.completed - route_start.completed) +
              (route.failed - route_start.failed);
  out.check("request_conservation", gap == 0 && router_balanced,
            "serve submitted - resolved = " + std::to_string(gap) +
                ", router pending " + std::to_string(route.pending));

  const auto check_pass = [&](const Pass& p, const std::string& label) {
    const std::size_t n = p.ledger.scheduled();
    out.check("all_resolved_" + label, p.ledger.resolved() == n,
              std::to_string(p.ledger.resolved()) + " of " +
                  std::to_string(n) + " requests resolved");
    const double lag_p99 = percentile(p.lag_ms, 99.0);
    out.check("generator_on_time_" + label, lag_p99 <= kMaxGeneratorLagMs,
              "generator lag p99 " + json_number(lag_p99) + " ms");
    out.check("output_match_" + label, p.matched == p.ledger.succeeded(),
              std::to_string(p.matched) + " of " +
                  std::to_string(p.ledger.succeeded()) +
                  " results match the oracle");
  };
  check_pass(pass, "untraced");
  if (traced) check_pass(*traced, "traced");

  // End-to-end figures come from the untraced pass.
  const std::size_t n = pass.ledger.scheduled();
  const std::size_t ok = pass.ledger.succeeded();
  out.attempted = n;
  out.completed = ok;
  out.failed = n - ok;
  const std::vector<double> lat = pass.ledger.latencies_ms();
  out.metric("throughput_per_s",
             static_cast<double>(ok) / pass.ledger.last_done_s(), "1/s");
  latency_metrics(lat, kWindowSamples, out);
  out.metric("slo_attainment", pass.ledger.attainment(opt.online_slo_ms),
             "share");
  out.metric("success_rate",
             static_cast<double>(ok) / static_cast<double>(n), "share");
  out.metric("output_match",
             ok == 0 ? 0.0
                     : static_cast<double>(pass.matched) /
                           static_cast<double>(ok),
             "share");
  out.info.emplace_back("offered_rate_per_s", json_number(opt.online_rate));
  out.info.emplace_back("latency_limit_ms", json_number(opt.online_slo_ms));
  out.info.emplace_back("intra_op_threads_per_replica",
                        std::to_string(rc.server.intra_op_threads));

  if (traced) {
    const Pass& t = *traced;
    serve_layer_metrics(serve_before, "route.submit",
                        static_cast<double>(kReplicas),
                        t.ledger.last_done_s() * 1e3, gap, out);
    out.metric("route.retries",
               static_cast<double>(route_traced.retries - route0.retries),
               "count");
    out.metric("route.shed",
               static_cast<double>(route_traced.shed - route0.shed), "count");
    out.metric("bench.generator_lag_ms_p99", percentile(t.lag_ms, 99.0),
               "ms");
    const double traced_p50 =
        windowed_percentile(t.ledger.latencies_ms(), 50.0);
    out.metric("obs.tracing_overhead_pct",
               (traced_p50 / windowed_percentile(lat, 50.0) - 1.0) * 100.0,
               "%");
  }
  return out;
}

}  // namespace perfbench
