// R-S1 — Serving throughput & tail latency (tsdx::serve runtime):
// aggregate clips/s and p50/p95/p99 request latency as a function of worker
// count, against the single-threaded for-loop baseline every offline user of
// ScenarioExtractor::extract() runs today.
//
// Expected shape: throughput scales with workers (≈linear until the core
// count), batches form from whatever is queued when a worker frees up, and
// tail latency grows with queue depth under a saturating closed-loop load.
// The for-loop baseline defines 1.0× throughput and the best achievable p50
// at concurrency 1.
#include <cstdio>
#include <cstring>
#include <future>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/thread_pool.hpp"
#include "sim/clipgen.hpp"

using namespace tsdx;
using namespace tsdx::bench;

namespace {

// Full run; --smoke (the bench-smoke CI job) quarters the request count so
// the bench finishes in CI seconds while still exercising the full
// submit -> batch -> extract -> resolve path.
std::size_t g_requests = 160;            // per configuration
constexpr std::size_t kProducers = 4;    // client threads driving the server
constexpr std::size_t kClipPool = 16;    // distinct clips, submitted round-robin

std::vector<sim::VideoClip> make_clip_pool() {
  sim::ClipGenerator gen(render_config(), kDataSeed);
  std::vector<sim::VideoClip> clips;
  clips.reserve(kClipPool);
  for (std::size_t i = 0; i < kClipPool; ++i) {
    clips.push_back(gen.generate().video);
  }
  return clips;
}

struct RunResult {
  double seconds = 0.0;
  serve::ServerStats stats;
};

/// Closed-loop load: kProducers threads submit g_requests total and block on
/// each future (an RPC client's view of the server).
RunResult run_server_config(
    const std::shared_ptr<const core::ScenarioExtractor>& extractor,
    std::size_t workers, std::size_t max_batch,
    const std::vector<sim::VideoClip>& clips) {
  serve::ServerConfig cfg;
  cfg.workers = workers;
  cfg.max_batch = max_batch;
  cfg.queue_capacity = 256;
  cfg.overflow = serve::OverflowPolicy::kBlock;
  serve::InferenceServer server(extractor, cfg);

  const auto start = std::chrono::steady_clock::now();
  serve::ThreadPool::run(kProducers, [&](std::size_t p) {
    const std::size_t n = g_requests / kProducers;
    for (std::size_t i = 0; i < n; ++i) {
      server.submit(clips[(p * n + i) % clips.size()]).get();
    }
  });
  server.drain();
  RunResult result;
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  result.stats = server.stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  if (smoke) g_requests = 40;

  print_banner("R-S1", "serving throughput & tail latency (tsdx::serve)");

  // The model every configuration shares: the paper's DividedST extractor at
  // bench scale, frozen for inference.
  auto extractor = std::make_shared<core::ScenarioExtractor>(
      model_config(core::AttentionKind::kDividedST), kModelSeed);
  extractor->freeze();
  const std::vector<sim::VideoClip> clips = make_clip_pool();

  // Baseline: the offline for-loop (one thread, batch 1, no queue).
  LatencyHistogram baseline_lat;
  const auto base_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < g_requests; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const core::ExtractionResult result =
        extractor->extract(clips[i % clips.size()]);
    baseline_lat.record(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    static_cast<void>(result);
  }
  const double base_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - base_start)
                                  .count();
  const double base_throughput = static_cast<double>(g_requests) / base_seconds;

  std::printf("%zu requests per configuration, %zu producer threads, "
              "max_batch 8, block policy\n\n",
              g_requests, kProducers);
  std::printf("%-26s %9s %8s %6s %7s %8s %8s %8s\n", "config", "clips/s",
              "speedup", "batch", "p50ms", "p95ms", "p99ms", "meanms");
  std::printf("%-26s %9.1f %8s %6.2f %7.2f %8.2f %8.2f %8.2f\n",
              "for-loop baseline", base_throughput, "1.00x", 1.0,
              baseline_lat.percentile(50.0), baseline_lat.percentile(95.0),
              baseline_lat.percentile(99.0), baseline_lat.mean());

  const std::size_t worker_counts[] = {1, 2, 4};
  double one_worker_throughput = 0.0;
  serve::ServerStats last_stats;
  for (const std::size_t workers : worker_counts) {
    const RunResult run = run_server_config(extractor, workers, 8, clips);
    const double throughput =
        static_cast<double>(run.stats.completed) / run.seconds;
    if (workers == 1) one_worker_throughput = throughput;
    char label[64];
    std::snprintf(label, sizeof(label), "serve w=%zu", workers);
    char speedup[16];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  throughput / one_worker_throughput);
    std::printf("%-26s %9.1f %8s %6.2f %7.2f %8.2f %8.2f %8.2f\n", label,
                throughput, speedup, run.stats.mean_batch_size(),
                run.stats.latency.percentile(50.0),
                run.stats.latency.percentile(95.0),
                run.stats.latency.percentile(99.0), run.stats.latency.mean());
    last_stats = run.stats;
  }

  // Fault-tolerance counters (see DESIGN.md §9). This closed-loop bench
  // injects nothing, so every counter should read zero with the circuit
  // closed — a healthy-path sanity check; bench_r1_degradation is where
  // they move.
  std::printf("\n%s\n", last_stats.fault_summary().c_str());

  std::printf(
      "\n(speedup column is vs the 1-worker server; "
      "compare clips/s against the for-loop row for end-to-end gain.\n"
      " scaling tops out at the machine's core count — this host has %u.)\n",
      std::thread::hardware_concurrency());
  return 0;
}
