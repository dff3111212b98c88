// serve_demo — the extractor as a service: train a small model, checkpoint
// it (CRC-verified, atomically), stand up a fault-tolerant InferenceServer
// (which compiles the model into a plan and serves only plans), fire
// concurrent requests at it, and read the stats surface. A compressed
// tour of src/serve/ (see DESIGN.md "Serving runtime", "Fault tolerance
// contract" and §11 "Observability model").
//
// Flags:
//   --smoke         tiny model/dataset/request count, for CI (seconds, not
//                   minutes).
//   --metrics-dump  after draining, write the observability surface to the
//                   working directory: tsdx_metrics.json + tsdx_metrics.prom
//                   (the registry) and tsdx_trace.json (Perfetto-loadable
//                   span trace). Forces full tracing unless TSDX_TRACE was
//                   set explicitly, so the dumped trace is never empty.
//   --out-dir DIR   where --metrics-dump writes its files (created if
//                   missing; default: the working directory). Also writes
//                   tsdx_recorder.json, the flight-recorder ring, so
//                   tools/obs_report.py can attribute per-request latency.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "data/dataset.hpp"
#include "nn/serialize.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sdl/description.hpp"
#include "serve/fallback.hpp"
#include "serve/server.hpp"
#include "serve/thread_pool.hpp"
#include "sim/clipgen.hpp"

namespace core = tsdx::core;
namespace data = tsdx::data;
namespace nn = tsdx::nn;
namespace obs = tsdx::obs;
namespace sdl = tsdx::sdl;
namespace serve = tsdx::serve;
namespace sim = tsdx::sim;

namespace {

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool metrics_dump = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--metrics-dump") == 0) {
      metrics_dump = true;
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--metrics-dump] [--out-dir DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  if (metrics_dump && std::getenv("TSDX_TRACE") == nullptr) {
    obs::trace::set_mode(obs::trace::Mode::kFull);
  }

  // 1. A quickly-trained extractor (see examples/quickstart.cpp for the
  //    full training walkthrough).
  sim::RenderConfig render;
  render.height = render.width = smoke ? 16 : 32;
  render.frames = smoke ? 4 : 8;

  core::ModelConfig mc;
  mc.frames = render.frames;
  mc.image_size = render.height;
  mc.patch_size = 8;
  mc.dim = smoke ? 16 : 32;
  mc.depth = smoke ? 1 : 2;
  mc.heads = 4;
  mc.attention = core::AttentionKind::kDividedST;

  std::printf("training a small extractor...\n");
  const data::Dataset train =
      data::Dataset::synthesize(render, smoke ? 24 : 96, 1);
  const data::Dataset val = data::Dataset::synthesize(render, smoke ? 8 : 24, 2);
  auto extractor = std::make_shared<core::ScenarioExtractor>(mc, /*seed=*/7);
  core::TrainConfig tc;
  tc.epochs = smoke ? 1 : 3;
  tc.batch_size = 8;
  extractor->train(train, val, tc);

  // 2. Checkpoint round-trip, the way a serving bootstrap would do it:
  //    save_checkpoint writes atomically with a CRC-32 footer, and
  //    load_checkpoint_or_fallback degrades a missing/corrupt file to the
  //    current weights instead of crashing the process.
  const std::string ckpt =
      (std::filesystem::temp_directory_path() / "serve_demo_ckpt.bin")
          .string();
  nn::save_checkpoint(extractor->model(), ckpt);
  const nn::CheckpointLoad loaded =
      nn::load_checkpoint_or_fallback(extractor->model(), ckpt);
  std::printf("checkpoint bootstrap: %s (%s)\n", nn::to_string(loaded), ckpt.c_str());
  std::filesystem::remove(ckpt);

  extractor->freeze();  // mandatory before serving

  // 3. The server: 2 workers, micro-batches of up to 8 formed within a 2 ms
  //    window, a 64-deep queue that blocks producers when full. Degraded
  //    mode is armed with the training set's majority answer: if the
  //    primary model faults repeatedly or the queue saturates, the circuit
  //    breaker routes requests there instead of failing them.
  serve::ServerConfig sc;
  sc.workers = 2;
  sc.max_batch = 8;
  sc.batch_window = std::chrono::microseconds(2000);
  sc.queue_capacity = 64;
  sc.overflow = serve::OverflowPolicy::kBlock;
  sc.fallback = serve::MajorityFallback::fit(train);
  sc.circuit.fault_threshold = 3;
  sc.circuit.cooldown = std::chrono::milliseconds(250);
  // Construction compiles the model (two traces, at B=1 and B=2) into one
  // plan that serves every batch size from a per-worker arena.
  serve::InferenceServer server(extractor, sc);

  // 4. Concurrent clients, every request carrying a half-second deadline
  //    (generous here — it exists to show the API; an expired deadline fails
  //    the future with DeadlineExceededError without the clip ever reaching
  //    the model).
  const std::size_t clients = smoke ? 2 : 4;
  const std::size_t per_client = 16;
  std::printf("serving %zu requests on %zu workers...\n\n",
              clients * per_client, sc.workers);
  sim::ClipGenerator gen(render, /*seed=*/42);
  std::vector<sim::VideoClip> clips;
  for (int i = 0; i < 16; ++i) clips.push_back(gen.generate().video);

  serve::ThreadPool::run(clients, [&](std::size_t client) {
    for (std::size_t i = 0; i < per_client; ++i) {
      std::future<core::ExtractionResult> future = server.submit_within(
          clips[(client * per_client + i) % clips.size()],
          std::chrono::milliseconds(500));
      const core::ExtractionResult result = future.get();
      if (client == 0 && i == 0) {
        std::printf("first result (min confidence %.2f):\n  %s\n\n",
                    result.min_confidence(),
                    sdl::to_sentence(result.description).c_str());
      }
    }
  });

  // 5. Finish cleanly and read the observability surface — including the
  //    fault counters (all zero on this healthy run; chaos_test and
  //    bench_r1_degradation show them moving).
  server.drain();
  const serve::ServerStats stats = server.stats();
  std::printf("%s\n%s\n", serve::ServerStats::table_header().c_str(),
              stats.table_row("serve_demo w=2").c_str());
  std::printf("\nbatch-size distribution:\n");
  for (std::size_t s = 1; s < stats.batch_size_counts.size(); ++s) {
    if (stats.batch_size_counts[s] == 0) continue;
    std::printf("  batch=%zu  x%llu\n", s,
                static_cast<unsigned long long>(stats.batch_size_counts[s]));
  }
  std::printf("\n%s\n", stats.fault_summary().c_str());

  // 6. The machine-readable view of the same run: the metrics registry in
  //    JSON + Prometheus exposition (what a GET /metrics endpoint would
  //    serve) and the span trace, loadable in https://ui.perfetto.dev.
  //    CI feeds all three to tools/trace_check.py.
  if (metrics_dump) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const auto in_dir = [&out_dir](const char* name) {
      return (std::filesystem::path(out_dir) / name).string();
    };
    bool ok = write_file(in_dir("tsdx_metrics.json"), server.metrics_json());
    ok = write_file(in_dir("tsdx_metrics.prom"), server.metrics_text()) && ok;
    ok = obs::trace::flush_trace(in_dir("tsdx_trace.json")) && ok;
    ok = write_file(in_dir("tsdx_recorder.json"),
                    obs::Recorder::global().to_json()) &&
         ok;
    if (!ok) {
      std::fprintf(stderr, "serve_demo: --metrics-dump failed to write\n");
      return 1;
    }
    std::printf(
        "\nwrote tsdx_metrics.{json,prom}, tsdx_trace.json, "
        "tsdx_recorder.json under %s\n",
        out_dir.c_str());
  }
  return 0;
}
