// main.cpp — perfbench driver: one workload, one seed, one mode per process.
//
//   perfbench --workload online|archive|search --seed N --seconds S
//             --trace 0|1 --online-rate R --online-slo-ms L --out-dir DIR
//
// Prints progress to stderr and, as the last line of stdout, the run report
// as one JSON object: host fingerprint, request counts, every metric with
// its unit, every correctness check and configuration echoes. perfbench/
// run.py turns it into the benchmark's result line. Exit status: 0 when
// every check passed, 3 when one failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "plan/gemm_wide.hpp"
#include "tensor/kernels/parallel_for.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload online|archive|search --seed N "
               "--seconds S --trace 0|1 --online-rate R --online-slo-ms L "
               "[--out-dir DIR]\n",
               argv0);
  return 2;
}

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

const char* trace_mode_name(obs::trace::Mode m) {
  switch (m) {
    case obs::trace::Mode::kOff: return "off";
    case obs::trace::Mode::kSampled: return "sampled";
    case obs::trace::Mode::kFull: return "full";
  }
  return "unknown";
}

/// Where the numbers came from: cores, ISA, compiler, build type and the
/// library's effective threading and tracing settings.
std::string host_json() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const std::size_t pool = par::env_override()
                               ? par::threads()
                               : std::thread::hardware_concurrency();
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"avx2\": " + (plan::wide::cpu_supported() ? "true" : "false") +
         ", \"compiler\": " + json_string(compiler) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"TSDX_NUM_THREADS\": " +
         json_string(env_or_empty("TSDX_NUM_THREADS")) +
         ", \"intra_op_pool_default\": " + std::to_string(pool) +
         ", \"TSDX_TRACE\": " + json_string(env_or_empty("TSDX_TRACE")) +
         ", \"trace_mode\": " +
         json_string(trace_mode_name(obs::trace::mode())) + "}";
}

std::string report_json(const Options& opt, const Outcome& out,
                        const std::string& spans_file) {
  std::string s = "{\"workload\": " + json_string(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"seconds\": " + json_number(opt.seconds) +
                  ", \"trace\": " + (opt.trace ? "1" : "0") +
                  ", \"host\": " + host_json() +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"completed\": " + std::to_string(out.completed) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const MetricValue& m = out.metrics[i];
    s += (i ? ", " : "") + json_string(m.name) +
         ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  s += "}, \"checks\": [";
  for (std::size_t i = 0; i < out.checks.size(); ++i) {
    const Check& c = out.checks[i];
    s += std::string(i ? ", " : "") + "{\"name\": " + json_string(c.name) +
         ", \"ok\": " + (c.ok ? "true" : "false") +
         ", \"detail\": " + json_string(c.detail) + "}";
  }
  s += "], \"info\": {";
  for (std::size_t i = 0; i < out.info.size(); ++i) {
    s += (i ? ", " : "") + json_string(out.info[i].first) + ": " +
         out.info[i].second;
  }
  return s + "}, \"spans_file\": " + json_string(spans_file) + "}";
}

int run(const Options& opt) {
  Outcome out;
  if (opt.workload == "online") {
    out = run_online(opt);
  } else if (opt.workload == "archive") {
    out = run_archive(opt);
  } else {
    out = run_search(opt);
  }
  std::string spans_file;
  if (opt.trace) {
    SpanLog::global().enable(true);
    probe_layers(opt, out);
    SpanLog::global().enable(false);
    spans_file = opt.out_dir + "/spans-" + opt.workload + "-" +
                 std::to_string(opt.seed) + ".json";
    const std::size_t spans = SpanLog::global().size();
    out.check("spans_written",
              spans > 0 && SpanLog::global().write_json(spans_file),
              std::to_string(spans) + " spans to " + spans_file);
  }
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  bool ok = true;
  for (const Check& c : out.checks) {
    if (!c.ok) {
      std::fprintf(stderr, "perfbench: check %s FAILED: %s\n", c.name.c_str(),
                   c.detail.c_str());
      ok = false;
    }
  }
  std::printf("%s\n", report_json(opt, out, spans_file).c_str());
  std::fflush(stdout);
  return ok ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::string(value) == "1";
    } else if (key == "--online-rate") {
      opt.online_rate = std::strtod(value, nullptr);
    } else if (key == "--online-slo-ms") {
      opt.online_slo_ms = std::strtod(value, nullptr);
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      return perfbench::usage(argv[0]);
    }
  }
  const bool known_workload = opt.workload == "online" ||
                              opt.workload == "archive" ||
                              opt.workload == "search";
  if (argc % 2 == 0 || !have_seed || !known_workload || opt.seconds <= 0.0 ||
      opt.online_rate <= 0.0 || opt.online_slo_ms <= 0.0) {
    return perfbench::usage(argv[0]);
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
