// bench.hpp — shared harness of the repository benchmark (perfbench).
//
// A run is one process: one workload, one seed, one mode. Untraced runs
// measure the end-to-end metrics; traced runs (--trace 1) record the
// benchmark's own spans around each public call and derive the per-layer
// metrics from them and from registry deltas. Nothing here reaches inside
// the library: the benchmark drives public entry points and reads metrics
// the library already exports.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/extractor.hpp"
#include "index/flat.hpp"
#include "index/ivf.hpp"
#include "obs/metrics.hpp"
#include "sim/render.hpp"
#include "stats.hpp"

// Declared here so the aliases below resolve in files that include only
// some of the library headers.
namespace tsdx::par {}
namespace tsdx::plan {}
namespace tsdx::serve {}

namespace perfbench {

namespace core = tsdx::core;
namespace data = tsdx::data;
namespace ix = tsdx::index;  // POSIX ::index() shadows a bare `index`
namespace nn = tsdx::nn;
namespace obs = tsdx::obs;
namespace par = tsdx::par;
namespace plan = tsdx::plan;
namespace sdl = tsdx::sdl;
namespace serve = tsdx::serve;
namespace sim = tsdx::sim;
namespace tensor = tsdx::tensor;

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Open-loop offered load and latency limit of the `online` workload.
  /// run.py reads both from BENCHMARK.json; they are never derived here.
  double online_rate = 0.0;
  double online_slo_ms = 0.0;
  /// Where the run report and span file go.
  std::string out_dir = ".";
};

/// One correctness check. A failed check fails the run (exit status 3).
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// What a workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  ///< failed + shed + expired + rejected
  std::vector<MetricValue> metrics;
  std::vector<Check> checks;
  /// Free-form report fields (configuration echoes such as the IVF config
  /// behind recall_at_10), as preformatted JSON values.
  std::vector<std::pair<std::string, std::string>> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
};

// ---- model and inputs -------------------------------------------------------

/// The served model: the bench-scale DividedST video transformer (8 frames,
/// 32x32 px, dim 48, depth 4), untrained and frozen. Weights come from a
/// fixed seed, not --seed: the model is the program, not an input.
std::shared_ptr<core::ScenarioExtractor> build_extractor();

/// `count` distinct clips rendered from scenarios drawn with `seed`.
std::vector<sim::VideoClip> make_clips(std::uint64_t seed, std::size_t count);

/// Bitwise equality of two extraction results: labels, confidences (memcmp)
/// and warnings.
bool same_result(const core::ExtractionResult& a,
                 const core::ExtractionResult& b);

/// `count` seeded structured queries (k = 10). Even-numbered queries rank by
/// similarity alone; odd-numbered ones also push down one or two slot
/// predicates taken from the query's own labels, so they always match.
std::vector<ix::StructuredQuery> make_queries(std::uint64_t seed,
                                              std::size_t count);

/// The queries recall_at_10 is measured on, and the slot-label combinations
/// they hold out of the index. A document with a query's own slot labels
/// embeds to (nearly) the query's vector and sits in the list the query
/// probes first, so with such documents indexed recall reads 1 whatever
/// nprobe is. The workloads draw every indexed document through
/// sample_document(), so a query's exact top-k are its nearest *other*
/// scenarios, and recall shows whether the IVF probed the lists holding
/// them.
struct RecallSet {
  std::vector<ix::StructuredQuery> queries;
  std::set<ix::PackedLabels> held_out;

  /// A sim::sample_description draw whose slot labels no query has.
  sdl::ScenarioDescription sample_document(tensor::Rng& rng) const;
};

/// `count` seeded recall queries drawn as make_queries() draws them.
RecallSet make_recall_set(std::uint64_t seed, std::size_t count);

/// recall@k of `ivf` against the exact `flat` scan over the same documents,
/// at each of `nprobes`: the share of the flat top-k ids that the IVF top-k
/// also returns.
std::vector<double> recall_at_k(const ix::IvfIndex& ivf,
                                const ix::FlatIndex& flat,
                                const std::vector<ix::StructuredQuery>& queries,
                                const std::vector<std::size_t>& nprobes);

/// The IVF configuration as a JSON object, reported beside every recall.
std::string ivf_config_json(const ix::IvfIndex& ivf, const ix::IvfConfig& cfg);

// ---- measurement helpers ----------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b);

/// Median wall time (ms) of `fn` over `reps` calls after one warm-up call.
template <typename Fn>
double median_ms(std::size_t reps, const Fn& fn) {
  fn();
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    ms.push_back(seconds_between(start, Clock::now()) * 1e3);
  }
  return median(std::move(ms));
}

/// latency_p50_ms and latency_p95_ms of `ordered` (latencies in the order
/// taken), each the median over windows of at least `window` samples, and
/// the check that every window leaves kMinTailSamples beyond its p95. The
/// exact p99 of the whole run goes to the report's info, without a bound.
void latency_metrics(const std::vector<double>& ordered, std::size_t window,
                     Outcome& out);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Counter reading of obs::Registry::global() (registers the name if new).
std::uint64_t counter_value(const std::string& name);

/// Bucket counts and sum of one registry histogram at a point in time.
/// Take the first snapshot only after the component that owns the
/// histogram was constructed: the owner fixes its bucket bounds.
struct HistSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (last is +Inf)
  double sum = 0.0;

  static HistSnapshot take(const std::string& name);
  /// This snapshot minus an earlier one of the same histogram.
  HistSnapshot since(const HistSnapshot& earlier) const;
  std::uint64_t count() const;
  double mean() const;
  /// Quantile (q in [0, 100]) by linear interpolation inside the bucket
  /// holding the nearest-rank observation.
  double quantile(double q) const;
};

/// The serving request counters (serve.*) summed over every server that
/// reports into the global registry.
struct ServeCounters {
  std::uint64_t submitted = 0, completed = 0, failed = 0, expired = 0,
                shed = 0, cancelled = 0;
  static ServeCounters take();
  ServeCounters since(const ServeCounters& earlier) const;
  /// submitted - (completed + failed + expired + shed + cancelled): 0 once
  /// every accepted request has resolved.
  std::int64_t conservation_gap() const;
};

/// The serving histograms (obs.segment_ms.*, serve.batch_size) at a point
/// in time. Take it after the servers were constructed.
struct ServeSnapshot {
  HistSnapshot admission, queue, batch_wait, execute, batch_size;
  static ServeSnapshot take();
};

/// Appends the serve.* per-layer metrics of a traced pass: segment
/// quantiles and batch sizes since `before`, submit-span p50 over the spans
/// called `submit_span`, the queue-depth high-water mark, the busy share of
/// `workers` over `wall_ms`, and the request conservation gap `gap`.
void serve_layer_metrics(const ServeSnapshot& before, const char* submit_span,
                         double workers, double wall_ms, std::int64_t gap,
                         Outcome& out);

// ---- spans ------------------------------------------------------------------

/// In-memory span store for traced runs. A span has a name, the id of the
/// request (or probe) it belongs to, the name of the span that caused it
/// (empty for a root) and its start and end. Spans of one request share the
/// id. Disabled stores record nothing; spans are written out once, at exit
/// (write_json), never on the measured path.
class SpanLog {
 public:
  static SpanLog& global();
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void record(const char* name, std::uint64_t id, const char* parent,
              Clock::time_point start, Clock::time_point end);
  /// Durations (microseconds) of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;
  std::size_t size() const;
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    const char* parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::atomic<bool> enabled_{false};
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Scope-long span in the global SpanLog (no-op when tracing is off).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t id = 0, const char* parent = "")
      : name_(name),
        id_(id),
        parent_(parent),
        start_(SpanLog::global().enabled() ? Clock::now()
                                           : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (SpanLog::global().enabled()) {
      SpanLog::global().record(name_, id_, parent_, start_, Clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t id_;
  const char* parent_;
  Clock::time_point start_;
};

// ---- workloads --------------------------------------------------------------

Outcome run_online(const Options& opt);
Outcome run_archive(const Options& opt);
Outcome run_search(const Options& opt);

/// Workload-independent layer probes of a traced run: core, plan, tensor
/// and sdl timings on the served model, appended to `out`.
void probe_layers(const Options& opt, Outcome& out);

}  // namespace perfbench
