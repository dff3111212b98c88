#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "sdl/embedding.hpp"
#include "sim/clipgen.hpp"
#include "sim/world.hpp"

namespace perfbench {

namespace {
constexpr std::int64_t kImageSize = 32;
constexpr std::int64_t kFrames = 8;
constexpr std::uint64_t kModelSeed = 7;
}  // namespace

std::shared_ptr<core::ScenarioExtractor> build_extractor() {
  core::ModelConfig cfg;
  cfg.frames = kFrames;
  cfg.image_size = kImageSize;
  cfg.patch_size = 8;
  cfg.tubelet_frames = 1;
  cfg.dim = 48;
  cfg.depth = 4;
  cfg.heads = 4;
  cfg.mlp_ratio = 2;
  cfg.attention = core::AttentionKind::kDividedST;
  auto extractor = std::make_shared<core::ScenarioExtractor>(cfg, kModelSeed);
  extractor->freeze();
  return extractor;
}

std::vector<sim::VideoClip> make_clips(std::uint64_t seed, std::size_t count) {
  sim::RenderConfig render;
  render.height = render.width = kImageSize;
  render.frames = kFrames;
  sim::ClipGenerator gen(render, mix64(seed));
  std::vector<sim::VideoClip> clips;
  clips.reserve(count);
  for (std::size_t i = 0; i < count; ++i) clips.push_back(gen.generate().video);
  return clips;
}

bool same_result(const core::ExtractionResult& a,
                 const core::ExtractionResult& b) {
  return sdl::to_slot_labels(a.description) ==
             sdl::to_slot_labels(b.description) &&
         std::memcmp(a.confidence.data(), b.confidence.data(),
                     a.confidence.size() * sizeof(float)) == 0 &&
         a.warnings == b.warnings;
}

std::vector<ix::StructuredQuery> make_queries(std::uint64_t seed,
                                              std::size_t count) {
  tensor::Rng rng(mix64(seed ^ 0x9e7e5ull));
  SeededStream pick(seed, 30);
  std::vector<ix::StructuredQuery> queries(count);
  for (std::size_t q = 0; q < count; ++q) {
    ix::StructuredQuery& query = queries[q];
    query.like = sim::sample_description(rng);
    query.k = 10;
    if (q % 2 == 0) continue;
    const ix::PackedLabels labels = ix::pack_labels(query.like);
    const std::size_t predicates = 1 + pick.below(2);
    for (std::size_t p = 0; p < predicates; ++p) {
      const std::size_t slot = pick.below(sdl::kNumSlots);
      query.predicates.push_back(ix::SlotPredicate::equals(
          static_cast<sdl::Slot>(slot), labels[slot]));
    }
  }
  return queries;
}

sdl::ScenarioDescription RecallSet::sample_document(tensor::Rng& rng) const {
  for (;;) {
    sdl::ScenarioDescription d = sim::sample_description(rng);
    if (held_out.count(ix::pack_labels(d)) == 0) return d;
  }
}

RecallSet make_recall_set(std::uint64_t seed, std::size_t count) {
  RecallSet set;
  set.queries = make_queries(mix64(seed ^ 0x7ec411ull), count);
  for (const ix::StructuredQuery& q : set.queries) {
    set.held_out.insert(ix::pack_labels(q.like));
  }
  return set;
}

std::vector<double> recall_at_k(const ix::IvfIndex& ivf,
                                const ix::FlatIndex& flat,
                                const std::vector<ix::StructuredQuery>& queries,
                                const std::vector<std::size_t>& nprobes) {
  std::vector<std::size_t> found(nprobes.size(), 0);
  std::size_t wanted = 0;
  for (const ix::StructuredQuery& query : queries) {
    const std::vector<float> vec = sdl::scenario_to_vector(query.like);
    const std::vector<ix::Hit> exact =
        flat.search_vector(vec, query.k, query.predicates);
    wanted += exact.size();
    for (std::size_t p = 0; p < nprobes.size(); ++p) {
      const std::vector<ix::Hit> approx =
          ivf.search_vector(vec, query.k, query.predicates, nprobes[p]);
      for (const ix::Hit& e : exact) {
        const bool hit = std::any_of(
            approx.begin(), approx.end(),
            [&](const ix::Hit& a) { return a.id == e.id; });
        if (hit) ++found[p];
      }
    }
  }
  std::vector<double> recall;
  for (std::size_t f : found) {
    recall.push_back(wanted == 0 ? 1.0
                                 : static_cast<double>(f) /
                                       static_cast<double>(wanted));
  }
  return recall;
}

std::string ivf_config_json(const ix::IvfIndex& ivf, const ix::IvfConfig& cfg) {
  return "{\"nlist\": " + std::to_string(ivf.nlist()) +
         ", \"nprobe\": " + std::to_string(ivf.nprobe()) +
         ", \"train_size\": " + std::to_string(cfg.train_size) +
         ", \"kmeans_iters\": " + std::to_string(cfg.kmeans_iters) +
         ", \"k\": 10, \"docs\": " + std::to_string(ivf.size()) + "}";
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void latency_metrics(const std::vector<double>& ordered, std::size_t window,
                     Outcome& out) {
  // The tail is a p95, not a p99. On a shared host a request that overlaps
  // one slice of CPU stolen by the hypervisor lands in the top 1%, so a p99
  // of millisecond requests follows the host's steal from run to run. A p95
  // keeps the queueing tail, and its 200-sample windows let a run hold
  // enough of them that a stretch of steal moves one window, not the median.
  const std::size_t smallest = smallest_window(ordered.size(), window);
  out.check("p95_supported", tail_supported(smallest, 95.0),
            std::to_string(samples_beyond(smallest, 95.0)) +
                " samples beyond p95 per window (need " +
                std::to_string(kMinTailSamples) + ")");
  out.metric("latency_p50_ms", windowed_percentile(ordered, 50.0, window),
             "ms");
  out.metric("latency_p95_ms", windowed_percentile(ordered, 95.0, window),
             "ms");
  out.info.emplace_back("latency_p99_ms_whole_run",
                        json_number(percentile(ordered, 99.0)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter_value(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

HistSnapshot HistSnapshot::take(const std::string& name) {
  const obs::Histogram& h = obs::Registry::global().histogram(name);
  HistSnapshot s;
  s.bounds = h.bounds();
  s.counts.resize(s.bounds.size() + 1);
  for (std::size_t i = 0; i < s.counts.size(); ++i) {
    s.counts[i] = h.bucket_count(i);
  }
  s.sum = h.sum();
  return s;
}

HistSnapshot HistSnapshot::since(const HistSnapshot& earlier) const {
  HistSnapshot d = *this;
  const std::size_t buckets = std::min(d.counts.size(), earlier.counts.size());
  for (std::size_t i = 0; i < buckets; ++i) d.counts[i] -= earlier.counts[i];
  d.sum -= earlier.sum;
  return d;
}

std::uint64_t HistSnapshot::count() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  return n;
}

double HistSnapshot::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double HistSnapshot::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const std::size_t rank = percentile_rank(n, q);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (below + counts[i] >= rank) {
      // Overflow bucket: no upper bound to interpolate towards.
      if (i == bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double frac = static_cast<double>(rank - below) /
                          static_cast<double>(counts[i]);
      return lo + frac * (bounds[i] - lo);
    }
    below += counts[i];
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

ServeCounters ServeCounters::take() {
  ServeCounters c;
  c.submitted = counter_value("serve.submitted");
  c.completed = counter_value("serve.completed");
  c.failed = counter_value("serve.failed");
  c.expired = counter_value("serve.deadline_expired");
  c.shed = counter_value("serve.shed");
  c.cancelled = counter_value("serve.cancelled");
  return c;
}

ServeCounters ServeCounters::since(const ServeCounters& e) const {
  ServeCounters d;
  d.submitted = submitted - e.submitted;
  d.completed = completed - e.completed;
  d.failed = failed - e.failed;
  d.expired = expired - e.expired;
  d.shed = shed - e.shed;
  d.cancelled = cancelled - e.cancelled;
  return d;
}

std::int64_t ServeCounters::conservation_gap() const {
  const std::uint64_t resolved =
      completed + failed + expired + shed + cancelled;
  return static_cast<std::int64_t>(submitted) -
         static_cast<std::int64_t>(resolved);
}

ServeSnapshot ServeSnapshot::take() {
  return {HistSnapshot::take("obs.segment_ms.admission"),
          HistSnapshot::take("obs.segment_ms.queue"),
          HistSnapshot::take("obs.segment_ms.batch_wait"),
          HistSnapshot::take("obs.segment_ms.execute"),
          HistSnapshot::take("serve.batch_size")};
}

void serve_layer_metrics(const ServeSnapshot& before, const char* submit_span,
                         double workers, double wall_ms, std::int64_t gap,
                         Outcome& out) {
  const ServeSnapshot now = ServeSnapshot::take();
  const HistSnapshot execute = now.execute.since(before.execute);
  const HistSnapshot batch = now.batch_size.since(before.batch_size);
  out.metric("serve.submit_us_p50",
             median(SpanLog::global().durations_us(submit_span)), "us");
  out.metric("serve.admission_ms_p50",
             now.admission.since(before.admission).quantile(50.0), "ms");
  out.metric("serve.batch_wait_ms_p50",
             now.batch_wait.since(before.batch_wait).quantile(50.0), "ms");
  out.metric("serve.execute_ms_p50", execute.quantile(50.0), "ms");
  out.metric("serve.queue_ms_p99", now.queue.since(before.queue).quantile(99.0),
             "ms");
  out.metric("serve.queue_depth_max",
             static_cast<double>(
                 obs::Registry::global().gauge("serve.queue_depth_max").value()),
             "count");
  out.metric("serve.batch_size_mean", batch.mean(), "count");
  // Every request of a batch carries the batch's execute time, so the
  // summed request execute time over the mean batch size is busy time.
  out.metric("serve.worker_busy_share",
             batch.mean() > 0.0
                 ? execute.sum / batch.mean() / (workers * wall_ms)
                 : 0.0,
             "share");
  out.metric("serve.conservation_gap", static_cast<double>(gap), "count");
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

void SpanLog::record(const char* name, std::uint64_t id, const char* parent,
                     Clock::time_point start, Clock::time_point end) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, id, parent, ns(start), ns(end)});
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %llu, \"parent\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 s.name, static_cast<unsigned long long>(s.id), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
