// archive.cpp — the `archive` workload: batch ingest of a clip archive.
//
// One producer pushes a fixed corpus of distinct clips through a single
// InferenceServer as fast as it accepts them (kBlock), and every result
// streams through IndexIngestor into an IvfIndex that already holds a
// trained archive. A round ends when the index holds every clip of the
// corpus. Batches are full, so model compute and index writes dominate; the
// router is not involved and per-request latency barely matters.
#include <algorithm>
#include <future>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "index/ingest.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCorpus = 256;
constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kSetups = 21;
/// Documents already archived before the run (the IVF quantizer trains on
/// them at set-up); their ids sit far above any server sequence number.
constexpr std::size_t kPrebuilt = 20000;
constexpr ix::DocId kPrebuiltIdBase = ix::DocId{1} << 40;
constexpr std::size_t kRecallQueries = 200;

using Doc = std::pair<ix::DocId, sdl::ScenarioDescription>;

/// Forwards to the IVF index and records an "index.insert" span around each
/// insert, so a traced run times the writes the ingestor makes.
class TimedBackend : public ix::ScenarioIndexBackend {
 public:
  explicit TimedBackend(ix::ScenarioIndexBackend& inner) : inner_(inner) {}
  void insert(ix::DocId id, const sdl::ScenarioDescription& d) override {
    ScopedSpan span("index.insert", id, "index.ingest");
    inner_.insert(id, d);
  }
  std::vector<ix::Hit> search(const ix::StructuredQuery& query) const override {
    return inner_.search(query);
  }
  std::size_t size() const override { return inner_.size(); }

 private:
  ix::ScenarioIndexBackend& inner_;
};

/// Everything a run serves through, declared so that destruction runs
/// server -> ingestor -> index: each piece feeds the one before it.
struct Rig {
  std::shared_ptr<core::ScenarioExtractor> extractor;
  std::unique_ptr<ix::IvfIndex> index;
  std::unique_ptr<TimedBackend> backend;
  std::unique_ptr<ix::IndexIngestor> ingestor;
  std::mutex done_mutex;
  /// (sequence, when) of each result the server delivered this round.
  std::vector<std::pair<std::uint64_t, Clock::time_point>> done;
  std::unique_ptr<serve::InferenceServer> server;
  std::uint64_t next_sequence = 0;

  ~Rig() {
    server.reset();
    if (ingestor) ingestor->close();
  }
};

void wait_for_size(const ix::IvfIndex& index, std::size_t size) {
  while (index.size() < size) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

std::unique_ptr<Rig> set_up(const std::vector<Doc>& prebuilt,
                            const std::vector<sim::VideoClip>& corpus) {
  auto rig = std::make_unique<Rig>();
  rig->extractor = build_extractor();
  rig->index = std::make_unique<ix::IvfIndex>();
  rig->index->insert_batch(prebuilt);
  rig->backend = std::make_unique<TimedBackend>(*rig->index);
  rig->ingestor = std::make_unique<ix::IndexIngestor>(*rig->backend);
  serve::ServerConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.overflow = serve::OverflowPolicy::kBlock;
  Rig* r = rig.get();
  cfg.on_result = [r, sink = rig->ingestor->sink()](
                      const serve::CompletionInfo& info) {
    {
      std::lock_guard<std::mutex> lock(r->done_mutex);
      r->done.emplace_back(info.sequence, Clock::now());
    }
    sink(info);
  };
  rig->server = std::make_unique<serve::InferenceServer>(rig->extractor, cfg);
  // One full batch through server, ingestor and index, so first-request
  // work counts as set-up.
  std::vector<std::future<core::ExtractionResult>> warm;
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    warm.push_back(rig->server->submit(corpus[i]));
  }
  for (auto& f : warm) f.get();
  rig->next_sequence = kMaxBatch;
  wait_for_size(*rig->index, prebuilt.size() + kMaxBatch);
  return rig;
}

struct Round {
  double seconds = 0.0;
  double drain_ms = 0.0;  ///< last result delivered -> index holds all
  std::vector<double> latency_ms;
  std::size_t succeeded = 0;
  std::size_t matched = 0;
};

Round run_round(Rig& rig, const std::vector<sim::VideoClip>& corpus,
                const std::vector<core::ExtractionResult>& oracle) {
  std::vector<sim::VideoClip> copies = corpus;  // the producer's inputs
  // One producer, so sequence numbers follow submission order.
  const std::uint64_t base = rig.next_sequence;
  const std::size_t target = rig.index->size() + corpus.size();
  {
    std::lock_guard<std::mutex> lock(rig.done_mutex);
    rig.done.clear();
  }
  std::vector<Clock::time_point> submitted(corpus.size());
  std::vector<std::future<core::ExtractionResult>> futures;
  futures.reserve(corpus.size());

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < copies.size(); ++i) {
    submitted[i] = Clock::now();
    ScopedSpan span("serve.submit", base + i, "bench.round");
    futures.push_back(rig.server->submit(std::move(copies[i])));
  }
  Round round;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      const core::ExtractionResult result = futures[i].get();
      ++round.succeeded;
      if (same_result(result, oracle[i])) ++round.matched;
    } catch (const std::exception&) {
    }
  }
  wait_for_size(*rig.index, target);
  const Clock::time_point end = Clock::now();
  rig.next_sequence = base + corpus.size();

  round.seconds = seconds_between(start, end);
  std::lock_guard<std::mutex> lock(rig.done_mutex);
  Clock::time_point last = start;
  for (const auto& [sequence, when] : rig.done) {
    last = std::max(last, when);
    if (sequence >= base && sequence - base < submitted.size()) {
      round.latency_ms.push_back(
          seconds_between(submitted[sequence - base], when) * 1e3);
    }
  }
  round.drain_ms = seconds_between(last, end) * 1e3;
  if (SpanLog::global().enabled()) {
    SpanLog::global().record("bench.round", base, "", start, end);
    SpanLog::global().record("index.ingest_drain", base, "bench.round", last,
                             end);
  }
  return round;
}

/// Rounds until `seconds` have passed (at least one).
std::vector<Round> run_rounds(Rig& rig,
                              const std::vector<sim::VideoClip>& corpus,
                              const std::vector<core::ExtractionResult>& oracle,
                              double seconds) {
  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  do {
    rounds.push_back(run_round(rig, corpus, oracle));
  } while (seconds_between(start, Clock::now()) < seconds);
  return rounds;
}

/// Median over rounds of clips per second.
double median_throughput(const std::vector<Round>& rounds) {
  std::vector<double> per_round;
  for (const Round& r : rounds) {
    per_round.push_back(static_cast<double>(r.succeeded) / r.seconds);
  }
  return median(per_round);
}

}  // namespace

Outcome run_archive(const Options& opt) {
  Outcome out;

  // Inputs, all from --seed, before any clock starts. The prebuilt archive
  // holds no recall query's slot labels.
  const std::vector<sim::VideoClip> corpus = make_clips(opt.seed, kCorpus);
  const RecallSet recall = make_recall_set(opt.seed, kRecallQueries);
  std::vector<Doc> prebuilt;
  tensor::Rng rng(mix64(opt.seed ^ 0xa4c41e5ull));
  for (std::size_t i = 0; i < kPrebuilt; ++i) {
    prebuilt.emplace_back(kPrebuiltIdBase + i, recall.sample_document(rng));
  }

  // Set-up: model build and freeze, the archive's index prebuild (IVF
  // training included), ingestor and server start, one warm-up batch.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (std::size_t s = 0; s < kSetups; ++s) {
    rig.reset();
    const auto start = Clock::now();
    rig = set_up(prebuilt, corpus);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  out.metric("setup_s", median(setup_s), "s");

  std::vector<core::ExtractionResult> oracle;
  oracle.reserve(corpus.size());
  for (const sim::VideoClip& clip : corpus) {
    oracle.push_back(rig->extractor->extract(clip));
  }

  // A traced run splits its time between an untraced and a traced pass.
  const ServeCounters serve0 = ServeCounters::take();
  const double pass_seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const std::vector<Round> rounds =
      run_rounds(*rig, corpus, oracle, pass_seconds);

  const ServeSnapshot serve_before = ServeSnapshot::take();
  std::vector<Round> traced;
  if (opt.trace) {
    SpanLog::global().enable(true);
    traced = run_rounds(*rig, corpus, oracle, pass_seconds);
    SpanLog::global().enable(false);
  }
  rig->server->drain();
  rig->ingestor->close();

  const std::int64_t gap =
      ServeCounters::take().since(serve0).conservation_gap();
  out.check("request_conservation", gap == 0,
            "serve submitted - resolved = " + std::to_string(gap));
  const std::uint64_t dropped = rig->ingestor->dropped();
  out.check("ingest_dropped_zero", dropped == 0,
            std::to_string(dropped) + " results dropped by the ingestor");
  const std::size_t all_rounds = rounds.size() + traced.size();
  const std::size_t expected = kPrebuilt + kMaxBatch + all_rounds * kCorpus;
  out.check("index_holds_every_clip", rig->index->size() == expected,
            std::to_string(rig->index->size()) + " of " +
                std::to_string(expected) + " documents indexed");

  std::size_t attempted = 0, succeeded = 0, matched = 0;
  std::vector<double> latency;
  for (const Round& r : rounds) {
    attempted += kCorpus;
    succeeded += r.succeeded;
    matched += r.matched;
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
  }
  bool all_match = matched == succeeded;
  for (const Round& r : traced) {
    all_match = all_match && r.matched == r.succeeded;
  }
  out.check("output_match", all_match,
            std::to_string(matched) + " of " + std::to_string(succeeded) +
                " untraced results match the oracle");

  out.attempted = attempted;
  out.completed = succeeded;
  out.failed = attempted - succeeded;
  out.metric("throughput_per_s", median_throughput(rounds), "1/s");
  // One window per round: a clip's latency depends on its place in the
  // round, so every window holds each place once.
  latency_metrics(latency, kCorpus, out);
  out.metric("success_rate",
             static_cast<double>(succeeded) / static_cast<double>(attempted),
             "share");
  out.metric("output_match",
             succeeded == 0 ? 0.0
                            : static_cast<double>(matched) /
                                  static_cast<double>(succeeded),
             "share");
  out.info.emplace_back("rounds", std::to_string(rounds.size()));
  out.info.emplace_back("corpus_clips", std::to_string(kCorpus));

  // recall@10 of the archive's IVF over what it now holds, against an exact
  // scan of the same documents; outside every timed region. Server sequence
  // s carried corpus clip s (warm-up) or (s - warm-up) mod corpus.
  ix::FlatIndex flat;
  for (const auto& [id, d] : prebuilt) flat.insert(id, d);
  for (std::uint64_t s = 0; s < kMaxBatch + all_rounds * kCorpus; ++s) {
    const std::uint64_t clip = s < kMaxBatch ? s : (s - kMaxBatch) % kCorpus;
    flat.insert(s, oracle[clip].description);
  }
  const std::vector<double> recalls = recall_at_k(
      *rig->index, flat, recall.queries, {rig->index->nprobe(), 1});
  out.metric("recall_at_10", recalls[0], "share");
  out.info.emplace_back("recall_ivf_config",
                        ivf_config_json(*rig->index, ix::IvfConfig{}));
  out.info.emplace_back("recall_at_10_nprobe1", json_number(recalls[1]));

  if (opt.trace) {
    double traced_wall_ms = 0.0;
    std::vector<double> drain_ms;
    for (const Round& r : traced) {
      traced_wall_ms += r.seconds * 1e3;
      drain_ms.push_back(r.drain_ms);
    }
    serve_layer_metrics(serve_before, "serve.submit",
                        static_cast<double>(rig->server->config().workers),
                        traced_wall_ms, gap, out);
    out.metric("index.insert_us",
               median(SpanLog::global().durations_us("index.insert")), "us");
    out.metric("index.ingest_drain_ms", median(drain_ms), "ms");
    out.metric("index.ingest_dropped", static_cast<double>(dropped), "count");
    out.metric("index.memory_mb",
               static_cast<double>(rig->index->memory_bytes()) / (1 << 20),
               "MiB");
    out.metric("obs.tracing_overhead_pct",
               (median_throughput(rounds) / median_throughput(traced) - 1.0) *
                   100.0,
               "%");
  }
  return out;
}

}  // namespace perfbench
