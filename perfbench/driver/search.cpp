// search.cpp — the `search` workload: scenario search while the archive
// grows.
//
// A prebuilt IvfIndex holds more documents than the last-level cache can
// keep (its vectors alone exceed 100 MB). A closed-loop reader issues a
// seeded mix of similarity-only and predicate-pushdown queries while one
// writer inserts at a fixed rate, so the index is read while it is written
// and lock contention shows. No model runs: a kernel or serving change must
// leave this workload unchanged.
#include <algorithm>
#include <cstring>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "sdl/embedding.hpp"
#include "serve/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kDocs = 500000;
/// One reader. IvfIndex::search holds the index's one mutex for the whole
/// scan, so a second reader never overlaps the first: it adds no
/// throughput, only a lock handoff per query, and each handoff waits for
/// the other thread to be scheduled. On a host that steals CPU, those waits
/// set the tail (perfbench/README.md, "search").
constexpr std::size_t kReaders = 1;
constexpr double kWriterRate = 200.0;  // inserts per second
constexpr std::size_t kQueries = 4096;
constexpr std::size_t kSetups = 7;
/// Every this-many-th result of a reader is kept and verified after the
/// pass.
constexpr std::size_t kVerifyEvery = 8;
constexpr std::size_t kRecallQueries = 200;
/// Length of each single-reader probe of a traced run.
constexpr double kProbeSeconds = 1.0;

using Doc = std::pair<ix::DocId, sdl::ScenarioDescription>;

struct Kept {
  std::size_t query;
  std::vector<ix::Hit> hits;
};

struct Pass {
  double seconds = 0.0;
  std::vector<double> start_s;     ///< query start, seconds into the pass
  std::vector<double> latency_ms;  ///< in start order
  std::vector<Kept> kept;
  std::size_t failed = 0;
};

Clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// kReaders closed-loop readers for `seconds`. When `writer_docs` is not
/// null, one writer inserts from it at kWriterRate, from `*next_doc` on.
Pass run_pass(ix::IvfIndex& index,
              const std::vector<ix::StructuredQuery>& queries, double seconds,
              const std::vector<Doc>* writer_docs, std::size_t* next_doc) {
  Pass pass;
  pass.seconds = seconds;
  std::mutex mutex;
  std::vector<std::pair<double, double>> timed;  // start_s, latency_ms
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + from_seconds(seconds);
  const std::size_t roles = kReaders + (writer_docs != nullptr ? 1 : 0);
  serve::ThreadPool::run(roles, [&](std::size_t role) {
    if (role == kReaders) {
      for (std::size_t i = 0; *next_doc < writer_docs->size(); ++i) {
        const Clock::time_point due =
            start + from_seconds(static_cast<double>(i) / kWriterRate);
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        const Doc& doc = (*writer_docs)[(*next_doc)++];
        ScopedSpan span("index.insert", doc.first, "bench.writer");
        index.insert(doc.first, doc.second);
      }
      return;
    }
    std::vector<std::pair<double, double>> mine;
    std::vector<Kept> kept;
    std::size_t failed = 0;
    for (std::size_t n = 0;; ++n) {
      const std::size_t q = (n * kReaders + role) % queries.size();
      const Clock::time_point t0 = Clock::now();
      if (t0 >= end) break;
      try {
        std::vector<ix::Hit> hits;
        {
          ScopedSpan span("index.search", q + 1, "bench.reader");
          hits = index.search(queries[q]);
        }
        mine.emplace_back(seconds_between(start, t0),
                          seconds_between(t0, Clock::now()) * 1e3);
        if (n % kVerifyEvery == 0) kept.push_back({q, std::move(hits)});
      } catch (const std::exception&) {
        ++failed;
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    timed.insert(timed.end(), mine.begin(), mine.end());
    for (Kept& k : kept) pass.kept.push_back(std::move(k));
    pass.failed += failed;
  });
  std::sort(timed.begin(), timed.end());
  for (const auto& [t, ms] : timed) {
    pass.start_s.push_back(t);
    pass.latency_ms.push_back(ms);
  }
  return pass;
}

/// A result is right when it holds at most k documents the index was given
/// (`prebuilt` and the first `written` of `writer_docs`), each passing every
/// predicate and scored with the exact cosine of its stored vector, in
/// strict (score desc, id asc) order.
bool verify(const ix::StructuredQuery& query, const std::vector<ix::Hit>& hits,
            const std::vector<Doc>& prebuilt,
            const std::vector<Doc>& writer_docs, std::size_t written) {
  if (hits.size() > query.k) return false;
  const std::vector<float> qvec = sdl::scenario_to_vector(query.like);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const ix::Hit& h = hits[i];
    const sdl::ScenarioDescription* doc = nullptr;
    if (h.id < prebuilt.size()) {
      doc = &prebuilt[h.id].second;
    } else if (h.id - prebuilt.size() < written) {
      doc = &writer_docs[h.id - prebuilt.size()].second;
    } else {
      return false;
    }
    if (!ix::matches_all(query.predicates, ix::pack_labels(*doc))) {
      return false;
    }
    const float score =
        sdl::cosine_similarity(qvec, sdl::scenario_to_vector(*doc));
    if (std::memcmp(&score, &h.score, sizeof(float)) != 0) return false;
    if (i > 0) {
      const ix::Hit& prev = hits[i - 1];
      if (prev.score < h.score || (prev.score == h.score && prev.id >= h.id)) {
        return false;
      }
    }
  }
  return true;
}

/// Median over one-second windows of the query rate.
double queries_per_s(const Pass& p) {
  return windowed_rate(p.start_s, p.seconds, 1.0);
}

double memory_mib(const ix::IvfIndex& index) {
  return static_cast<double>(index.memory_bytes()) / (1 << 20);
}

}  // namespace

Outcome run_search(const Options& opt) {
  Outcome out;

  // Inputs, all from --seed, before any clock starts: the recall queries,
  // the archive and the writer's documents (ids continue after the
  // archive's; neither holds a recall query's slot labels), the queries.
  const RecallSet recall = make_recall_set(opt.seed, kRecallQueries);
  tensor::Rng rng(mix64(opt.seed ^ 0x5ea4c4ull));
  std::vector<Doc> prebuilt;
  prebuilt.reserve(kDocs);
  for (std::size_t i = 0; i < kDocs; ++i) {
    prebuilt.emplace_back(i, recall.sample_document(rng));
  }
  std::vector<Doc> writer_docs;
  const auto max_writes = static_cast<std::size_t>(
      kWriterRate * (opt.seconds + 2 * kProbeSeconds) + 16);
  for (std::size_t i = 0; i < max_writes; ++i) {
    writer_docs.emplace_back(kDocs + i, recall.sample_document(rng));
  }
  const std::vector<ix::StructuredQuery> queries =
      make_queries(opt.seed, kQueries);

  // Set-up: the index prebuild (embedding, IVF training, list fill).
  const ix::IvfConfig ivf_cfg;
  std::vector<double> setup_s;
  std::unique_ptr<ix::IvfIndex> index;
  for (std::size_t s = 0; s < kSetups; ++s) {
    index.reset();
    const auto start = Clock::now();
    index = std::make_unique<ix::IvfIndex>(ivf_cfg);
    index->insert_batch(prebuilt);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  out.metric("setup_s", median(setup_s), "s");

  // A traced run splits its time between an untraced and a traced pass.
  const double pass_seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  std::size_t next_doc = 0;
  const Pass pass =
      run_pass(*index, queries, pass_seconds, &writer_docs, &next_doc);
  const HistSnapshot scanned0 = HistSnapshot::take("index.scanned_rows");
  const HistSnapshot probed0 = HistSnapshot::take("index.probe_lists");
  Pass traced;
  if (opt.trace) {
    SpanLog::global().enable(true);
    traced =
        run_pass(*index, queries, pass_seconds, &writer_docs, &next_doc);
    SpanLog::global().enable(false);
  }
  const HistSnapshot scanned =
      HistSnapshot::take("index.scanned_rows").since(scanned0);
  const HistSnapshot probed =
      HistSnapshot::take("index.probe_lists").since(probed0);

  // Outputs: the kept results, verified against the documents themselves.
  const std::size_t written = next_doc;
  const auto verified_share = [&](const Pass& p) {
    std::size_t correct = 0;
    for (const Kept& k : p.kept) {
      if (verify(queries[k.query], k.hits, prebuilt, writer_docs, written)) {
        ++correct;
      }
    }
    return p.kept.empty() ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(p.kept.size());
  };
  const double match = verified_share(pass);
  out.check("output_match",
            match == 1.0 && (!opt.trace || verified_share(traced) == 1.0),
            "share of sampled results verified: " + json_number(match) +
                " (" + std::to_string(pass.kept.size()) + " sampled)");
  out.check("index_holds_every_doc", index->size() == kDocs + written,
            std::to_string(index->size()) + " of " +
                std::to_string(kDocs + written) + " documents indexed");

  const std::size_t attempted = pass.latency_ms.size() + pass.failed;
  out.attempted = attempted;
  out.completed = pass.latency_ms.size();
  out.failed = pass.failed;
  out.metric("throughput_per_s", queries_per_s(pass), "1/s");
  latency_metrics(pass.latency_ms, kWindowSamples, out);
  out.metric("success_rate",
             static_cast<double>(out.completed) /
                 static_cast<double>(attempted),
             "share");
  out.metric("output_match", match, "share");
  out.info.emplace_back("writes", std::to_string(written));
  out.info.emplace_back("index_memory_mib", json_number(memory_mib(*index)));

  if (opt.trace) {
    // The reader alone, then beside the writer.
    const Pass alone =
        run_pass(*index, queries, kProbeSeconds, nullptr, nullptr);
    const Pass beside =
        run_pass(*index, queries, kProbeSeconds, &writer_docs, &next_doc);
    const double alone_p50 = median(alone.latency_ms);
    out.metric("index.search_ms_p50", alone_p50, "ms");
    out.metric("index.write_contention_ratio",
               median(beside.latency_ms) / alone_p50, "ratio");
    out.metric("index.scanned_rows_per_query", scanned.mean(), "count");
    out.metric("index.probed_lists_per_query", probed.mean(), "count");
    out.metric("index.insert_us",
               median(SpanLog::global().durations_us("index.insert")), "us");
    out.metric("index.memory_mb", memory_mib(*index), "MiB");
    out.metric("obs.tracing_overhead_pct",
               (queries_per_s(pass) / queries_per_s(traced) - 1.0) * 100.0,
               "%");
  }

  // recall@10 against an exact scan of the same documents, at the default
  // nprobe and at nprobe 1; outside every timed region.
  ix::FlatIndex flat;
  for (const Doc& d : prebuilt) flat.insert(d.first, d.second);
  for (std::size_t i = 0; i < next_doc; ++i) {
    flat.insert(writer_docs[i].first, writer_docs[i].second);
  }
  const std::vector<double> recalls =
      recall_at_k(*index, flat, recall.queries, {index->nprobe(), 1});
  out.metric("recall_at_10", recalls[0], "share");
  out.info.emplace_back("recall_ivf_config", ivf_config_json(*index, ivf_cfg));
  out.info.emplace_back("recall_at_10_nprobe1", json_number(recalls[1]));
  return out;
}

}  // namespace perfbench
