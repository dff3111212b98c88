// R-K1 — Compute-kernel throughput (tsdx::tensor::kernels): GFLOP/s of the
// cache-blocked, panel-packed GEMM vs the seed's scalar loop (which carried a
// per-element zero-test branch in the hot path), on the exact GEMM shapes the
// bench-scale DividedST extractor runs per clip: tubelet embedding, QKV
// projections, attention QKᵀ / A·V, and the MLP. A final section measures
// end-to-end single-clip forward throughput at 1 thread vs the full intra-op
// budget. The row kernels' throughput (GELU with its fused bias, softmax)
// is recorded too, in Melem/s at 1 thread: ungated context, since both are
// bounded by the vector exp in rows.hpp rather than by a GEMM.
//
// Expected shape: blocked-1t beats scalar on every shape (unit-stride packed
// panels auto-vectorize; the scalar loop's branch defeats vectorization), and
// the parallel column scales with cores on the larger shapes while small
// ones stay on the inline path (grain exceeds the row count).
//
// --smoke runs a reduced rep count and writes BENCH_K1.json (see
// tools/bench_gate.py, which the bench-smoke CI job runs against the
// committed bench/BENCH_K1_baseline.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/clipgen.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/kernels/rows.hpp"
#include "tensor/rng.hpp"

using namespace tsdx;
using namespace tsdx::bench;
namespace kernels = tsdx::tensor::kernels;

namespace {

/// The seed repo's matmul inner loop, kept verbatim as the baseline: row-wise
/// axpy with a per-element zero-skip branch, no blocking, no packing.
void seed_mm(std::int64_t m, std::int64_t k, std::int64_t n, const float* a,
             const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      if (aip == 0.0f) continue;
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

/// One GEMM the extractor runs, [batch] independent [m,k]x[k,n] products.
/// kT shapes (attention scores) are benched through mm_nt; the scalar
/// baseline sees a pre-transposed B, mirroring the seed's transpose_last2
/// materialization (transpose cost excluded — this bench isolates the GEMM).
struct ShapeSpec {
  const char* name;
  std::int64_t batch, m, k, n;
  bool nt;
};

// dim 48, depth 4, heads 4 (head_dim 12), 8 frames @ 32px, patch 8,
// tubelet 1 => 128 tokens, tubelet_dim 3*8*8 = 192, mlp_hidden 96.
// "-b8" rows are the same layer under a serving micro-batch of 8 clips.
constexpr ShapeSpec kShapes[] = {
    {"tubelet-embed", 1, 128, 192, 48, false},
    {"qkv-proj", 1, 128, 48, 48, false},
    {"attn-scores", 4, 128, 12, 128, true},
    {"attn-av", 4, 128, 128, 12, false},
    {"mlp-fc1", 1, 128, 48, 96, false},
    {"mlp-fc2", 1, 128, 96, 48, false},
    {"tubelet-embed-b8", 1, 1024, 192, 48, false},
    {"qkv-proj-b8", 1, 1024, 48, 48, false},
    {"attn-scores-b8", 32, 128, 12, 128, true},
    {"attn-av-b8", 32, 128, 128, 12, false},
};

/// Best-of-reps wall time for fn (seconds).
template <typename Fn>
double time_best(std::size_t reps, const Fn& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

struct ShapeResult {
  const ShapeSpec* spec = nullptr;
  double scalar_gflops = 0.0;
  double blocked_gflops = 0.0;
  double parallel_gflops = 0.0;
};

ShapeResult bench_shape(const ShapeSpec& s, std::size_t reps,
                        std::size_t pool_threads) {
  tensor::Rng rng(kDataSeed ^ static_cast<std::uint64_t>(s.m * s.k * s.n));
  const auto fill = [&rng](std::vector<float>& v) {
    for (auto& x : v) x = static_cast<float>(rng.normal());
  };
  std::vector<float> a(static_cast<std::size_t>(s.batch * s.m * s.k));
  std::vector<float> b(static_cast<std::size_t>(s.batch * s.k * s.n));
  std::vector<float> c(static_cast<std::size_t>(s.batch * s.m * s.n));
  fill(a);
  fill(b);
  // Pre-transposed B for the scalar baseline on kT shapes (the seed path
  // materialized the transpose before its GEMM).
  std::vector<float> bt;
  if (s.nt) {
    bt.resize(b.size());
    for (std::int64_t g = 0; g < s.batch; ++g) {
      const float* src = b.data() + g * s.k * s.n;  // stored [n, k]
      float* dst = bt.data() + g * s.k * s.n;       // want [k, n]
      for (std::int64_t j = 0; j < s.n; ++j) {
        for (std::int64_t p = 0; p < s.k; ++p) {
          dst[p * s.n + j] = src[j * s.k + p];
        }
      }
    }
  }

  const double flops =
      2.0 * static_cast<double>(s.batch) * static_cast<double>(s.m) *
      static_cast<double>(s.k) * static_cast<double>(s.n);
  const auto gflops = [flops](double seconds) {
    return flops / seconds / 1e9;
  };

  ShapeResult result;
  result.spec = &s;
  result.scalar_gflops = gflops(time_best(reps, [&] {
    std::memset(c.data(), 0, c.size() * sizeof(float));
    const float* bp = s.nt ? bt.data() : b.data();
    for (std::int64_t g = 0; g < s.batch; ++g) {
      seed_mm(s.m, s.k, s.n, a.data() + g * s.m * s.k, bp + g * s.k * s.n,
              c.data() + g * s.m * s.n);
    }
  }));

  const auto run_blocked = [&] {
    std::memset(c.data(), 0, c.size() * sizeof(float));
    for (std::int64_t g = 0; g < s.batch; ++g) {
      kernels::mm(kernels::Trans::kN, s.nt ? kernels::Trans::kT
                                           : kernels::Trans::kN,
                  s.m, s.k, s.n, a.data() + g * s.m * s.k,
                  b.data() + g * s.k * s.n, c.data() + g * s.m * s.n);
    }
  };
  par::set_threads(1);
  result.blocked_gflops = gflops(time_best(reps, run_blocked));
  par::set_threads(pool_threads);
  result.parallel_gflops = gflops(time_best(reps, run_blocked));
  par::set_threads(1);
  return result;
}

/// Row-kernel throughput at 1 thread, Melem/s: bias+GELU on the batch-8 MLP
/// hidden tensor [1024, 96] and softmax on attention-score rows [1024, 128].
struct RowResult {
  double gelu_melem_s = 0.0;
  double softmax_melem_s = 0.0;
};

RowResult bench_rows(std::size_t reps) {
  constexpr std::int64_t kRows = 1024, kHidden = 96, kScores = 128;
  tensor::Rng rng(kDataSeed);
  std::vector<float> x(static_cast<std::size_t>(kRows * kScores));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> bias(static_cast<std::size_t>(kHidden));
  for (auto& v : bias) v = static_cast<float>(rng.normal());
  std::vector<float> y(x.size());
  par::set_threads(1);
  const auto melem_s = [](std::int64_t n, double seconds) {
    return static_cast<double>(n) / seconds / 1e6;
  };
  RowResult r;
  r.gelu_melem_s = melem_s(kRows * kHidden, time_best(reps, [&] {
    for (std::int64_t i = 0; i < kRows; ++i) {
      kernels::gelu_row(y.data() + i * kHidden, x.data() + i * kHidden,
                        bias.data(), kHidden);
    }
  }));
  r.softmax_melem_s = melem_s(kRows * kScores, time_best(reps, [&] {
    for (std::int64_t i = 0; i < kRows; ++i) {
      kernels::softmax_row(y.data() + i * kScores, x.data() + i * kScores,
                           kScores);
    }
  }));
  return r;
}

double geomean(const std::vector<ShapeResult>& rows,
               double ShapeResult::*field) {
  double log_sum = 0.0;
  for (const ShapeResult& r : rows) log_sum += std::log(r.*field);
  return std::exp(log_sum / static_cast<double>(rows.size()));
}

void write_json(const char* path, const std::vector<ShapeResult>& rows,
                double forward_1t, double forward_nt, const RowResult& row,
                std::size_t pool_threads) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "bench_k1_kernels: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_k1_kernels\",\n");
  std::fprintf(f, "  \"pool_threads\": %zu,\n", pool_threads);
  std::fprintf(f, "  \"shapes\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ShapeResult& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"batch\": %lld, \"m\": %lld, "
                 "\"k\": %lld, \"n\": %lld, \"scalar_gflops\": %.4f, "
                 "\"blocked_gflops\": %.4f, \"parallel_gflops\": %.4f}%s\n",
                 r.spec->name, static_cast<long long>(r.spec->batch),
                 static_cast<long long>(r.spec->m),
                 static_cast<long long>(r.spec->k),
                 static_cast<long long>(r.spec->n), r.scalar_gflops,
                 r.blocked_gflops, r.parallel_gflops,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"summary\": {\"scalar_geomean\": %.4f, "
               "\"blocked_geomean\": %.4f, \"parallel_geomean\": %.4f, "
               "\"forward_clips_per_s_1t\": %.4f, "
               "\"forward_clips_per_s_nt\": %.4f, "
               "\"gelu_melem_per_s_1t\": %.4f, "
               "\"softmax_melem_per_s_1t\": %.4f}\n}\n",
               geomean(rows, &ShapeResult::scalar_gflops),
               geomean(rows, &ShapeResult::blocked_gflops),
               geomean(rows, &ShapeResult::parallel_gflops), forward_1t,
               forward_nt, row.gelu_melem_s, row.softmax_melem_s);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  if (smoke && json_path == nullptr) json_path = "BENCH_K1.json";

  std::size_t pool_threads =
      std::max(1u, std::thread::hardware_concurrency());
  if (par::env_override()) pool_threads = par::threads();

  print_banner("R-K1", "compute-kernel throughput (blocked GEMM + tsdx::par)");
  const std::size_t reps = smoke ? 5 : 20;
  std::printf("best of %zu reps per cell; parallel column uses %zu threads\n\n",
              reps, pool_threads);
  std::printf("%-20s %16s %9s %9s %9s %9s %9s\n", "shape (per clip)",
              "batch x m.k.n", "scalar", "blocked1t", "parallel", "blk-spdup",
              "par-spdup");

  std::vector<ShapeResult> rows;
  for (const ShapeSpec& s : kShapes) {
    rows.push_back(bench_shape(s, reps, pool_threads));
    const ShapeResult& r = rows.back();
    char dims[32];
    std::snprintf(dims, sizeof(dims), "%lldx%lld.%lld.%lld",
                  static_cast<long long>(s.batch),
                  static_cast<long long>(s.m), static_cast<long long>(s.k),
                  static_cast<long long>(s.n));
    std::printf("%-20s %16s %9.2f %9.2f %9.2f %8.2fx %8.2fx\n", s.name, dims,
                r.scalar_gflops, r.blocked_gflops, r.parallel_gflops,
                r.blocked_gflops / r.scalar_gflops,
                r.parallel_gflops / r.scalar_gflops);
  }
  std::printf("%-20s %16s %9.2f %9.2f %9.2f %8.2fx %8.2fx\n", "geomean", "",
              geomean(rows, &ShapeResult::scalar_gflops),
              geomean(rows, &ShapeResult::blocked_gflops),
              geomean(rows, &ShapeResult::parallel_gflops),
              geomean(rows, &ShapeResult::blocked_gflops) /
                  geomean(rows, &ShapeResult::scalar_gflops),
              geomean(rows, &ShapeResult::parallel_gflops) /
                  geomean(rows, &ShapeResult::scalar_gflops));

  // End-to-end: single-clip forward through the full extractor (all GEMMs
  // routed through the kernels), 1 thread vs the full intra-op budget.
  auto extractor = std::make_shared<core::ScenarioExtractor>(
      model_config(core::AttentionKind::kDividedST), kModelSeed);
  extractor->freeze();
  sim::ClipGenerator gen(render_config(), kDataSeed);
  const sim::VideoClip clip = gen.generate().video;
  const std::size_t fwd_reps = smoke ? 3 : 10;
  par::set_threads(1);
  const double fwd_1t =
      1.0 / time_best(fwd_reps, [&] { extractor->extract(clip); });
  par::set_threads(pool_threads);
  const double fwd_nt =
      1.0 / time_best(fwd_reps, [&] { extractor->extract(clip); });
  par::set_threads(1);
  std::printf("\nsingle-clip forward: %.2f clips/s @1 thread, "
              "%.2f clips/s @%zu threads (%.2fx)\n",
              fwd_1t, fwd_nt, pool_threads, fwd_nt / fwd_1t);

  const RowResult row = bench_rows(reps);
  std::printf("row kernels @1 thread: bias+GELU %.1f Melem/s [1024x96], "
              "softmax %.1f Melem/s [1024x128]\n",
              row.gelu_melem_s, row.softmax_melem_s);

  if (json_path != nullptr) {
    write_json(json_path, rows, fwd_1t, fwd_nt, row, pool_threads);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
