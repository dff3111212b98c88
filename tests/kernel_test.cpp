// kernel_test.cpp — the compute-kernel layer's contract (see DESIGN.md
// "Compute kernels & threading model"):
//
//   1. The blocked, packed GEMM is BIT-identical to the textbook ikj loop
//      for every transpose variant, including shapes that don't divide the
//      micro-kernel or panel sizes — in both builds of the loop nest (the
//      portable one and, on AVX2 hosts, the AVX2 one).
//   2. Results are BIT-identical at any thread count (1, 2, 8), because work
//      partitioning is a pure function of the shape.
//   3. parallel_for covers every index exactly once, and tree_sum is both
//      deterministic and accurate.
//   4. The autograd ops routed through the kernels (matmul, matmul_nt) still
//      pass finite-difference gradchecks.
//   5. The row kernels' vector exp (rows.hpp) stays within 2 ulp of a double
//      reference, GELU within 2 ulp of |x| of the double tanh form, and
//      both saturate and propagate NaN as documented. A row's tail gives
//      each element the same bits as the 4-lane body, and in-place calls
//      the same bits as out-of-place ones.
#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/gradcheck.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/kernels/rows.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace tt = tsdx::tensor;
namespace kn = tsdx::tensor::kernels;
namespace par = tsdx::par;
using tt::Shape;
using tt::Tensor;

namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  tt::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Textbook reference: C += op(A)·op(B) with the plain ikj loop — the same
/// ascending-k accumulation order the blocked kernel promises to preserve.
void naive_mm(kn::Trans ta, kn::Trans tb, std::int64_t m, std::int64_t k,
              std::int64_t n, const float* a, const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = (ta == kn::Trans::kN) ? a[i * k + p] : a[p * m + i];
      for (std::int64_t j = 0; j < n; ++j) {
        const float bv = (tb == kn::Trans::kN) ? b[p * n + j] : b[j * k + p];
        c[i * n + j] += av * bv;
      }
    }
  }
}

struct MmCase {
  kn::Trans ta;
  kn::Trans tb;
  const char* name;
};

constexpr MmCase kVariants[] = {
    {kn::Trans::kN, kn::Trans::kN, "nn"},
    {kn::Trans::kN, kn::Trans::kT, "nt"},
    {kn::Trans::kT, kn::Trans::kN, "tn"},
};

// Shapes straddling every blocking boundary: below/at/above the micro-kernel
// height (4), non-dividing the KC/NC panels, and degenerate dims.
constexpr std::int64_t kDims[] = {1, 3, 17, 64, 129};

struct IsaCase {
  kn::Isa isa;
  const char* name;
};

/// The GEMM builds this host can run: always the portable one, plus the
/// AVX2 one when the binary carries it and the CPU supports it.
std::vector<IsaCase> host_isas() {
  std::vector<IsaCase> isas = {{kn::Isa::kPortable, "portable"}};
  if (kn::avx2_available()) isas.push_back({kn::Isa::kAvx2, "avx2"});
  return isas;
}

}  // namespace

TEST(GemmKernelTest, BlockedMatchesNaiveBitExact) {
  struct Shape3 {
    std::int64_t m, k, n;
  };
  std::vector<Shape3> shapes;
  for (std::int64_t m : kDims) {
    for (std::int64_t k : kDims) {
      for (std::int64_t n : kDims) shapes.push_back({m, k, n});
    }
  }
  // Ragged rows with k > KC (two K panels) and n > NC (two N panels).
  shapes.push_back({7, 300, 130});
  shapes.push_back({33, 257, 129});
  for (const IsaCase& isa : host_isas()) {
    for (const MmCase& v : kVariants) {
      for (const Shape3& s : shapes) {
        const std::int64_t m = s.m, k = s.k, n = s.n;
        const auto a = random_vec(static_cast<std::size_t>(m * k),
                                  1000 + static_cast<std::uint64_t>(m));
        const auto b = random_vec(static_cast<std::size_t>(k * n),
                                  2000 + static_cast<std::uint64_t>(n));
        // Non-zero C exercises the accumulate (+=) semantics.
        auto c_blocked = random_vec(static_cast<std::size_t>(m * n), 3000);
        auto c_naive = c_blocked;
        kn::mm_batched(v.ta, v.tb, 1, m, k, n, a.data(), b.data(), 0,
                       c_blocked.data(), isa.isa);
        naive_mm(v.ta, v.tb, m, k, n, a.data(), b.data(), c_naive.data());
        for (std::size_t i = 0; i < c_blocked.size(); ++i) {
          ASSERT_EQ(c_blocked[i], c_naive[i])
              << "isa=" << isa.name << " variant=" << v.name << " m=" << m
              << " k=" << k << " n=" << n << " at flat index " << i;
        }
      }
    }
  }
  if (!kn::avx2_available()) {
    GTEST_SKIP() << "no AVX2 on this host: only the portable build checked";
  }
}

TEST(GemmKernelTest, ThreadCountDoesNotChangeBits) {
  constexpr std::int64_t m = 129, k = 65, n = 77;
  const auto a = random_vec(static_cast<std::size_t>(m * k), 42);
  const auto b = random_vec(static_cast<std::size_t>(k * n), 43);

  std::vector<std::vector<float>> results;
  for (std::size_t threads : {1u, 2u, 8u}) {
    par::set_threads(threads);
    EXPECT_EQ(par::threads(), threads);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    kn::mm_nn(m, k, n, a.data(), b.data(), c.data());
    results.push_back(std::move(c));
  }
  par::set_threads(1);
  for (std::size_t t = 1; t < results.size(); ++t) {
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      ASSERT_EQ(results[0][i], results[t][i])
          << "thread config " << t << " diverged at flat index " << i;
    }
  }
}

TEST(GemmKernelTest, BatchedMatchesPerSliceLoopBitExact) {
  // mm_batched's contract: one dispatch, same bits as calling mm() per
  // slice — for strided B (per-head attention products), shared B (weight
  // matrices, b_stride 0) and both orientations of B, at several thread
  // counts (chunks may straddle slice boundaries only when the pool
  // partitions the row space, so thread count is part of the matrix).
  // The reference is always the portable build's per-slice mm(), so the
  // AVX2 rows also check AVX2 == portable.
  struct Case {
    kn::Trans ta, tb;
    std::int64_t batch, m, k, n;
    bool shared;
  };
  // Attention-like tiny slices, weight-like shared slices (b_stride 0),
  // shapes that leave partial chunks (m not a multiple of the micro-kernel
  // height), transposed A, and k > KC / n > NC panel crossings.
  const Case cases[] = {
      {kn::Trans::kN, kn::Trans::kT, 32, 17, 12, 17, false},
      {kn::Trans::kN, kn::Trans::kN, 32, 17, 17, 12, false},
      {kn::Trans::kN, kn::Trans::kN, 8, 33, 48, 48, true},
      {kn::Trans::kN, kn::Trans::kT, 8, 33, 48, 48, true},
      {kn::Trans::kN, kn::Trans::kT, 5, 129, 65, 77, false},
      {kn::Trans::kT, kn::Trans::kN, 3, 7, 300, 130, false},
      {kn::Trans::kT, kn::Trans::kT, 3, 9, 257, 131, true},
      {kn::Trans::kN, kn::Trans::kN, 2, 13, 260, 140, true},
  };
  for (const IsaCase& isa : host_isas()) {
    for (const Case& c : cases) {
      const std::int64_t b_slice = c.k * c.n;
      const auto a = random_vec(static_cast<std::size_t>(c.batch * c.m * c.k),
                                51 + static_cast<std::uint64_t>(c.batch));
      const auto b = random_vec(
          static_cast<std::size_t>((c.shared ? 1 : c.batch) * b_slice),
          52 + static_cast<std::uint64_t>(c.n));
      std::vector<float> want(static_cast<std::size_t>(c.batch * c.m * c.n),
                              0.0f);
      const std::int64_t b_stride = c.shared ? 0 : b_slice;
      for (std::int64_t g = 0; g < c.batch; ++g) {
        kn::mm(c.ta, c.tb, c.m, c.k, c.n, a.data() + g * c.m * c.k,
               b.data() + g * b_stride, want.data() + g * c.m * c.n);
      }
      for (std::size_t threads : {1u, 2u, 8u}) {
        par::set_threads(threads);
        std::vector<float> got(want.size(), 0.0f);
        kn::mm_batched(c.ta, c.tb, c.batch, c.m, c.k, c.n, a.data(),
                       b.data(), b_stride, got.data(), isa.isa);
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i], want[i])
              << "isa=" << isa.name << " batch=" << c.batch << " m=" << c.m
              << " k=" << c.k << " n=" << c.n << " shared=" << c.shared
              << " threads=" << threads << " at flat index " << i;
        }
      }
      par::set_threads(1);
    }
  }
  if (!kn::avx2_available()) {
    GTEST_SKIP() << "no AVX2 on this host: only the portable build checked";
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 4u}) {
    par::set_threads(threads);
    for (std::int64_t total : {1, 7, 64, 1000}) {
      for (std::int64_t grain : {1, 3, 64, 2000}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(total));
        for (auto& h : hits) h.store(0);
        par::parallel_for(total, grain, [&](std::int64_t b, std::int64_t e) {
          ASSERT_LE(b, e);
          ASSERT_LE(e, total);
          for (std::int64_t i = b; i < e; ++i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1);
          }
        });
        for (std::int64_t i = 0; i < total; ++i) {
          ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
              << "threads=" << threads << " total=" << total
              << " grain=" << grain << " index " << i;
        }
      }
    }
  }
  par::set_threads(1);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  par::set_threads(4);
  std::atomic<std::int64_t> count{0};
  par::parallel_for(8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      par::parallel_for(16, 4, [&](std::int64_t ib, std::int64_t ie) {
        count.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(count.load(), 8 * 16);
  par::set_threads(1);
}

// Regression for the publisher-thread re-entry hole: the thread that
// publishes a fan-out owns the pool's job mutex while running its own
// chunks, and on the 1-thread budget it still owns it inside the inline
// path. A chunk fn that calls parallel_for again used to reach try_lock on
// that owned (non-recursive) mutex — undefined behaviour. The fix routes
// any nested call inline via a thread-local in-fanout flag before the lock
// is ever touched; this test drives both re-entry paths, three levels deep,
// and checks every index is covered exactly once at every level.
TEST(ParallelForTest, ParallelForNestedReentry) {
  for (std::size_t threads : {1u, 4u}) {
    par::set_threads(threads);
    constexpr std::int64_t kOuter = 6;
    constexpr std::int64_t kMid = 8;
    constexpr std::int64_t kInner = 5;
    std::vector<std::atomic<int>> hits(
        static_cast<std::size_t>(kOuter * kMid * kInner));
    for (auto& h : hits) h.store(0);
    // kMid/kInner chunk counts are > 1 so the nested calls would take the
    // pool path (and hit the owned mutex) if the in-fanout check regressed.
    par::parallel_for(kOuter, 1, [&](std::int64_t ob, std::int64_t oe) {
      for (std::int64_t o = ob; o < oe; ++o) {
        par::parallel_for(kMid, 2, [&](std::int64_t mb, std::int64_t me) {
          for (std::int64_t m = mb; m < me; ++m) {
            par::parallel_for(kInner, 1, [&](std::int64_t ib, std::int64_t ie) {
              for (std::int64_t i = ib; i < ie; ++i) {
                hits[static_cast<std::size_t>((o * kMid + m) * kInner + i)]
                    .fetch_add(1);
              }
            });
          }
        });
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1)
          << "threads=" << threads << " flat index " << i;
    }
  }
  par::set_threads(1);
}

TEST(ParallelForTest, TreeSumIsDeterministicAndAccurate) {
  const auto v = random_vec(10001, 7);
  double seq = 0.0;
  for (float x : v) seq += x;

  std::vector<double> sums;
  for (std::size_t threads : {1u, 2u, 8u}) {
    par::set_threads(threads);
    sums.push_back(
        par::tree_sum(v.data(), static_cast<std::int64_t>(v.size()), 128));
  }
  par::set_threads(1);
  // Bit-identical across thread counts; near the sequential double sum.
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[0], sums[2]);
  EXPECT_NEAR(sums[0], seq, 1e-6 * v.size());
}

TEST(ParallelForTest, SuggestGrainIsShapePureAndBounded) {
  // Pure function of its arguments (same inputs, same grain) and always a
  // usable chunk size.
  EXPECT_EQ(par::suggest_grain(1000, 10), par::suggest_grain(1000, 10));
  EXPECT_GE(par::suggest_grain(1, 1), 1);
  EXPECT_GE(par::suggest_grain(1 << 20, 1), 1);
  // Expensive rows need no batching; cheap rows get grouped.
  EXPECT_EQ(par::suggest_grain(1000, 1 << 20), 1);
  EXPECT_GT(par::suggest_grain(1 << 20, 1), 1);
}

TEST(MatmulNtTest, MatchesExplicitTransposeBitExact) {
  tt::Rng rng(11);
  for (std::size_t threads : {1u, 4u}) {
    par::set_threads(threads);
    const Shape as{2, 3, 9, 5};
    const Shape bs{2, 3, 7, 5};
    Tensor a = Tensor::randn(as, rng);
    Tensor b = Tensor::randn(bs, rng);
    Tensor via_nt = tt::matmul_nt(a, b);
    Tensor via_transpose = tt::matmul(a, tt::transpose_last2(b));
    ASSERT_EQ(via_nt.shape(), via_transpose.shape());
    const auto x = via_nt.data();
    const auto y = via_transpose.data();
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], y[i]) << "threads=" << threads << " index " << i;
    }
  }
  par::set_threads(1);
}

TEST(MatmulNtTest, SharedRhsMatchesExplicitTranspose) {
  tt::Rng rng(12);
  Tensor a = Tensor::randn({4, 6, 5}, rng);
  Tensor b = Tensor::randn({3, 5}, rng);  // shared [N, K]
  Tensor via_nt = tt::matmul_nt(a, b);
  Tensor via_transpose = tt::matmul(a, tt::transpose_last2(b));
  const auto x = via_nt.data();
  const auto y = via_transpose.data();
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], y[i]);
}

TEST(KernelGradTest, MatmulPathsPassGradcheck) {
  struct Case {
    const char* name;
    Shape a, b;
    bool nt;
  };
  const Case cases[] = {
      {"SharedRhs", {3, 4, 5}, {5, 6}, false},
      {"Batched", {2, 3, 4}, {2, 4, 5}, false},
      {"OddShapes", {1, 7, 9}, {9, 3}, false},
      {"NtBatched", {2, 3, 4}, {2, 6, 4}, true},
      {"NtSharedRhs", {3, 4, 5}, {6, 5}, true},
  };
  tt::Rng rng(21);
  for (const Case& c : cases) {
    std::vector<Tensor> inputs;
    inputs.push_back(Tensor::randn(c.a, rng, 1.0f, /*requires_grad=*/true));
    inputs.push_back(Tensor::randn(c.b, rng, 1.0f, /*requires_grad=*/true));
    const bool nt = c.nt;
    auto result = tt::grad_check(
        [nt](const std::vector<Tensor>& in) {
          Tensor y = nt ? tt::matmul_nt(in[0], in[1])
                        : tt::matmul(in[0], in[1]);
          return tt::sum_all(tt::mul(y, y));
        },
        std::move(inputs));
    EXPECT_TRUE(result.ok) << c.name << ": " << result.detail;
  }
}

TEST(KernelGradTest, MatmulBackwardThreadCountInvariant) {
  // Gradients must also be bit-identical at any thread count: the backward
  // GEMMs partition over output rows exactly like the forward.
  const Shape as{4, 9, 7};
  const Shape bs{7, 5};
  std::vector<std::vector<float>> ga_runs, gb_runs;
  for (std::size_t threads : {1u, 8u}) {
    par::set_threads(threads);
    tt::Rng rng(33);
    Tensor a = Tensor::randn(as, rng, 1.0f, /*requires_grad=*/true);
    Tensor b = Tensor::randn(bs, rng, 1.0f, /*requires_grad=*/true);
    Tensor loss = tt::sum_all(tt::matmul(a, b));
    loss.backward();
    ga_runs.emplace_back(a.grad().begin(), a.grad().end());
    gb_runs.emplace_back(b.grad().begin(), b.grad().end());
  }
  par::set_threads(1);
  ASSERT_EQ(ga_runs[0].size(), ga_runs[1].size());
  for (std::size_t i = 0; i < ga_runs[0].size(); ++i) {
    ASSERT_EQ(ga_runs[0][i], ga_runs[1][i]) << "dA index " << i;
  }
  ASSERT_EQ(gb_runs[0].size(), gb_runs[1].size());
  for (std::size_t i = 0; i < gb_runs[0].size(); ++i) {
    ASSERT_EQ(gb_runs[0][i], gb_runs[1][i]) << "dB index " << i;
  }
}

// ---- row kernels: vector exp, GELU, softmax ----------------------------------

namespace {

/// Spacing of floats at |v| (at least FLT_MIN's), in double.
double ulp_at(double v) {
  const float f = std::max(static_cast<float>(std::fabs(v)), FLT_MIN);
  return static_cast<double>(std::nextafter(f, INFINITY)) -
         static_cast<double>(f);
}

/// The tanh-form GELU evaluated in double.
double gelu_reference(float x) {
  const double xd = x;
  return 0.5 * xd *
         (1.0 + std::tanh(0.7978845608028654 * (xd + 0.044715 * xd * xd * xd)));
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

TEST(RowKernelTest, ExpWithinTwoUlpOnDenseGrid) {
  // ~1.8M points, four per exp4 call so every lane is exercised.
  double worst = 0.0;
  float worst_x = 0.0f;
  constexpr double kLo = -87.3, kHi = 88.3, kStep = 1e-4;
  for (double x0 = kLo; x0 <= kHi; x0 += 4 * kStep) {
    kn::f32x4 x{};
    for (int l = 0; l < 4; ++l) {
      x[l] = static_cast<float>(std::min(x0 + l * kStep, kHi));
    }
    const kn::f32x4 y = kn::exp4(x);
    for (int l = 0; l < 4; ++l) {
      const double ref = std::exp(static_cast<double>(x[l]));
      const double err = std::fabs(static_cast<double>(y[l]) - ref) /
                         ulp_at(ref);
      if (err > worst) {
        worst = err;
        worst_x = x[l];
      }
    }
  }
  EXPECT_LE(worst, 2.0) << "worst at x = " << worst_x;
}

TEST(RowKernelTest, ExpSaturatesAndPropagatesNan) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(kn::exp(0.0f), 1.0f);
  EXPECT_EQ(kn::exp(kInf), kInf);
  EXPECT_EQ(kn::exp(100.0f), kInf);
  EXPECT_TRUE(same_bits(kn::exp(-kInf), 0.0f));
  EXPECT_TRUE(same_bits(kn::exp(-100.0f), 0.0f));
  EXPECT_TRUE(std::isnan(kn::exp(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isfinite(kn::exp(88.3f)));
  EXPECT_GT(kn::exp(-87.3f), 0.0f);
}

TEST(RowKernelTest, GeluWithinTwoUlpOfTanhReference) {
  // Absolute error against 2 ulp of max(|x|, FLT_MIN): GELU's output scale
  // is |x|, and in the negative tail the true value underflows toward -0.
  double worst = 0.0;
  float worst_x = 0.0f;
  const auto check = [&](float x) {
    const double err =
        std::fabs(static_cast<double>(kn::gelu(x)) - gelu_reference(x)) /
        ulp_at(x);
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  };
  for (double x = -400.0; x <= 400.0; x += 1e-3) check(static_cast<float>(x));
  for (int e = -149; e <= 8; ++e) {  // subnormals up to 256, both signs
    check(std::ldexp(1.0f, e));
    check(-std::ldexp(1.0f, e));
    check(std::ldexp(1.5f, e - 1));
    check(-std::ldexp(1.5f, e - 1));
  }
  EXPECT_LE(worst, 2.0) << "worst at x = " << worst_x;
}

TEST(RowKernelTest, GeluSaturatedTailsAndNan) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  // -inf lands on the saturated negative tail: -0, not -inf * 0 = NaN.
  EXPECT_TRUE(same_bits(kn::gelu(-kInf), -0.0f));
  EXPECT_TRUE(same_bits(kn::gelu(-1e30f), -0.0f));
  EXPECT_EQ(kn::gelu(kInf), kInf);
  EXPECT_EQ(kn::gelu(1e30f), 1e30f);
  EXPECT_TRUE(std::isnan(kn::gelu(kNan)));
  EXPECT_EQ(kn::gelu(0.0f), 0.0f);
  // The same through the row kernel's lanes and the autograd op.
  const std::vector<float> x = {-kInf, kInf, kNan, -2.0f, 3.0f};
  std::vector<float> y(x.size());
  kn::gelu_row(y.data(), x.data(), nullptr, static_cast<std::int64_t>(x.size()));
  EXPECT_TRUE(same_bits(y[0], -0.0f));
  EXPECT_EQ(y[1], kInf);
  EXPECT_TRUE(std::isnan(y[2]));
  const Tensor g = tt::gelu(Tensor::from_vector({5}, x));
  const auto op = g.data();
  EXPECT_TRUE(same_bits(op[0], -0.0f));
  EXPECT_EQ(op[1], kInf);
  EXPECT_TRUE(std::isnan(op[2]));
  EXPECT_TRUE(same_bits(op[3], y[3]));
  EXPECT_TRUE(same_bits(op[4], y[4]));
}

TEST(RowKernelTest, TailGivesTheBitsOfTheVectorBody) {
  // Each element's reference runs through the 4-lane body: a full block of
  // four copies. Rows of 1..9 cover tail-only, body-only and body + tail.
  const std::vector<float> x = random_vec(9, 41);
  const std::vector<float> bias = random_vec(9, 42);
  const auto body_gelu = [](float v) {
    const float block[4] = {v, v, v, v};
    float out[4];
    kn::gelu_row(out, block, nullptr, 4);
    return out[0];
  };
  for (std::int64_t n = 1; n <= 9; ++n) {
    std::vector<float> y(static_cast<std::size_t>(n));
    kn::gelu_row(y.data(), x.data(), nullptr, n);
    std::vector<float> yb(static_cast<std::size_t>(n));
    kn::gelu_row(yb.data(), x.data(), bias.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(y[i], body_gelu(x[i]))) << "n=" << n << " i=" << i;
      EXPECT_TRUE(same_bits(y[i], kn::gelu(x[i]))) << "n=" << n << " i=" << i;
      EXPECT_TRUE(same_bits(yb[i], body_gelu(x[i] + bias[i])))
          << "bias n=" << n << " i=" << i;
    }
  }
}

TEST(RowKernelTest, SoftmaxSumsLaneExponentialsInAscendingOrder) {
  // Reference: scalar exp (lane 0 of exp4) per element, added one by one
  // in ascending order. Rows of 1..9 cover the tail; 37 and 131 hold
  // enough 4-lane blocks that a reassociated sum would change bits.
  std::vector<float> x = random_vec(131, 43);
  for (float& v : x) v *= 3.0f;
  for (const std::int64_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 131}) {
    const float* xr = x.data();
    float mx = xr[0];
    for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, xr[i]);
    std::vector<float> e(static_cast<std::size_t>(n));
    float sum = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      e[i] = kn::exp(xr[i] - mx);
      sum += e[i];
    }
    std::vector<float> sm(static_cast<std::size_t>(n));
    kn::softmax_row(sm.data(), xr, n);
    std::vector<float> lsm(static_cast<std::size_t>(n));
    kn::log_softmax_row(lsm.data(), xr, n);
    const float inv = 1.0f / sum;
    const float lse = mx + std::log(sum);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(sm[i], e[i] * inv)) << "n=" << n << " i=" << i;
      EXPECT_TRUE(same_bits(lsm[i], xr[i] - lse)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(RowKernelTest, InPlaceMatchesOutOfPlace) {
  for (const std::int64_t d : {1, 3, 4, 7, 9, 128, 131}) {
    const std::vector<float> x =
        random_vec(static_cast<std::size_t>(d), 50 + static_cast<std::uint64_t>(d));
    const std::vector<float> bias =
        random_vec(static_cast<std::size_t>(d), 90 + static_cast<std::uint64_t>(d));
    const std::size_t bytes = static_cast<std::size_t>(d) * sizeof(float);
    std::vector<float> out(x.size());
    std::vector<float> in_place = x;

    kn::softmax_row(out.data(), x.data(), d);
    kn::softmax_row(in_place.data(), in_place.data(), d);
    EXPECT_EQ(0, std::memcmp(out.data(), in_place.data(), bytes))
        << "softmax d=" << d;

    in_place = x;
    kn::log_softmax_row(out.data(), x.data(), d);
    kn::log_softmax_row(in_place.data(), in_place.data(), d);
    EXPECT_EQ(0, std::memcmp(out.data(), in_place.data(), bytes))
        << "log_softmax d=" << d;

    in_place = x;
    kn::gelu_row(out.data(), x.data(), bias.data(), d);
    kn::gelu_row(in_place.data(), in_place.data(), bias.data(), d);
    EXPECT_EQ(0, std::memcmp(out.data(), in_place.data(), bytes))
        << "gelu d=" << d;
  }
}

TEST(RowKernelTest, GeluGradMatchesCentralDifference) {
  constexpr float kH = 1.0f / 128.0f;  // exact, so x +- h is exact here
  for (float x = -6.0f; x <= 6.0f; x += 1.0f / 16.0f) {
    const double numeric = (static_cast<double>(kn::gelu(x + kH)) -
                            static_cast<double>(kn::gelu(x - kH))) /
                           (2.0 * kH);
    EXPECT_NEAR(kn::gelu_grad(x), numeric, 2e-4) << "x = " << x;
  }
  // Saturated tails: the derivative settles to 0 and 1, never NaN.
  EXPECT_EQ(kn::gelu_grad(-30.0f), 0.0f);
  EXPECT_EQ(kn::gelu_grad(30.0f), 1.0f);
}
