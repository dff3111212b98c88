#include "tensor/kernels/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels/parallel_for.hpp"

namespace tsdx::tensor::kernels {

namespace portable {
#include "tensor/kernels/gemm_body.inc"
}  // namespace portable

namespace avx2 {
/// Defined in gemm_avx2.cpp: the same body built with AVX2 code generation.
void gemm_chunk(Trans ta, Trans tb, std::int64_t r0, std::int64_t r1,
                std::int64_t m, std::int64_t k, std::int64_t n,
                const float* a, const float* b, std::int64_t b_stride,
                float* c, float* apack, float* bpack);
/// Whether gemm_avx2.cpp really was compiled for AVX2 (x86-64 GCC/Clang).
bool built();
}  // namespace avx2

namespace {

/// Registry handles resolved once per process. Every GEMM bumps these once
/// per call (not per row/chunk), so the relaxed adds amortize over the
/// 2*batch*m*k*n flops they describe.
struct GemmMetrics {
  obs::Counter& calls;
  obs::Counter& flops;
  obs::Counter& direct_path;  ///< both operands read in place (no packing)
  obs::Counter& packed_path;  ///< at least one operand packed into panels
};

GemmMetrics& gemm_metrics() {
  static GemmMetrics metrics = [] {
    obs::Registry& r = obs::Registry::global();
    return GemmMetrics{r.counter("gemm.calls"), r.counter("gemm.flops"),
                       r.counter("gemm.direct_path"),
                       r.counter("gemm.packed_path")};
  }();
  return metrics;
}

}  // namespace

std::int64_t row_grain(std::int64_t m, std::int64_t k, std::int64_t n) {
  // Target ~128k flops per chunk so chunk dispatch overhead stays invisible,
  // growing in micro-kernel multiples. Depends on the shape only.
  constexpr std::int64_t kTargetFlops = 131072;
  const std::int64_t per_row = std::max<std::int64_t>(1, 2 * k * n);
  std::int64_t grain = portable::kMR;
  while (grain < m && grain * per_row < kTargetFlops) grain *= 2;
  return grain;
}

bool cpu_supported() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool avx2_available() {
  static const bool available = avx2::built() && cpu_supported();
  return available;
}

void mm(Trans ta, Trans tb, std::int64_t m, std::int64_t k, std::int64_t n,
        const float* a, const float* b, float* c) {
  mm_batched(ta, tb, 1, m, k, n, a, b, 0, c);
}

void mm_batched(Trans ta, Trans tb, std::int64_t batch, std::int64_t m,
                std::int64_t k, std::int64_t n, const float* a,
                const float* b, std::int64_t b_stride, float* c, Isa isa) {
  if (batch <= 0 || m <= 0 || k <= 0 || n <= 0) return;
  if (b_stride == 0 && ta == Trans::kN) {
    // A shared weight under row-dense A: the flat [batch*m] product runs
    // the identical row-by-row computation.
    m *= batch;
    batch = 1;
  }
  TSDX_TRACE_SPAN(batch == 1 ? "gemm.mm" : "gemm.mm_batched");
  GemmMetrics& metrics = gemm_metrics();
  metrics.calls.inc();
  metrics.flops.inc(static_cast<std::uint64_t>(2 * batch * m * k * n));
  const bool a_direct = portable::a_in_place(ta, k);
  const bool b_direct = portable::b_in_place(tb, n);
  (a_direct && b_direct ? metrics.direct_path : metrics.packed_path).inc();
  const auto chunk = (isa == Isa::kAvx2 && avx2_available())
                         ? avx2::gemm_chunk
                         : portable::gemm_chunk;
  // The batch's rows are partitioned with the per-slice grain, a pure
  // function of the slice shape, so the result is bit-identical to per-slice
  // calls at any thread count. Pack buffers are allocated once per chunk.
  par::parallel_for(
      batch * m, row_grain(m, k, n), [&](std::int64_t r0, std::int64_t r1) {
        std::vector<float> apack(
            a_direct ? 0
                     : static_cast<std::size_t>(portable::a_pack_floats(
                           std::min(r1 - r0, m), k)));
        std::vector<float> bpack(
            b_direct ? 0
                     : static_cast<std::size_t>(portable::b_pack_floats(k, n)));
        chunk(ta, tb, r0, r1, m, k, n, a, b, b_stride, c,
              a_direct ? nullptr : apack.data(),
              b_direct ? nullptr : bpack.data());
      });
}

}  // namespace tsdx::tensor::kernels
