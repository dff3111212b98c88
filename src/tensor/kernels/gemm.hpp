// gemm.hpp — cache-blocked, panel-packed single-precision GEMM kernels.
//
// mm(ta, tb, m, k, n, a, b, c) computes
//
//     C[M, N] += op(A)[M, K] · op(B)[K, N]
//
// over row-major storage, where op(X) is X (Trans::kN) or the transpose of
// the stored matrix (Trans::kT): with ta == kT, `a` is stored [K, M]; with
// tb == kT, `b` is stored [N, K]. Accumulating (+=) semantics serve both the
// forward pass (callers pass a zeroed C) and gradient accumulation (C is the
// grad buffer).
//
// Implementation notes (see DESIGN.md "Compute kernels & threading model"):
//
// * C rows are partitioned across tsdx::par with a grain derived from the
//   shape alone (row_grain), so chunk boundaries — and therefore results —
//   are bit-identical at any thread count (chunks write disjoint C rows).
// * Within a chunk, A and op(B) are packed into contiguous panels
//   (KC x NC column panels of op(B), row panels of op(A)), making every
//   inner-loop access unit-stride regardless of ta/tb; the 4-row micro
//   kernel's inner loop is a contiguous multiply-add over the packed B
//   panel, which GCC/Clang auto-vectorize (verify with -fopt-info-vec).
// * For every C element, contributions accumulate in ascending-k order —
//   the same order as the textbook ikj loop — so the blocked kernel is
//   bit-identical to the naive one (no reassociation, no reordering).
// * The loop nest lives once, in gemm_body.inc, and is compiled twice: for
//   the baseline ISA (gemm.cpp) and with AVX2 but without FMA
//   (gemm_avx2.cpp). Both builds produce the same bits; Isa picks one per
//   call. The dynamic interpreter uses the portable build, so one binary
//   serves any host; compiled plans ask for kAvx2. Every call, whichever
//   build runs it, goes through one instrumented entry (the gemm.* counters
//   and the gemm.mm / gemm.mm_batched span).
#pragma once

#include <cstdint>

namespace tsdx::tensor::kernels {

enum class Trans : std::uint8_t { kN, kT };

/// Which build of the GEMM body runs a product. kAvx2 runs the AVX2 build
/// when avx2_available(), else the portable one; the bits are the same.
enum class Isa : std::uint8_t { kPortable, kAvx2 };

/// C[m, n] += op(A)[m, k] · op(B)[k, n]. Pointers must not alias.
void mm(Trans ta, Trans tb, std::int64_t m, std::int64_t k, std::int64_t n,
        const float* a, const float* b, float* c);

/// C += A · B               A: [m, k]   B: [k, n]
inline void mm_nn(std::int64_t m, std::int64_t k, std::int64_t n,
                  const float* a, const float* b, float* c) {
  mm(Trans::kN, Trans::kN, m, k, n, a, b, c);
}

/// C += A · Bᵀ              A: [m, k]   B stored [n, k]
inline void mm_nt(std::int64_t m, std::int64_t k, std::int64_t n,
                  const float* a, const float* b, float* c) {
  mm(Trans::kN, Trans::kT, m, k, n, a, b, c);
}

/// C += Aᵀ · B              A stored [k, m]   B: [k, n]
inline void mm_tn(std::int64_t m, std::int64_t k, std::int64_t n,
                  const float* a, const float* b, float* c) {
  mm(Trans::kT, Trans::kN, m, k, n, a, b, c);
}

/// Batched product through ONE dispatch: for every g in [0, batch),
///
///     C[g][m, n] += op(A[g])[m, k] · op(B[g])[k, n]
///
/// over dense slices (A advances m*k floats per slice, C advances m*n; B
/// advances `b_stride` floats — pass 0 to share one op(B) across the batch,
/// the weight-matrix case). Per C element the accumulation is the exact
/// ascending-k multiply-add sequence of a per-slice mm() loop, so results
/// are bit-identical to that loop at any thread count; what changes is the
/// dispatch cost: one trace span, one metrics update, one pool invocation
/// and one set of pack buffers for the whole batch, instead of one each per
/// slice. The plan runtime (src/plan) leans on this for attention's many
/// tiny per-(clip, head) products.
void mm_batched(Trans ta, Trans tb, std::int64_t batch, std::int64_t m,
                std::int64_t k, std::int64_t n, const float* a,
                const float* b, std::int64_t b_stride, float* c,
                Isa isa = Isa::kPortable);

/// Row-partition grain for an (m, k, n) product: a pure function of the
/// shape (never the thread count), a multiple of the micro-kernel height.
std::int64_t row_grain(std::int64_t m, std::int64_t k, std::int64_t n);

/// True when the running CPU supports AVX2. Constant per process, and
/// defined in the portable build, so the check never runs AVX2 code.
bool cpu_supported();

/// True when this binary carries the AVX2 build (x86-64 GCC/Clang) and
/// cpu_supported(): Isa::kAvx2 then really runs AVX2 code.
bool avx2_available();

}  // namespace tsdx::tensor::kernels
