// rows.hpp — the row kernels every execution path shares.
//
// The autograd ops (tensor/ops.cpp, tensor/nn_ops.cpp), compiled plans
// (plan/plan.cpp) and the slot decoder (core/decoding.cpp) all call these
// inline functions on raw pointers, so the dynamic and compiled paths run
// one float operation sequence per element by construction. Each kernel
// handles one row (or one element) and may run in place (y == x): every
// element is read before it is overwritten.
//
// Transcendentals. Every exponential here, GELU's included, comes from one
// branch-free 4-lane exp (exp4) with no libm call:
//   * Cody-Waite range reduction: x = n ln2 + r, |r| <= ln2/2, n rounded
//     to nearest, with ln2 split in two so n * kLn2Hi is exact;
//   * e^r = 1 + r + r^2 P(r), P a degree-4 minimax fit (degree 6 overall,
//     relative error 3e-9 on the interval, far below float rounding);
//   * e^x = e^r * 2^n, with 2^n written straight into the exponent bits;
//   * the input clamps are vector selects: x is clamped to
//     [kExpLo, kExpHi], where n = -127 makes 2^n the bits of +0 and n = 128
//     those of +inf, so the saturated ends need no further branch.
// Contract: within 2 ulp of the correctly rounded e^x on [-87.3, 88.3]
// (kernel_test checks a dense grid against a double reference). Above
// about 88.376 (2^127.5) the result is +inf, below about -87.683
// (2^-126.5) it is +0; between -87.683 and -87.336 results are subnormal.
// NaN propagates. std::log and std::sqrt stay, since they run once per
// row; tools/tsdx_lint.py (rule rows-libm) rejects std::exp and std::tanh
// in this file.
//
// Why vector types and not a scalar loop left to the auto-vectorizer: a
// scalar exp with float clamps does not vectorize, because GCC's jump
// threading turns the clamps into control flow and the vectorizer then
// rejects the loop ("control flow in loop"). GCC/Clang vector extensions
// say the 4-lane form explicitly; on x86-64 it is plain SSE2, the baseline
// every translation unit is built for. Each lane runs the same IEEE
// operations, none contracted to FMA (ISO C++ mode, baseline ISA), so a
// row's tail, which runs the same code with the unused lanes zero, gives
// each element the same bits as the 4-lane body, and the result never
// depends on where a row or a thread's chunk starts.
#pragma once

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/parallel_for.hpp"

namespace tsdx::tensor::kernels {

// ---- 4-lane float vectors -------------------------------------------------

using f32x4 = float __attribute__((vector_size(16)));
using i32x4 = std::int32_t __attribute__((vector_size(16)));  // lane masks
using u32x4 = std::uint32_t __attribute__((vector_size(16)));

/// Lanes [0, lanes) of p; the others are zero.
inline f32x4 load4(const float* p, std::int64_t lanes = 4) {
  f32x4 v{};
  std::memcpy(&v, p, static_cast<std::size_t>(lanes) * sizeof(float));
  return v;
}

/// Stores lanes [0, lanes) of v to p.
inline void store4(float* p, f32x4 v, std::int64_t lanes = 4) {
  std::memcpy(p, &v, static_cast<std::size_t>(lanes) * sizeof(float));
}

/// mask ? a : b per lane (mask lanes are all ones or all zeros).
inline f32x4 select4(i32x4 mask, f32x4 a, f32x4 b) {
  return reinterpret_cast<f32x4>((mask & reinterpret_cast<i32x4>(a)) |
                                 (~mask & reinterpret_cast<i32x4>(b)));
}

/// body(i, lanes) over [0, n) in blocks of four: lanes == 4 for the body,
/// 1..3 for the tail block.
template <class Body>
inline void for_each_block4(std::int64_t n, const Body& body) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) body(i, std::int64_t{4});
  if (i < n) body(i, n - i);
}

// ---- exp ----------------------------------------------------------------------

inline constexpr float kExpHi = 89.0f;   // round(kExpHi * log2 e) == 128
inline constexpr float kExpLo = -88.0f;  // round(kExpLo * log2 e) == -127
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kLn2Hi = 0.693359375f;  // 9 significant bits
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kRound = 12582912.0f;  // 1.5 * 2^23
inline constexpr float kExpP2 = 4.999999404e-1f;
inline constexpr float kExpP3 = 1.666652113e-1f;
inline constexpr float kExpP4 = 4.166838899e-2f;
inline constexpr float kExpP5 = 8.368707262e-3f;
inline constexpr float kExpP6 = 1.381454291e-3f;

/// e^x per lane (accuracy and saturation contract in the header comment).
inline f32x4 exp4(f32x4 x) {
  x = select4(x > kExpHi, f32x4{} + kExpHi, x);
  x = select4(x < kExpLo, f32x4{} + kExpLo, x);
  // t carries n = round(x log2 e) in its low mantissa bits.
  const f32x4 t = x * kLog2e + kRound;
  const f32x4 n = t - kRound;
  const f32x4 r = (x - n * kLn2Hi) - n * kLn2Lo;
  f32x4 p = r * kExpP6 + kExpP5;
  p = p * r + kExpP4;
  p = p * r + kExpP3;
  p = p * r + kExpP2;
  p = p * (r * r) + r + 1.0f;
  // (n + 127) << 23: the low bits of t's own exponent shift out.
  const f32x4 scale =
      reinterpret_cast<f32x4>((reinterpret_cast<u32x4>(t) + 127u) << 23);
  return p * scale;
}

/// Scalar e^x: lane 0 of exp4.
inline float exp(float x) { return exp4(f32x4{x, 0.0f, 0.0f, 0.0f})[0]; }

// ---- GELU ---------------------------------------------------------------------

// GELU, tanh form: 0.5 x (1 + tanh u), u = sqrt(2/pi) (x + 0.044715 x^3),
// computed as the same function x / (1 + e^(-2u)).
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

inline f32x4 gelu4(f32x4 x) {
  // -inf would give -inf / inf; -FLT_MAX takes the saturated tail to -0.
  x = select4(x < -FLT_MAX, f32x4{} - FLT_MAX, x);
  const f32x4 u = kGeluC * (x + kGeluA * x * x * x);
  return x / (1.0f + exp4(-2.0f * u));
}

/// Scalar GELU: lane 0 of gelu4.
inline float gelu(float x) { return gelu4(f32x4{x, 0.0f, 0.0f, 0.0f})[0]; }

/// y[i] = gelu(x[i] + bias[i]) for i in [0, n); bias == nullptr means no
/// bias. The sum is the float an unfused add would have stored.
inline void gelu_row(float* y, const float* x, const float* bias,
                     std::int64_t n) {
  for_each_block4(n, [&](std::int64_t i, std::int64_t lanes) {
    f32x4 v = load4(x + i, lanes);
    if (bias != nullptr) v += load4(bias + i, lanes);
    store4(y + i, gelu4(v), lanes);
  });
}

/// d gelu(x) / dx. With s = 1 / (1 + e^(-2u)), gelu(x) = x s and the
/// derivative is s + 2 x s (1 - s) du/dx.
inline float gelu_grad(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  const float s = 1.0f / (1.0f + exp(-2.0f * u));
  const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return s + 2.0f * x * s * (1.0f - s) * du;
}

// ---- softmax ------------------------------------------------------------------

/// y = softmax(x) over d > 0 elements, max-shifted. The exponentials come
/// four at a time; the sum still adds them one by one in ascending order.
inline void softmax_row(float* y, const float* x, std::int64_t d) {
  float mx = x[0];
  for (std::int64_t i = 1; i < d; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for_each_block4(d, [&](std::int64_t i, std::int64_t lanes) {
    const f32x4 e = exp4(load4(x + i, lanes) - mx);
    store4(y + i, e, lanes);
    for (std::int64_t j = 0; j < lanes; ++j) sum += e[j];
  });
  const float inv = 1.0f / sum;
  for (std::int64_t i = 0; i < d; ++i) y[i] *= inv;
}

/// y = log_softmax(x) over d > 0 elements.
inline void log_softmax_row(float* y, const float* x, std::int64_t d) {
  float mx = x[0];
  for (std::int64_t i = 1; i < d; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for_each_block4(d, [&](std::int64_t i, std::int64_t lanes) {
    const f32x4 e = exp4(load4(x + i, lanes) - mx);
    for (std::int64_t j = 0; j < lanes; ++j) sum += e[j];
  });
  const float lse = mx + std::log(sum);
  for (std::int64_t i = 0; i < d; ++i) y[i] = x[i] - lse;
}

/// y = (x - mean) / sqrt(var + eps) * gamma + beta over d > 0 elements
/// (biased variance). When `xhat` is given, the normalized values are
/// stored there for backward. Returns 1/sqrt(var + eps).
inline float layer_norm_row(float* y, const float* x, const float* gamma,
                            const float* beta, std::int64_t d, float eps,
                            float* xhat = nullptr) {
  float mean = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) mean += x[i];
  mean /= static_cast<float>(d);
  float var = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) {
    const float c = x[i] - mean;
    var += c * c;
  }
  var /= static_cast<float>(d);
  const float istd = 1.0f / std::sqrt(var + eps);
  if (xhat != nullptr) {
    for (std::int64_t i = 0; i < d; ++i) {
      xhat[i] = (x[i] - mean) * istd;
      y[i] = xhat[i] * gamma[i] + beta[i];
    }
  } else {
    for (std::int64_t i = 0; i < d; ++i) {
      const float xh = (x[i] - mean) * istd;
      y[i] = xh * gamma[i] + beta[i];
    }
  }
  return istd;
}

/// Index of the first strict maximum of x[0, d), d > 0.
inline std::int64_t argmax_row(const float* x, std::int64_t d) {
  std::int64_t best = 0;
  for (std::int64_t i = 1; i < d; ++i) {
    if (x[i] > x[best]) best = i;
  }
  return best;
}

/// fn(r) for every r in [0, rows), partitioned across tsdx::par with a
/// grain derived from (rows, d) alone, so results are the same at any
/// thread count. fn must write only row r's outputs.
template <class Fn>
void for_each_row(std::int64_t rows, std::int64_t d, const Fn& fn) {
  par::parallel_for(rows, par::suggest_grain(rows, d),
                    [&](std::int64_t r0, std::int64_t r1) {
                      for (std::int64_t r = r0; r < r1; ++r) fn(r);
                    });
}

}  // namespace tsdx::tensor::kernels
