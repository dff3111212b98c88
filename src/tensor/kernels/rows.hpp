// rows.hpp — the row kernels every execution path shares.
//
// The autograd ops (tensor/ops.cpp, tensor/nn_ops.cpp), compiled plans
// (plan/plan.cpp) and the slot decoder (core/decoding.cpp) all call these
// inline functions on raw pointers, so the dynamic and compiled paths run
// one float operation sequence per element by construction. Each kernel
// handles one row (or one element) and may run in place (y == x): every
// element is read before it is overwritten.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/kernels/parallel_for.hpp"

namespace tsdx::tensor::kernels {

// GELU, tanh form: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

inline float gelu(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(u));
}

/// d gelu(x) / dx.
inline float gelu_grad(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  const float t = std::tanh(u);
  const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}

/// y = softmax(x) over d > 0 elements, max-shifted.
inline void softmax_row(float* y, const float* x, std::int64_t d) {
  float mx = x[0];
  for (std::int64_t i = 1; i < d; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) {
    y[i] = std::exp(x[i] - mx);
    sum += y[i];
  }
  const float inv = 1.0f / sum;
  for (std::int64_t i = 0; i < d; ++i) y[i] *= inv;
}

/// y = log_softmax(x) over d > 0 elements.
inline void log_softmax_row(float* y, const float* x, std::int64_t d) {
  float mx = x[0];
  for (std::int64_t i = 1; i < d; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) sum += std::exp(x[i] - mx);
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
