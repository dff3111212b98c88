#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/kernels/rows.hpp"
#include "tensor/trace_hook.hpp"

namespace tsdx::tensor {

namespace {

[[noreturn]] void shape_error(const char* op, const Shape& a, const Shape& b) {
  throw ShapeError(std::string(op) + ": incompatible shapes " + to_string(a) +
                   " and " + to_string(b));
}

/// Layout of a broadcasting binary op: which operand (if any) is the
/// suffix-broadcast "small" one.
enum class Bcast { kSame, kBSmall, kASmall };

Bcast classify(const char* op, const Shape& a, const Shape& b) {
  if (same_shape(a, b)) return Bcast::kSame;
  if (is_suffix_of(b, a)) return Bcast::kBSmall;
  if (is_suffix_of(a, b)) return Bcast::kASmall;
  shape_error(op, a, b);
}

/// Generic broadcasting binary op.
/// fwd(x, y) -> value; dfdx(x, y) and dfdy(x, y) -> partial derivatives.
template <class F, class Dx, class Dy>
Tensor binary_op(const char* name, const Tensor& a, const Tensor& b, F fwd,
                 Dx dfdx, Dy dfdy) {
  const Bcast mode = classify(name, a.shape(), b.shape());
  const Tensor& big = (mode == Bcast::kASmall) ? b : a;
  const Tensor& small = (mode == Bcast::kASmall) ? a : b;
  const std::size_t n = static_cast<std::size_t>(big.numel());
  const std::size_t m = static_cast<std::size_t>(small.numel());

  std::vector<float> out(n);
  const auto av = a.data();
  const auto bv = b.data();
  if (mode == Bcast::kSame) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fwd(av[i], bv[i]);
  } else if (mode == Bcast::kBSmall) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fwd(av[i], bv[i % m]);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = fwd(av[i % m], bv[i]);
  }

  NodePtr an = a.node();
  NodePtr bn = b.node();
  return make_op_result(
      big.shape(), std::move(out), {an, bn},
      [an, bn, mode, m, dfdx, dfdy](Node& self) {
        const auto& g = self.grad;
        const auto& ax = an->data;
        const auto& bx = bn->data;
        const std::size_t n2 = g.size();
        if (an->requires_grad) {
          auto& ga = an->ensure_grad();
          for (std::size_t i = 0; i < n2; ++i) {
            const std::size_t ia = (mode == Bcast::kASmall) ? i % m : i;
            const std::size_t ib = (mode == Bcast::kBSmall) ? i % m : i;
            ga[ia] += g[i] * dfdx(ax[ia], bx[ib]);
          }
        }
        if (bn->requires_grad) {
          auto& gb = bn->ensure_grad();
          for (std::size_t i = 0; i < n2; ++i) {
            const std::size_t ia = (mode == Bcast::kASmall) ? i % m : i;
            const std::size_t ib = (mode == Bcast::kBSmall) ? i % m : i;
            gb[ib] += g[i] * dfdy(ax[ia], bx[ib]);
          }
        }
      });
}

/// Autograd result of an elementwise unary op whose forward values `y` are
/// already computed (per element by unary_op, or in bulk by a row kernel).
/// dfdx receives (x, y) so ops like tanh can reuse the forward value.
template <class Dx>
Tensor unary_result(const Tensor& a, std::vector<float> y, Dx dfdx) {
  NodePtr an = a.node();
  // Capture the forward output for backward closures that want y.
  auto saved = std::make_shared<std::vector<float>>(y);
  return make_op_result(a.shape(), std::move(y), {an},
                        [an, saved, dfdx](Node& self) {
                          if (!an->requires_grad) return;
                          auto& ga = an->ensure_grad();
                          const auto& g = self.grad;
                          const auto& x = an->data;
                          for (std::size_t i = 0; i < g.size(); ++i) {
                            ga[i] += g[i] * dfdx(x[i], (*saved)[i]);
                          }
                        });
}

/// Generic elementwise unary op.
template <class F, class Dx>
Tensor unary_op(const Tensor& a, F fwd, Dx dfdx) {
  const std::size_t n = static_cast<std::size_t>(a.numel());
  std::vector<float> out(n);
  const auto av = a.data();
  for (std::size_t i = 0; i < n; ++i) out[i] = fwd(av[i]);
  return unary_result(a, std::move(out), dfdx);
}

}  // namespace

// ---- elementwise binary -----------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = binary_op(
      "add", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
  if (trace::active()) {
    trace::record(
        {trace::OpKind::kAdd, "add", {a.node(), b.node()}, out.node()});
  }
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(
      "sub", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(
      "mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(
      "div", a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

// ---- scalar -----------------------------------------------------------------

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  Tensor out = unary_op(
      a, [s](float x) { return x * s; }, [s](float, float) { return s; });
  if (trace::active()) {
    trace::record(
        {trace::OpKind::kMulScalar, "mul_scalar", {a.node()}, out.node(), s});
  }
  return out;
}

// ---- unary --------------------------------------------------------------------

Tensor neg(const Tensor& a) {
  return unary_op(
      a, [](float x) { return -x; }, [](float, float) { return -1.0f; });
}

Tensor exp(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor log(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Tensor sqrt(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / y; });
}

Tensor relu(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor gelu(const Tensor& a) {
  // One bulk row-kernel call: the forward compiled plans run.
  const std::int64_t d = a.rank() == 0 ? 1 : a.shape().back();
  std::vector<float> y(static_cast<std::size_t>(a.numel()));
  const auto av = a.data();
  kernels::for_each_row(d > 0 ? a.numel() / d : 0, d, [&](std::int64_t r) {
    kernels::gelu_row(y.data() + r * d, av.data() + r * d, nullptr, d);
  });
  Tensor out = unary_result(a, std::move(y), [](float x, float) {
    return kernels::gelu_grad(x);
  });
  if (trace::active()) {
    trace::record({trace::OpKind::kGelu, "gelu", {a.node()}, out.node()});
  }
  return out;
}

Tensor tanh(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor abs(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::abs(x); },
      [](float x, float) { return x >= 0.0f ? 1.0f : -1.0f; });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  TSDX_CHECK(lo <= hi, "clamp: lo (", lo, ") > hi (", hi, ")");
  return unary_op(
      a, [lo, hi](float x) { return std::min(std::max(x, lo), hi); },
      [lo, hi](float x, float) { return (x >= lo && x <= hi) ? 1.0f : 0.0f; });
}

Tensor pow(const Tensor& a, float exponent) {
  return unary_op(
      a, [exponent](float x) { return std::pow(x, exponent); },
      [exponent](float x, float) {
        return exponent * std::pow(x, exponent - 1.0f);
      });
}

// ---- matmul ---------------------------------------------------------------------
//
// Both products run on the blocked, panel-packed kernels in
// tensor/kernels/gemm.hpp, parallelized over C rows by tsdx::par. A shared
// rhs ([K,N] against [*batch,M,K]) is the common Linear case: the batch
// collapses into one [batch*M, K] x [K, N] product, and its backward
// reduces over the batch *inside* the kernel's ascending-k accumulation —
// deterministic at any thread count, with the packed panels replacing the
// seed's strided inner loops (dA via mm_nt, dB via mm_tn).

namespace {

/// Common shape logic for matmul / matmul_nt. `k_axis_first` says whether
/// b's contraction axis is its second-to-last (matmul: [.., K, N]) or last
/// (matmul_nt: [.., N, K]) axis.
struct MatmulDims {
  std::int64_t batch = 1;
  std::int64_t m = 0, k = 0, n = 0;
  bool shared_rhs = false;
  Shape out_shape;
};

MatmulDims matmul_dims(const char* op, const Shape& as, const Shape& bs,
                       bool k_axis_first) {
  if (as.size() < 2 || bs.size() < 2) shape_error(op, as, bs);
  MatmulDims d;
  d.m = as[as.size() - 2];
  d.k = as[as.size() - 1];
  const std::int64_t bk = k_axis_first ? bs[bs.size() - 2] : bs[bs.size() - 1];
  d.n = k_axis_first ? bs[bs.size() - 1] : bs[bs.size() - 2];
  if (d.k != bk) shape_error(op, as, bs);

  d.shared_rhs = bs.size() == 2;
  if (!d.shared_rhs) {
    // batch dims must match exactly
    if (as.size() != bs.size()) shape_error(op, as, bs);
    for (std::size_t i = 0; i + 2 < as.size(); ++i) {
      if (as[i] != bs[i]) shape_error(op, as, bs);
    }
  }
  for (std::size_t i = 0; i + 2 < as.size(); ++i) d.batch *= as[i];
  d.out_shape.assign(as.begin(), as.end() - 2);
  d.out_shape.push_back(d.m);
  d.out_shape.push_back(d.n);
  return d;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  const MatmulDims d =
      matmul_dims("matmul", a.shape(), b.shape(), /*k_axis_first=*/true);
  const std::int64_t batch = d.batch, m = d.m, k = d.k, n = d.n;
  const bool shared_rhs = d.shared_rhs;

  std::vector<float> out(static_cast<std::size_t>(batch * m * n), 0.0f);
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  if (shared_rhs) {
    // One [batch*m, k] x [k, n] product; each output row depends only on
    // its own input row, so batching preserves per-item bit-identity.
    kernels::mm_nn(batch * m, k, n, ap, bp, out.data());
  } else {
    for (std::int64_t bi = 0; bi < batch; ++bi) {
      kernels::mm_nn(m, k, n, ap + bi * m * k, bp + bi * k * n,
                     out.data() + bi * m * n);
    }
  }

  NodePtr an = a.node();
  NodePtr bn = b.node();
  Tensor result = make_op_result(
      std::move(d.out_shape), std::move(out), {an, bn},
      [an, bn, batch, m, k, n, shared_rhs](Node& self) {
        const float* g = self.grad.data();
        const float* ax = an->data.data();
        const float* bx = bn->data.data();
        if (an->requires_grad) {
          float* ga = an->ensure_grad().data();
          // dA[i,p] += sum_j G[i,j] * B[p,j]  ==  G · Bᵀ  (mm_nt)
          if (shared_rhs) {
            kernels::mm_nt(batch * m, n, k, g, bx, ga);
          } else {
            for (std::int64_t bi = 0; bi < batch; ++bi) {
              kernels::mm_nt(m, n, k, g + bi * m * n, bx + bi * k * n,
                             ga + bi * m * k);
            }
          }
        }
        if (bn->requires_grad) {
          float* gbm = bn->ensure_grad().data();
          // dB[p,j] += sum_i A[i,p] * G[i,j]  ==  Aᵀ · G  (mm_tn); with a
          // shared rhs the batch reduction is the kernel's own ascending-i
          // accumulation over the flattened [batch*m] rows.
          if (shared_rhs) {
            kernels::mm_tn(k, batch * m, n, ax, g, gbm);
          } else {
            for (std::int64_t bi = 0; bi < batch; ++bi) {
              kernels::mm_tn(k, m, n, ax + bi * m * k, g + bi * m * n,
                             gbm + bi * k * n);
            }
          }
        }
      });
  if (trace::active()) {
    trace::record({trace::OpKind::kMatmul, "matmul", {an, bn}, result.node()});
  }
  return result;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  const MatmulDims d =
      matmul_dims("matmul_nt", a.shape(), b.shape(), /*k_axis_first=*/false);
  const std::int64_t batch = d.batch, m = d.m, k = d.k, n = d.n;
  const bool shared_rhs = d.shared_rhs;

  std::vector<float> out(static_cast<std::size_t>(batch * m * n), 0.0f);
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  if (shared_rhs) {
    kernels::mm_nt(batch * m, k, n, ap, bp, out.data());
  } else {
    for (std::int64_t bi = 0; bi < batch; ++bi) {
      kernels::mm_nt(m, k, n, ap + bi * m * k, bp + bi * n * k,
                     out.data() + bi * m * n);
    }
  }

  NodePtr an = a.node();
  NodePtr bn = b.node();
  Tensor result = make_op_result(
      std::move(d.out_shape), std::move(out), {an, bn},
      [an, bn, batch, m, k, n, shared_rhs](Node& self) {
        const float* g = self.grad.data();
        const float* ax = an->data.data();
        const float* bx = bn->data.data();
        if (an->requires_grad) {
          float* ga = an->ensure_grad().data();
          // dA[i,p] += sum_j G[i,j] * B[j,p]  ==  G · B  (mm_nn)
          if (shared_rhs) {
            kernels::mm_nn(batch * m, n, k, g, bx, ga);
          } else {
            for (std::int64_t bi = 0; bi < batch; ++bi) {
              kernels::mm_nn(m, n, k, g + bi * m * n, bx + bi * n * k,
                             ga + bi * m * k);
            }
          }
        }
        if (bn->requires_grad) {
          float* gbm = bn->ensure_grad().data();
          // dB[j,p] += sum_i G[i,j] * A[i,p]  ==  Gᵀ · A  (mm_tn)
          if (shared_rhs) {
            kernels::mm_tn(n, batch * m, k, g, ax, gbm);
          } else {
            for (std::int64_t bi = 0; bi < batch; ++bi) {
              kernels::mm_tn(n, m, k, g + bi * m * n, ax + bi * m * k,
                             gbm + bi * n * k);
            }
          }
        }
      });
  if (trace::active()) {
    trace::record(
        {trace::OpKind::kMatmulNt, "matmul_nt", {an, bn}, result.node()});
  }
  return result;
}

// ---- reductions -------------------------------------------------------------------

Tensor sum_all(const Tensor& a) {
  // Deterministic parallel reduction: fixed-grain partials + a fixed-order
  // pairwise tree (par::tree_sum), bit-identical at any thread count.
  const std::int64_t n = a.numel();
  const double acc =
      par::tree_sum(a.data().data(), n, par::suggest_grain(n, 1));
  NodePtr an = a.node();
  return make_op_result(Shape{}, {static_cast<float>(acc)}, {an},
                        [an](Node& self) {
                          if (!an->requires_grad) return;
                          auto& ga = an->ensure_grad();
                          const float g = self.grad[0];
                          for (auto& v : ga) v += g;
                        });
}

Tensor mean_all(const Tensor& a) {
  const float inv = 1.0f / static_cast<float>(a.numel());
  return mul_scalar(sum_all(a), inv);
}

namespace {

void reduce_extents(const Shape& s, std::size_t dim, std::int64_t& outer,
                    std::int64_t& d, std::int64_t& inner) {
  outer = 1;
  inner = 1;
  for (std::size_t i = 0; i < dim; ++i) outer *= s[i];
  d = s[dim];
  for (std::size_t i = dim + 1; i < s.size(); ++i) inner *= s[i];
}

}  // namespace

Tensor sum_dim(const Tensor& a, std::size_t dim) {
  TSDX_SHAPE_ASSERT(dim < a.rank(), "sum_dim: dim ", dim,
                    " out of range for ", to_string(a.shape()));
  std::int64_t outer, d, inner;
  reduce_extents(a.shape(), dim, outer, d, inner);
  Shape out_shape;
  for (std::size_t i = 0; i < a.rank(); ++i) {
    if (i != dim) out_shape.push_back(a.shape()[i]);
  }
  std::vector<float> out(static_cast<std::size_t>(outer * inner), 0.0f);
  const auto av = a.data();
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t j = 0; j < d; ++j) {
      const float* src = av.data() + (o * d + j) * inner;
      float* dst = out.data() + o * inner;
      for (std::int64_t i = 0; i < inner; ++i) dst[i] += src[i];
    }
  }
  NodePtr an = a.node();
  Tensor result =
      make_op_result(std::move(out_shape), std::move(out), {an},
                     [an, outer, d, inner](Node& self) {
                       if (!an->requires_grad) return;
                       auto& ga = an->ensure_grad();
                       const auto& g = self.grad;
                       for (std::int64_t o = 0; o < outer; ++o) {
                         for (std::int64_t j = 0; j < d; ++j) {
                           float* dst = ga.data() + (o * d + j) * inner;
                           const float* src = g.data() + o * inner;
                           for (std::int64_t i = 0; i < inner; ++i)
                             dst[i] += src[i];
                         }
                       }
                     });
  if (trace::active()) {
    trace::OpRecord rec{trace::OpKind::kSumDim, "sum_dim", {an},
                        result.node()};
    rec.dim = dim;
    trace::record(std::move(rec));
  }
  return result;
}

Tensor mean_dim(const Tensor& a, std::size_t dim) {
  TSDX_SHAPE_ASSERT(dim < a.rank(), "mean_dim: dim ", dim,
                    " out of range for ", to_string(a.shape()));
  const float inv = 1.0f / static_cast<float>(a.shape()[dim]);
  return mul_scalar(sum_dim(a, dim), inv);
}

Tensor max_dim(const Tensor& a, std::size_t dim) {
  TSDX_SHAPE_ASSERT(dim < a.rank(), "max_dim: dim ", dim,
                    " out of range for ", to_string(a.shape()));
  std::int64_t outer, d, inner;
  reduce_extents(a.shape(), dim, outer, d, inner);
  Shape out_shape;
  for (std::size_t i = 0; i < a.rank(); ++i) {
    if (i != dim) out_shape.push_back(a.shape()[i]);
  }
  std::vector<float> out(static_cast<std::size_t>(outer * inner));
  auto argmax = std::make_shared<std::vector<std::int64_t>>(out.size());
  const auto av = a.data();
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t i = 0; i < inner; ++i) {
      std::int64_t best = (o * d) * inner + i;
      float best_v = av[static_cast<std::size_t>(best)];
      for (std::int64_t j = 1; j < d; ++j) {
        const std::int64_t idx = (o * d + j) * inner + i;
        if (av[static_cast<std::size_t>(idx)] > best_v) {
          best = idx;
          best_v = av[static_cast<std::size_t>(idx)];
        }
      }
      out[static_cast<std::size_t>(o * inner + i)] = best_v;
      (*argmax)[static_cast<std::size_t>(o * inner + i)] = best;
    }
  }
  NodePtr an = a.node();
  return make_op_result(std::move(out_shape), std::move(out), {an},
                        [an, argmax](Node& self) {
                          if (!an->requires_grad) return;
                          auto& ga = an->ensure_grad();
                          const auto& g = self.grad;
                          for (std::size_t i = 0; i < g.size(); ++i) {
                            ga[static_cast<std::size_t>((*argmax)[i])] += g[i];
                          }
                        });
}

// ---- shape ---------------------------------------------------------------------------

Tensor reshape(const Tensor& a, Shape new_shape) {
  // Resolve a single -1 extent.
  std::int64_t known = 1;
  int infer = -1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      TSDX_SHAPE_ASSERT(infer == -1, "reshape: multiple -1 dims in ",
                        to_string(new_shape));
      infer = static_cast<int>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer >= 0) {
    TSDX_SHAPE_ASSERT(known != 0 && a.numel() % known == 0,
                      "reshape: cannot infer dim for ", to_string(a.shape()),
                      " -> ", to_string(new_shape));
    new_shape[static_cast<std::size_t>(infer)] = a.numel() / known;
  }
  TSDX_SHAPE_ASSERT(numel(new_shape) == a.numel(), "reshape: numel mismatch ",
                    to_string(a.shape()), " -> ", to_string(new_shape));
  NodePtr an = a.node();
  std::vector<float> out(a.data().begin(), a.data().end());
  Tensor result =
      make_op_result(std::move(new_shape), std::move(out), {an},
                     [an](Node& self) {
                       if (!an->requires_grad) return;
                       auto& ga = an->ensure_grad();
                       for (std::size_t i = 0; i < ga.size(); ++i)
                         ga[i] += self.grad[i];
                     });
  if (trace::active()) {
    trace::record(
        {trace::OpKind::kReshape, "reshape", {an}, result.node()});
  }
  return result;
}

Tensor permute(const Tensor& a, const std::vector<std::size_t>& perm) {
  const std::size_t r = a.rank();
  TSDX_SHAPE_ASSERT(perm.size() == r, "permute: perm of size ", perm.size(),
                    " for rank-", r, " input ", to_string(a.shape()));
  std::vector<bool> seen(r, false);
  for (std::size_t p : perm) {
    TSDX_CHECK(p < r && !seen[p], "permute: invalid permutation for rank-", r,
               " input");
    seen[p] = true;
  }
  Shape out_shape(r);
  for (std::size_t i = 0; i < r; ++i) out_shape[i] = a.shape()[perm[i]];

  const Shape in_strides = row_major_strides(a.shape());
  // stride (in the input) of each output axis
  std::vector<std::int64_t> gather(r);
  for (std::size_t i = 0; i < r; ++i) gather[i] = in_strides[perm[i]];

  const std::size_t n = static_cast<std::size_t>(a.numel());
  std::vector<float> out(n);
  const auto av = a.data();
  // Map output flat index -> input flat index via mixed-radix decode.
  std::vector<std::int64_t> counter(r, 0);
  std::int64_t src = 0;
  for (std::size_t oi = 0; oi < n; ++oi) {
    out[oi] = av[static_cast<std::size_t>(src)];
    // increment mixed-radix counter (last axis fastest)
    for (std::size_t ax = r; ax-- > 0;) {
      ++counter[ax];
      src += gather[ax];
      if (counter[ax] < out_shape[ax]) break;
      src -= gather[ax] * out_shape[ax];
      counter[ax] = 0;
    }
  }

  NodePtr an = a.node();
  Shape out_shape_copy = out_shape;
  Tensor result = make_op_result(
      std::move(out_shape), std::move(out), {an},
      [an, gather, out_shape_copy, r](Node& self) {
        if (!an->requires_grad) return;
        auto& ga = an->ensure_grad();
        const auto& g = self.grad;
        std::vector<std::int64_t> counter(r, 0);
        std::int64_t src = 0;
        for (std::size_t oi = 0; oi < g.size(); ++oi) {
          ga[static_cast<std::size_t>(src)] += g[oi];
          for (std::size_t ax = r; ax-- > 0;) {
            ++counter[ax];
            src += gather[ax];
            if (counter[ax] < out_shape_copy[ax]) break;
            src -= gather[ax] * out_shape_copy[ax];
            counter[ax] = 0;
          }
        }
      });
  if (trace::active()) {
    trace::OpRecord rec{trace::OpKind::kPermute, "permute", {an},
                        result.node()};
    rec.perm = perm;
    trace::record(std::move(rec));
  }
  return result;
}

Tensor transpose_last2(const Tensor& a) {
  TSDX_SHAPE_ASSERT(a.rank() >= 2, "transpose_last2: rank-", a.rank(),
                    " input ", to_string(a.shape()));
  std::vector<std::size_t> perm(a.rank());
  for (std::size_t i = 0; i < a.rank(); ++i) perm[i] = i;
  std::swap(perm[a.rank() - 1], perm[a.rank() - 2]);
  return permute(a, perm);
}

Tensor concat(const std::vector<Tensor>& parts, std::size_t dim) {
  TSDX_CHECK(!parts.empty(), "concat: no parts");
  const Shape& ref = parts[0].shape();
  TSDX_SHAPE_ASSERT(dim < ref.size(), "concat: dim ", dim,
                    " out of range for ", to_string(ref));
  std::int64_t total = 0;
  for (const Tensor& p : parts) {
    if (p.rank() != ref.size()) shape_error("concat", ref, p.shape());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (i != dim && p.shape()[i] != ref[i]) shape_error("concat", ref, p.shape());
    }
    total += p.shape()[dim];
  }
  Shape out_shape = ref;
  out_shape[dim] = total;

  std::int64_t outer = 1, inner = 1;
  for (std::size_t i = 0; i < dim; ++i) outer *= ref[i];
  for (std::size_t i = dim + 1; i < ref.size(); ++i) inner *= ref[i];

  std::vector<float> out(static_cast<std::size_t>(numel(out_shape)));
  std::vector<std::int64_t> offsets;  // start extent of each part along dim
  {
    std::int64_t off = 0;
    for (const Tensor& p : parts) {
      offsets.push_back(off);
      const std::int64_t d = p.shape()[dim];
      const auto pv = p.data();
      for (std::int64_t o = 0; o < outer; ++o) {
        std::copy_n(pv.data() + o * d * inner, d * inner,
                    out.data() + (o * total + off) * inner);
      }
      off += d;
    }
  }

  std::vector<NodePtr> parents;
  std::vector<std::int64_t> dims;
  for (const Tensor& p : parts) {
    parents.push_back(p.node());
    dims.push_back(p.shape()[dim]);
  }
  auto parents_copy = parents;
  return make_op_result(
      std::move(out_shape), std::move(out), std::move(parents),
      [parents_copy, dims, offsets, outer, inner, total](Node& self) {
        const auto& g = self.grad;
        for (std::size_t pi = 0; pi < parents_copy.size(); ++pi) {
          const NodePtr& p = parents_copy[pi];
          if (!p->requires_grad) continue;
          auto& gp = p->ensure_grad();
          const std::int64_t d = dims[pi];
          for (std::int64_t o = 0; o < outer; ++o) {
            const float* src = g.data() + (o * total + offsets[pi]) * inner;
            float* dst = gp.data() + o * d * inner;
            for (std::int64_t i = 0; i < d * inner; ++i) dst[i] += src[i];
          }
        }
      });
}

Tensor slice(const Tensor& a, std::size_t dim, std::int64_t start,
             std::int64_t len) {
  TSDX_SHAPE_ASSERT(dim < a.rank(), "slice: dim ", dim, " out of range for ",
                    to_string(a.shape()));
  const std::int64_t d = a.shape()[dim];
  TSDX_CHECK(start >= 0 && len >= 0 && start + len <= d, "slice: range [",
             start, ", ", start + len, ") exceeds dim ", d);
  std::int64_t outer = 1, inner = 1;
  for (std::size_t i = 0; i < dim; ++i) outer *= a.shape()[i];
  for (std::size_t i = dim + 1; i < a.rank(); ++i) inner *= a.shape()[i];

  Shape out_shape = a.shape();
  out_shape[dim] = len;
  std::vector<float> out(static_cast<std::size_t>(outer * len * inner));
  const auto av = a.data();
  for (std::int64_t o = 0; o < outer; ++o) {
    std::copy_n(av.data() + (o * d + start) * inner, len * inner,
                out.data() + o * len * inner);
  }
  NodePtr an = a.node();
  return make_op_result(std::move(out_shape), std::move(out), {an},
                        [an, outer, inner, d, start, len](Node& self) {
                          if (!an->requires_grad) return;
                          auto& ga = an->ensure_grad();
                          const auto& g = self.grad;
                          for (std::int64_t o = 0; o < outer; ++o) {
                            const float* src = g.data() + o * len * inner;
                            float* dst = ga.data() + (o * d + start) * inner;
                            for (std::int64_t i = 0; i < len * inner; ++i)
                              dst[i] += src[i];
                          }
                        });
}

Tensor stack(const std::vector<Tensor>& parts) {
  TSDX_CHECK(!parts.empty(), "stack: no parts");
  const Shape& ref = parts[0].shape();
  std::vector<Tensor> reshaped;
  reshaped.reserve(parts.size());
  for (const Tensor& p : parts) {
    if (p.shape() != ref) shape_error("stack", ref, p.shape());
    Shape unsqueezed = ref;
    unsqueezed.insert(unsqueezed.begin(), 1);
    reshaped.push_back(reshape(p, unsqueezed));
  }
  return concat(reshaped, 0);
}

Tensor flip(const Tensor& a, std::size_t dim) {
  TSDX_SHAPE_ASSERT(dim < a.rank(), "flip: dim ", dim, " out of range for ",
                    to_string(a.shape()));
  std::int64_t outer, d, inner;
  reduce_extents(a.shape(), dim, outer, d, inner);
  std::vector<float> out(static_cast<std::size_t>(a.numel()));
  const auto av = a.data();
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t j = 0; j < d; ++j) {
      const float* src = av.data() + (o * d + j) * inner;
      float* dst = out.data() + (o * d + (d - 1 - j)) * inner;
      std::copy_n(src, inner, dst);
    }
  }
  NodePtr an = a.node();
  return make_op_result(a.shape(), std::move(out), {an},
                        [an, outer, d, inner](Node& self) {
                          if (!an->requires_grad) return;
                          auto& ga = an->ensure_grad();
                          const auto& g = self.grad;
                          for (std::int64_t o = 0; o < outer; ++o) {
                            for (std::int64_t j = 0; j < d; ++j) {
                              const float* src =
                                  g.data() + (o * d + (d - 1 - j)) * inner;
                              float* dst = ga.data() + (o * d + j) * inner;
                              for (std::int64_t i = 0; i < inner; ++i)
                                dst[i] += src[i];
                            }
                          }
                        });
}

// ---- softmax family ---------------------------------------------------------------

Tensor softmax_lastdim(const Tensor& a) {
  TSDX_SHAPE_ASSERT(a.rank() >= 1 && a.shape().back() > 0,
                    "softmax: need a non-empty last dim, got ",
                    to_string(a.shape()));
  const std::int64_t d = a.shape().back();
  const std::int64_t rows = a.numel() / d;
  std::vector<float> out(static_cast<std::size_t>(a.numel()));
  const auto av = a.data();
  // Rows are independent: partition them across the intra-op pool (chunk
  // boundaries depend on the shape only, so results are thread-count
  // invariant).
  const std::int64_t grain = par::suggest_grain(rows, d);
  kernels::for_each_row(rows, d, [&](std::int64_t r) {
    kernels::softmax_row(out.data() + r * d, av.data() + r * d, d);
  });
  NodePtr an = a.node();
  auto saved = std::make_shared<std::vector<float>>(out);
  Tensor result = make_op_result(
      a.shape(), std::move(out), {an}, [an, saved, rows, d, grain](Node& self) {
        if (!an->requires_grad) return;
        auto& ga = an->ensure_grad();
        const auto& g = self.grad;
        // dx = y * (g - sum_j g_j y_j)
        par::parallel_for(rows, grain, [&](std::int64_t r0, std::int64_t r1) {
          for (std::int64_t r = r0; r < r1; ++r) {
            const float* y = saved->data() + r * d;
            const float* gr = g.data() + r * d;
            float dot = 0.0f;
            for (std::int64_t i = 0; i < d; ++i) dot += gr[i] * y[i];
            float* dst = ga.data() + r * d;
            for (std::int64_t i = 0; i < d; ++i) dst[i] += y[i] * (gr[i] - dot);
          }
        });
      });
  if (trace::active()) {
    trace::record(
        {trace::OpKind::kSoftmax, "softmax_lastdim", {an}, result.node()});
  }
  return result;
}

Tensor log_softmax_lastdim(const Tensor& a) {
  TSDX_SHAPE_ASSERT(a.rank() >= 1 && a.shape().back() > 0,
                    "log_softmax: need a non-empty last dim, got ",
                    to_string(a.shape()));
  const std::int64_t d = a.shape().back();
  const std::int64_t rows = a.numel() / d;
  std::vector<float> out(static_cast<std::size_t>(a.numel()));
  const auto av = a.data();
  const std::int64_t grain = par::suggest_grain(rows, d);
  kernels::for_each_row(rows, d, [&](std::int64_t r) {
    kernels::log_softmax_row(out.data() + r * d, av.data() + r * d, d);
  });
  NodePtr an = a.node();
  auto saved = std::make_shared<std::vector<float>>(out);
  Tensor result = make_op_result(
      a.shape(), std::move(out), {an}, [an, saved, rows, d, grain](Node& self) {
        if (!an->requires_grad) return;
        auto& ga = an->ensure_grad();
        const auto& g = self.grad;
        // dx = g - exp(y) * sum_j g_j
        par::parallel_for(rows, grain, [&](std::int64_t r0, std::int64_t r1) {
          for (std::int64_t r = r0; r < r1; ++r) {
            const float* y = saved->data() + r * d;
            const float* gr = g.data() + r * d;
            float gsum = 0.0f;
            for (std::int64_t i = 0; i < d; ++i) gsum += gr[i];
            float* dst = ga.data() + r * d;
            for (std::int64_t i = 0; i < d; ++i)
              dst[i] += gr[i] - std::exp(y[i]) * gsum;
          }
        });
      });
  if (trace::active()) {
    trace::record({trace::OpKind::kLogSoftmax, "log_softmax_lastdim", {an},
                   result.node()});
  }
  return result;
}

std::vector<std::int64_t> argmax_lastdim(const Tensor& a) {
  TSDX_SHAPE_ASSERT(a.rank() >= 1 && a.shape().back() > 0,
                    "argmax_lastdim: need a non-empty last dim, got ",
                    to_string(a.shape()));
  const std::int64_t d = a.shape().back();
  const std::int64_t rows = a.numel() / d;
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  const auto av = a.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    out[static_cast<std::size_t>(r)] = kernels::argmax_row(av.data() + r * d, d);
  }
  return out;
}

}  // namespace tsdx::tensor
