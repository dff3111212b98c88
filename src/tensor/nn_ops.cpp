#include "tensor/nn_ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/check.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/kernels/rows.hpp"
#include "tensor/trace_hook.hpp"

namespace tsdx::tensor {

namespace {

// Both convolutions lower to im2col + GEMM. The 2d variant is the 3d one
// with a degenerate time axis (t = kt = ot = 1, stride_t = 1, pad_t = 0).
// Column r = ((ic*kt + kz)*kh + ky)*kw + kx of the [ck, opix] col matrix
// matches the flattened weight layout [cout, ck], so the GEMM accumulates
// taps in the same ascending (ic, kz, ky, kx) order as the direct loops.

/// Gather one [cin, t, h, w] image into col[ck, opix]; padding taps become 0.
void im2col(const float* in, std::int64_t cin, std::int64_t t, std::int64_t h,
            std::int64_t w, std::int64_t kt, std::int64_t kh, std::int64_t kw,
            std::int64_t ot, std::int64_t oh, std::int64_t ow,
            std::int64_t stride_t, std::int64_t stride_s, std::int64_t pad_t,
            std::int64_t pad_s, float* col) {
  const std::int64_t ck = cin * kt * kh * kw;
  const std::int64_t opix = ot * oh * ow;
  par::parallel_for(
      ck, par::suggest_grain(ck, opix), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const std::int64_t kx = r % kw;
          const std::int64_t ky = (r / kw) % kh;
          const std::int64_t kz = (r / (kw * kh)) % kt;
          const std::int64_t ic = r / (kw * kh * kt);
          const float* vol = in + ic * t * h * w;
          float* dst = col + r * opix;
          for (std::int64_t z = 0; z < ot; ++z) {
            const std::int64_t iz = z * stride_t + kz - pad_t;
            for (std::int64_t y = 0; y < oh; ++y) {
              const std::int64_t iy = y * stride_s + ky - pad_s;
              for (std::int64_t x = 0; x < ow; ++x) {
                const std::int64_t ix = x * stride_s + kx - pad_s;
                const bool inb = iz >= 0 && iz < t && iy >= 0 && iy < h &&
                                 ix >= 0 && ix < w;
                dst[(z * oh + y) * ow + x] =
                    inb ? vol[(iz * h + iy) * w + ix] : 0.0f;
              }
            }
          }
        }
      });
}

/// Transpose of im2col: scatter-add dcol[ck, opix] into the input gradient.
/// Parallel over channels — channel ic's columns land only in its own input
/// volume, so chunks write disjoint memory.
void col2im(const float* dcol, std::int64_t cin, std::int64_t t,
            std::int64_t h, std::int64_t w, std::int64_t kt, std::int64_t kh,
            std::int64_t kw, std::int64_t ot, std::int64_t oh, std::int64_t ow,
            std::int64_t stride_t, std::int64_t stride_s, std::int64_t pad_t,
            std::int64_t pad_s, float* gin) {
  const std::int64_t opix = ot * oh * ow;
  par::parallel_for(
      cin, par::suggest_grain(cin, kt * kh * kw * opix),
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t ic = c0; ic < c1; ++ic) {
          float* vol = gin + ic * t * h * w;
          for (std::int64_t kz = 0; kz < kt; ++kz) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t r = ((ic * kt + kz) * kh + ky) * kw + kx;
                const float* src = dcol + r * opix;
                for (std::int64_t z = 0; z < ot; ++z) {
                  const std::int64_t iz = z * stride_t + kz - pad_t;
                  if (iz < 0 || iz >= t) continue;
                  for (std::int64_t y = 0; y < oh; ++y) {
                    const std::int64_t iy = y * stride_s + ky - pad_s;
                    if (iy < 0 || iy >= h) continue;
                    for (std::int64_t x = 0; x < ow; ++x) {
                      const std::int64_t ix = x * stride_s + kx - pad_s;
                      if (ix < 0 || ix >= w) continue;
                      vol[(iz * h + iy) * w + ix] +=
                          src[(z * oh + y) * ow + x];
                    }
                  }
                }
              }
            }
          }
        }
      });
}

}  // namespace

Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps) {
  TSDX_SHAPE_ASSERT(x.rank() >= 1 && x.shape().back() > 0,
                    "layer_norm: need a non-empty last dim, got ",
                    to_string(x.shape()));
  const std::int64_t d = x.shape().back();
  TSDX_SHAPE_ASSERT(gamma.shape() == Shape{d} && beta.shape() == Shape{d},
                    "layer_norm: gamma ", to_string(gamma.shape()),
                    " / beta ", to_string(beta.shape()), " must be [", d, "]");
  const std::int64_t rows = x.numel() / d;
  std::vector<float> out(static_cast<std::size_t>(x.numel()));
  // Saved for backward: normalized values and 1/std per row.
  auto xhat = std::make_shared<std::vector<float>>(out.size());
  auto inv_std = std::make_shared<std::vector<float>>(
      static_cast<std::size_t>(rows));

  const auto xv = x.data();
  const auto gv = gamma.data();
  const auto bv = beta.data();
  const std::int64_t grain = par::suggest_grain(rows, d);
  kernels::for_each_row(rows, d, [&](std::int64_t r) {
    (*inv_std)[static_cast<std::size_t>(r)] = kernels::layer_norm_row(
        out.data() + r * d, xv.data() + r * d, gv.data(), bv.data(), d, eps,
        xhat->data() + r * d);
  });

  NodePtr xn = x.node();
  NodePtr gn = gamma.node();
  NodePtr bn = beta.node();
  Tensor result = make_op_result(
      x.shape(), std::move(out), {xn, gn, bn},
      [xn, gn, bn, xhat, inv_std, rows, d, grain](Node& self) {
        const auto& g = self.grad;
        const auto& gv2 = gn->data;
        if (bn->requires_grad) {
          auto& gb = bn->ensure_grad();
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* gr = g.data() + r * d;
            for (std::int64_t i = 0; i < d; ++i) gb[i] += gr[i];
          }
        }
        if (gn->requires_grad) {
          auto& gg = gn->ensure_grad();
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* gr = g.data() + r * d;
            const float* xh = xhat->data() + r * d;
            for (std::int64_t i = 0; i < d; ++i) gg[i] += gr[i] * xh[i];
          }
        }
        if (xn->requires_grad) {
          auto& gx = xn->ensure_grad();
          // dx = istd * (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat));
          // rows are independent, so the forward grain partitions them too.
          par::parallel_for(rows, grain, [&](std::int64_t r0, std::int64_t r1) {
            for (std::int64_t r = r0; r < r1; ++r) {
              const float* gr = g.data() + r * d;
              const float* xh = xhat->data() + r * d;
              const float istd = (*inv_std)[static_cast<std::size_t>(r)];
              float m1 = 0.0f, m2 = 0.0f;
              for (std::int64_t i = 0; i < d; ++i) {
                const float dxh = gr[i] * gv2[i];
                m1 += dxh;
                m2 += dxh * xh[i];
              }
              m1 /= static_cast<float>(d);
              m2 /= static_cast<float>(d);
              float* dst = gx.data() + r * d;
              for (std::int64_t i = 0; i < d; ++i) {
                const float dxh = gr[i] * gv2[i];
                dst[i] += istd * (dxh - m1 - xh[i] * m2);
              }
            }
          });
        }
      });
  if (trace::active()) {
    trace::OpRecord rec{trace::OpKind::kLayerNorm, "layer_norm", {xn, gn, bn},
                        result.node()};
    rec.scalar = eps;
    trace::record(std::move(rec));
  }
  return result;
}

Tensor cross_entropy_logits(const Tensor& logits,
                            const std::vector<std::int64_t>& targets) {
  TSDX_SHAPE_ASSERT(logits.rank() == 2, "cross_entropy: logits must be [B, C], got ",
                    to_string(logits.shape()));
  const std::int64_t b = logits.dim(0);
  const std::int64_t c = logits.dim(1);
  TSDX_SHAPE_ASSERT(static_cast<std::int64_t>(targets.size()) == b,
                    "cross_entropy: ", targets.size(), " targets for batch ", b);
  // Forward: mean of -log softmax at the target index; save the softmax for
  // backward.
  auto probs = std::make_shared<std::vector<float>>(
      static_cast<std::size_t>(b * c));
  const auto lv = logits.data();
  double loss = 0.0;
  for (std::int64_t r = 0; r < b; ++r) {
    const std::int64_t t = targets[static_cast<std::size_t>(r)];
    TSDX_CHECK(t >= 0 && t < c, "cross_entropy: target ", t,
               " out of range [0, ", c, ")");
    float* p = probs->data() + r * c;
    kernels::softmax_row(p, lv.data() + r * c, c);
    loss -= std::log(std::max(p[t], 1e-12f));
  }
  loss /= static_cast<double>(b);

  NodePtr ln = logits.node();
  auto tgt = std::make_shared<std::vector<std::int64_t>>(targets);
  return make_op_result(
      Shape{}, {static_cast<float>(loss)}, {ln},
      [ln, probs, tgt, b, c](Node& self) {
        if (!ln->requires_grad) return;
        auto& gl = ln->ensure_grad();
        const float scale = self.grad[0] / static_cast<float>(b);
        for (std::int64_t r = 0; r < b; ++r) {
          const float* p = probs->data() + r * c;
          float* dst = gl.data() + r * c;
          const std::int64_t t = (*tgt)[static_cast<std::size_t>(r)];
          for (std::int64_t i = 0; i < c; ++i) {
            dst[i] += scale * (p[i] - (i == t ? 1.0f : 0.0f));
          }
        }
      });
}

Tensor embedding_lookup(const Tensor& weight,
                        const std::vector<std::int64_t>& indices) {
  TSDX_SHAPE_ASSERT(weight.rank() == 2, "embedding: weight must be [V, D], got ",
                    to_string(weight.shape()));
  const std::int64_t v = weight.dim(0);
  const std::int64_t d = weight.dim(1);
  const std::int64_t n = static_cast<std::int64_t>(indices.size());
  std::vector<float> out(static_cast<std::size_t>(n * d));
  const auto wv = weight.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t idx = indices[static_cast<std::size_t>(i)];
    TSDX_CHECK(idx >= 0 && idx < v, "embedding: index ", idx,
               " out of range [0, ", v, ")");
    std::copy_n(wv.data() + idx * d, d, out.data() + i * d);
  }
  NodePtr wn = weight.node();
  auto idxs = std::make_shared<std::vector<std::int64_t>>(indices);
  Tensor result =
      make_op_result(Shape{n, d}, std::move(out), {wn},
                     [wn, idxs, d](Node& self) {
                       if (!wn->requires_grad) return;
                       auto& gw = wn->ensure_grad();
                       const auto& g = self.grad;
                       for (std::size_t i = 0; i < idxs->size(); ++i) {
                         const std::int64_t idx = (*idxs)[i];
                         const float* src =
                             g.data() + static_cast<std::int64_t>(i) * d;
                         float* dst = gw.data() + idx * d;
                         for (std::int64_t j = 0; j < d; ++j) dst[j] += src[j];
                       }
                     });
  if (trace::active()) {
    // The index list is an op attribute, not a tensor input: the compiled
    // plan re-runs the same gather, so it only needs the weight node. The
    // result is constant when the weight is (positional-index lookups).
    trace::record({trace::OpKind::kEmbeddingLookup, "embedding_lookup", {wn},
                   result.node()});
  }
  return result;
}

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              std::int64_t stride, std::int64_t pad) {
  TSDX_SHAPE_ASSERT(input.rank() == 4 && weight.rank() == 4,
                    "conv2d: input [B,C,H,W], weight [O,C,KH,KW], got ",
                    to_string(input.shape()), " and ",
                    to_string(weight.shape()));
  const std::int64_t b = input.dim(0), cin = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t cout = weight.dim(0), kh = weight.dim(2),
                     kw = weight.dim(3);
  TSDX_SHAPE_ASSERT(weight.dim(1) == cin, "conv2d: weight has ", weight.dim(1),
                    " input channels, input has ", cin);
  TSDX_SHAPE_ASSERT(bias.shape() == Shape{cout}, "conv2d: bias must be [",
                    cout, "], got ", to_string(bias.shape()));
  TSDX_CHECK(stride >= 1, "conv2d: stride must be >= 1, got ", stride);
  TSDX_CHECK(pad >= 0, "conv2d: pad must be >= 0, got ", pad);
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  TSDX_SHAPE_ASSERT(oh > 0 && ow > 0, "conv2d: empty output for input ",
                    to_string(input.shape()), " and kernel ",
                    to_string(weight.shape()));

  const std::int64_t ck = cin * kh * kw;
  const std::int64_t opix = oh * ow;
  std::vector<float> out(static_cast<std::size_t>(b * cout * opix));
  const float* in = input.data().data();
  const float* wt = weight.data().data();
  const float* bs = bias.data().data();

  // out[n] = bias ⊕ W[cout, ck] · col[ck, opix]: pre-fill each output channel
  // with its bias so the GEMM's accumulation starts from it, exactly like the
  // direct loop's `acc = bs[oc]`.
  std::vector<float> col(static_cast<std::size_t>(ck * opix));
  for (std::int64_t n = 0; n < b; ++n) {
    im2col(in + n * cin * h * w, cin, 1, h, w, 1, kh, kw, 1, oh, ow, 1, stride,
           0, pad, col.data());
    float* outn = out.data() + n * cout * opix;
    for (std::int64_t oc = 0; oc < cout; ++oc) {
      std::fill_n(outn + oc * opix, opix, bs[oc]);
    }
    kernels::mm_nn(cout, ck, opix, wt, col.data(), outn);
  }

  NodePtr in_n = input.node();
  NodePtr wt_n = weight.node();
  NodePtr bs_n = bias.node();
  return make_op_result(
      Shape{b, cout, oh, ow}, std::move(out), {in_n, wt_n, bs_n},
      [in_n, wt_n, bs_n, b, cin, h, w, cout, kh, kw, oh, ow, stride,
       pad](Node& self) {
        const std::int64_t ck = cin * kh * kw;
        const std::int64_t opix = oh * ow;
        const float* g = self.grad.data();
        const float* in2 = in_n->data.data();
        const float* wt2 = wt_n->data.data();
        float* gin = in_n->requires_grad ? in_n->ensure_grad().data() : nullptr;
        float* gwt = wt_n->requires_grad ? wt_n->ensure_grad().data() : nullptr;
        float* gbs = bs_n->requires_grad ? bs_n->ensure_grad().data() : nullptr;

        std::vector<float> col;
        if (gwt) col.resize(static_cast<std::size_t>(ck * opix));
        std::vector<float> dcol;
        if (gin) dcol.resize(static_cast<std::size_t>(ck * opix));
        for (std::int64_t n = 0; n < b; ++n) {
          const float* gn = g + n * cout * opix;
          if (gbs) {
            for (std::int64_t oc = 0; oc < cout; ++oc) {
              const float* row = gn + oc * opix;
              for (std::int64_t j = 0; j < opix; ++j) gbs[oc] += row[j];
            }
          }
          if (gwt) {
            // dW[cout, ck] += G[cout, opix] · colᵀ
            im2col(in2 + n * cin * h * w, cin, 1, h, w, 1, kh, kw, 1, oh, ow,
                   1, stride, 0, pad, col.data());
            kernels::mm_nt(cout, opix, ck, gn, col.data(), gwt);
          }
          if (gin) {
            // dcol[ck, opix] = Wᵀ · G, scattered back through col2im.
            std::fill(dcol.begin(), dcol.end(), 0.0f);
            kernels::mm_tn(ck, cout, opix, wt2, gn, dcol.data());
            col2im(dcol.data(), cin, 1, h, w, 1, kh, kw, 1, oh, ow, 1, stride,
                   0, pad, gin + n * cin * h * w);
          }
        }
      });
}

Tensor conv3d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              std::int64_t stride_t, std::int64_t stride_s, std::int64_t pad_t,
              std::int64_t pad_s) {
  TSDX_SHAPE_ASSERT(input.rank() == 5 && weight.rank() == 5,
                    "conv3d: input [B,C,T,H,W], weight [O,C,KT,KH,KW], got ",
                    to_string(input.shape()), " and ",
                    to_string(weight.shape()));
  const std::int64_t b = input.dim(0), cin = input.dim(1), t = input.dim(2),
                     h = input.dim(3), w = input.dim(4);
  const std::int64_t cout = weight.dim(0), kt = weight.dim(2),
                     kh = weight.dim(3), kw = weight.dim(4);
  TSDX_SHAPE_ASSERT(weight.dim(1) == cin, "conv3d: weight has ", weight.dim(1),
                    " input channels, input has ", cin);
  TSDX_SHAPE_ASSERT(bias.shape() == Shape{cout}, "conv3d: bias must be [",
                    cout, "], got ", to_string(bias.shape()));
  TSDX_CHECK(stride_t >= 1 && stride_s >= 1,
             "conv3d: strides must be >= 1, got ", stride_t, " and ", stride_s);
  TSDX_CHECK(pad_t >= 0 && pad_s >= 0, "conv3d: pads must be >= 0, got ",
             pad_t, " and ", pad_s);
  const std::int64_t ot = (t + 2 * pad_t - kt) / stride_t + 1;
  const std::int64_t oh = (h + 2 * pad_s - kh) / stride_s + 1;
  const std::int64_t ow = (w + 2 * pad_s - kw) / stride_s + 1;
  TSDX_SHAPE_ASSERT(ot > 0 && oh > 0 && ow > 0,
                    "conv3d: empty output for input ", to_string(input.shape()),
                    " and kernel ", to_string(weight.shape()));

  const std::int64_t ck = cin * kt * kh * kw;
  const std::int64_t opix = ot * oh * ow;
  std::vector<float> out(static_cast<std::size_t>(b * cout * opix));
  const float* in = input.data().data();
  const float* wt = weight.data().data();
  const float* bs = bias.data().data();

  std::vector<float> col(static_cast<std::size_t>(ck * opix));
  for (std::int64_t n = 0; n < b; ++n) {
    im2col(in + n * cin * t * h * w, cin, t, h, w, kt, kh, kw, ot, oh, ow,
           stride_t, stride_s, pad_t, pad_s, col.data());
    float* outn = out.data() + n * cout * opix;
    for (std::int64_t oc = 0; oc < cout; ++oc) {
      std::fill_n(outn + oc * opix, opix, bs[oc]);
    }
    kernels::mm_nn(cout, ck, opix, wt, col.data(), outn);
  }

  NodePtr in_n = input.node();
  NodePtr wt_n = weight.node();
  NodePtr bs_n = bias.node();
  return make_op_result(
      Shape{b, cout, ot, oh, ow}, std::move(out), {in_n, wt_n, bs_n},
      [in_n, wt_n, bs_n, b, cin, t, h, w, cout, kt, kh, kw, ot, oh, ow,
       stride_t, stride_s, pad_t, pad_s](Node& self) {
        const std::int64_t ck = cin * kt * kh * kw;
        const std::int64_t opix = ot * oh * ow;
        const float* g = self.grad.data();
        const float* in2 = in_n->data.data();
        const float* wt2 = wt_n->data.data();
        float* gin = in_n->requires_grad ? in_n->ensure_grad().data() : nullptr;
        float* gwt = wt_n->requires_grad ? wt_n->ensure_grad().data() : nullptr;
        float* gbs = bs_n->requires_grad ? bs_n->ensure_grad().data() : nullptr;

        std::vector<float> col;
        if (gwt) col.resize(static_cast<std::size_t>(ck * opix));
        std::vector<float> dcol;
        if (gin) dcol.resize(static_cast<std::size_t>(ck * opix));
        for (std::int64_t n = 0; n < b; ++n) {
          const float* gn = g + n * cout * opix;
          if (gbs) {
            for (std::int64_t oc = 0; oc < cout; ++oc) {
              const float* row = gn + oc * opix;
              for (std::int64_t j = 0; j < opix; ++j) gbs[oc] += row[j];
            }
          }
          if (gwt) {
            im2col(in2 + n * cin * t * h * w, cin, t, h, w, kt, kh, kw, ot, oh,
                   ow, stride_t, stride_s, pad_t, pad_s, col.data());
            kernels::mm_nt(cout, opix, ck, gn, col.data(), gwt);
          }
          if (gin) {
            std::fill(dcol.begin(), dcol.end(), 0.0f);
            kernels::mm_tn(ck, cout, opix, wt2, gn, dcol.data());
            col2im(dcol.data(), cin, t, h, w, kt, kh, kw, ot, oh, ow, stride_t,
                   stride_s, pad_t, pad_s, gin + n * cin * t * h * w);
          }
        }
      });
}

Tensor max_pool2d(const Tensor& input, std::int64_t k, std::int64_t stride) {
  TSDX_SHAPE_ASSERT(input.rank() == 4, "max_pool2d: input must be [B,C,H,W], got ",
                    to_string(input.shape()));
  TSDX_CHECK(k >= 1 && stride >= 0, "max_pool2d: bad window k=", k,
             " stride=", stride);
  if (stride == 0) stride = k;
  const std::int64_t b = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t oh = (h - k) / stride + 1;
  const std::int64_t ow = (w - k) / stride + 1;
  TSDX_SHAPE_ASSERT(oh > 0 && ow > 0 && k <= h && k <= w,
                    "max_pool2d: window ", k, " does not fit input ",
                    to_string(input.shape()));

  std::vector<float> out(static_cast<std::size_t>(b * c * oh * ow));
  auto argmax = std::make_shared<std::vector<std::int64_t>>(out.size());
  const float* in = input.data().data();
  std::size_t oi = 0;
  for (std::int64_t n = 0; n < b; ++n) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = in + ((n * c + ch) * h) * w;
      const std::int64_t plane_off = ((n * c + ch) * h) * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x, ++oi) {
          float best = plane[(y * stride) * w + (x * stride)];
          std::int64_t besti = plane_off + (y * stride) * w + (x * stride);
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t iy = y * stride + ky;
              const std::int64_t ix = x * stride + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                besti = plane_off + iy * w + ix;
              }
            }
          }
          out[oi] = best;
          (*argmax)[oi] = besti;
        }
      }
    }
  }
  NodePtr in_n = input.node();
  return make_op_result(Shape{b, c, oh, ow}, std::move(out), {in_n},
                        [in_n, argmax](Node& self) {
                          if (!in_n->requires_grad) return;
                          auto& gi = in_n->ensure_grad();
                          const auto& g = self.grad;
                          for (std::size_t i = 0; i < g.size(); ++i) {
                            gi[static_cast<std::size_t>((*argmax)[i])] += g[i];
                          }
                        });
}

Tensor dropout(const Tensor& x, float p, Rng& rng) {
  TSDX_CHECK(p >= 0.0f && p < 1.0f, "dropout: p must be in [0, 1), got ", p);
  if (p == 0.0f) return x;
  const float scale = 1.0f / (1.0f - p);
  auto mask = std::make_shared<std::vector<float>>(
      static_cast<std::size_t>(x.numel()));
  for (auto& m : *mask) m = rng.bernoulli(p) ? 0.0f : scale;

  std::vector<float> out(mask->size());
  const auto xv = x.data();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = xv[i] * (*mask)[i];

  NodePtr xn = x.node();
  return make_op_result(x.shape(), std::move(out), {xn},
                        [xn, mask](Node& self) {
                          if (!xn->requires_grad) return;
                          auto& gx = xn->ensure_grad();
                          const auto& g = self.grad;
                          for (std::size_t i = 0; i < g.size(); ++i) {
                            gx[i] += g[i] * (*mask)[i];
                          }
                        });
}

}  // namespace tsdx::tensor
