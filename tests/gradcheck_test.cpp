// gradcheck_test.cpp — every backward pass in the library is verified against
// central finite differences. The parameterized suite sweeps the op zoo; the
// standalone tests cover full nn modules (attention, LSTM, encoder layers,
// tubelet embedding) whose backward is the composition of many taped ops.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "core/video_transformer.hpp"
#include "nn/attention.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "tensor/gradcheck.hpp"
#include "tensor/nn_ops.hpp"
#include "tensor/ops.hpp"

namespace tt = tsdx::tensor;
namespace nn = tsdx::nn;
using tt::Shape;
using tt::Tensor;

namespace {

/// Reduce an op output to a scalar with fixed non-uniform weights, so that
/// gradients of ops with constant-sum outputs (softmax) are still exercised.
Tensor weighted_sum(const Tensor& y) {
  std::vector<float> w(static_cast<std::size_t>(y.numel()));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = std::sin(0.7f * static_cast<float>(i) + 0.3f) + 0.1f;
  }
  return tt::sum_all(tt::mul(y, Tensor::from_vector(y.shape(), std::move(w))));
}

using OpFn = std::function<Tensor(const std::vector<Tensor>&)>;

struct GradCase {
  std::string name;
  std::vector<Shape> input_shapes;
  OpFn op;              ///< maps inputs to the op result (any shape)
  bool positive = false;  ///< draw inputs from U(0.5, 1.5) instead of N(0,1)
};

// Without this, gtest prints a case as its raw bytes, pointers included, so
// the discovered ctest names would change with every address-space layout.
void PrintTo(const GradCase& c, std::ostream* os) { *os << c.name; }

std::vector<GradCase> op_cases() {
  std::vector<GradCase> cases;
  auto add_case = [&cases](std::string name, std::vector<Shape> shapes, OpFn op,
                           bool positive = false) {
    cases.push_back(GradCase{std::move(name), std::move(shapes), std::move(op),
                             positive});
  };

  // Elementwise binary, same shape and both broadcast directions.
  add_case("AddSame", {{2, 3}, {2, 3}},
           [](const auto& in) { return tt::add(in[0], in[1]); });
  add_case("AddBroadcastRhs", {{2, 3}, {3}},
           [](const auto& in) { return tt::add(in[0], in[1]); });
  add_case("AddBroadcastLhs", {{3}, {2, 3}},
           [](const auto& in) { return tt::add(in[0], in[1]); });
  add_case("Sub", {{2, 3}, {2, 3}},
           [](const auto& in) { return tt::sub(in[0], in[1]); });
  add_case("MulBroadcast", {{2, 2, 2}, {2}},
           [](const auto& in) { return tt::mul(in[0], in[1]); });
  add_case("Div", {{2, 3}, {2, 3}},
           [](const auto& in) { return tt::div(in[0], in[1]); },
           /*positive=*/true);
  add_case("DivBroadcast", {{2, 3}, {3}},
           [](const auto& in) { return tt::div(in[0], in[1]); },
           /*positive=*/true);

  // Scalar & unary.
  add_case("AddScalar", {{2, 3}},
           [](const auto& in) { return tt::add_scalar(in[0], 1.5f); });
  add_case("MulScalar", {{2, 3}},
           [](const auto& in) { return tt::mul_scalar(in[0], -2.0f); });
  add_case("Neg", {{4}}, [](const auto& in) { return tt::neg(in[0]); });
  add_case("Exp", {{2, 3}}, [](const auto& in) { return tt::exp(in[0]); });
  add_case("Log", {{2, 3}}, [](const auto& in) { return tt::log(in[0]); },
           true);
  add_case("Sqrt", {{2, 3}}, [](const auto& in) { return tt::sqrt(in[0]); },
           true);
  add_case("Tanh", {{2, 3}}, [](const auto& in) { return tt::tanh(in[0]); });
  add_case("Sigmoid", {{2, 3}},
           [](const auto& in) { return tt::sigmoid(in[0]); });
  add_case("Gelu", {{2, 3}}, [](const auto& in) { return tt::gelu(in[0]); });
  add_case("Relu", {{3, 3}}, [](const auto& in) { return tt::relu(in[0]); });

  add_case("Abs", {{3, 3}}, [](const auto& in) { return tt::abs(in[0]); });
  add_case("Clamp", {{3, 3}},
           [](const auto& in) { return tt::clamp(in[0], -0.5f, 0.5f); });
  add_case("PowSquare", {{2, 3}},
           [](const auto& in) { return tt::pow(in[0], 2.0f); }, true);
  add_case("PowHalf", {{2, 3}},
           [](const auto& in) { return tt::pow(in[0], 0.5f); }, true);

  // Matmul variants.
  add_case("Matmul2D", {{3, 2}, {2, 4}},
           [](const auto& in) { return tt::matmul(in[0], in[1]); });
  add_case("MatmulBatched", {{2, 3, 2}, {2, 2, 3}},
           [](const auto& in) { return tt::matmul(in[0], in[1]); });
  add_case("MatmulSharedRhs", {{2, 2, 3}, {3, 2}},
           [](const auto& in) { return tt::matmul(in[0], in[1]); });

  // Reductions.
  add_case("SumAll", {{2, 3}},
           [](const auto& in) { return tt::sum_all(in[0]); });
  add_case("MeanAll", {{2, 3}},
           [](const auto& in) { return tt::mean_all(in[0]); });
  add_case("SumDim0", {{2, 3, 2}},
           [](const auto& in) { return tt::sum_dim(in[0], 0); });
  add_case("SumDim1", {{2, 3, 2}},
           [](const auto& in) { return tt::sum_dim(in[0], 1); });
  add_case("MeanDim2", {{2, 3, 2}},
           [](const auto& in) { return tt::mean_dim(in[0], 2); });
  add_case("MaxDim1", {{2, 4, 2}},
           [](const auto& in) { return tt::max_dim(in[0], 1); });

  // Shape ops.
  add_case("Reshape", {{2, 6}},
           [](const auto& in) { return tt::reshape(in[0], {3, 4}); });
  add_case("Permute", {{2, 3, 2}},
           [](const auto& in) { return tt::permute(in[0], {1, 2, 0}); });
  add_case("TransposeLast2", {{2, 3, 4}},
           [](const auto& in) { return tt::transpose_last2(in[0]); });
  add_case("Slice", {{2, 5}},
           [](const auto& in) { return tt::slice(in[0], 1, 1, 3); });
  add_case("Concat", {{2, 2}, {2, 3}},
           [](const auto& in) { return tt::concat({in[0], in[1]}, 1); });
  add_case("Stack", {{2, 3}, {2, 3}},
           [](const auto& in) { return tt::stack({in[0], in[1]}); });
  add_case("FlipLast", {{2, 4}},
           [](const auto& in) { return tt::flip(in[0], 1); });
  add_case("FlipMiddle", {{2, 3, 2}},
           [](const auto& in) { return tt::flip(in[0], 1); });

  // Softmax family.
  add_case("Softmax", {{3, 5}},
           [](const auto& in) { return tt::softmax_lastdim(in[0]); });
  add_case("LogSoftmax", {{3, 5}},
           [](const auto& in) { return tt::log_softmax_lastdim(in[0]); });

  // Fused nn ops.
  add_case("LayerNorm", {{3, 6}, {6}, {6}}, [](const auto& in) {
    return tt::layer_norm(in[0], in[1], in[2]);
  });
  add_case("CrossEntropy", {{4, 5}}, [](const auto& in) {
    return tt::cross_entropy_logits(in[0], {0, 3, 2, 1});
  });
  add_case("Embedding", {{5, 3}}, [](const auto& in) {
    return tt::embedding_lookup(in[0], {4, 0, 2, 4});
  });
  add_case("Conv2d", {{2, 2, 5, 5}, {3, 2, 3, 3}, {3}}, [](const auto& in) {
    return tt::conv2d(in[0], in[1], in[2], /*stride=*/2, /*pad=*/1);
  });
  add_case("Conv2dStride1NoPad", {{1, 1, 4, 4}, {2, 1, 2, 2}, {2}},
           [](const auto& in) {
             return tt::conv2d(in[0], in[1], in[2], 1, 0);
           });
  add_case("MaxPool2d", {{1, 2, 4, 4}},
           [](const auto& in) { return tt::max_pool2d(in[0], 2); });

  return cases;
}

class OpGradCheck : public ::testing::TestWithParam<GradCase> {};

TEST_P(OpGradCheck, AnalyticMatchesNumeric) {
  const GradCase& c = GetParam();
  tt::Rng rng(0xC0FFEE);
  std::vector<Tensor> inputs;
  for (const Shape& shape : c.input_shapes) {
    Tensor t = c.positive
                   ? Tensor::rand_uniform(shape, rng, 0.5f, 1.5f, true)
                   : Tensor::randn(shape, rng, 1.0f, true);
    // Nudge values away from non-smooth points (relu kink, pool ties).
    auto data = t.mutable_data();
    for (auto& v : data) {
      if (std::abs(v) < 0.05f) v += v >= 0 ? 0.1f : -0.1f;
    }
    inputs.push_back(t);
  }
  const auto fn = [&c](const std::vector<Tensor>& in) {
    return weighted_sum(c.op(in));
  };
  const tt::GradCheckResult result = tt::grad_check(fn, inputs);
  EXPECT_TRUE(result.ok) << c.name << ": max_rel_err=" << result.max_rel_err
                         << " (" << result.detail << ")";
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpGradCheck, ::testing::ValuesIn(op_cases()),
                         [](const ::testing::TestParamInfo<GradCase>& info) {
                           return info.param.name;
                         });

}  // namespace

// ---- module-level grad checks -------------------------------------------------

namespace {

/// Check d(weighted_sum(module_forward(x)))/d(x and all params).
template <class Forward>
void check_module(const nn::Module& module, Tensor x, Forward forward) {
  std::vector<Tensor> inputs = {x};
  for (const Tensor& p : module.parameters()) inputs.push_back(p);
  const auto fn = [&forward](const std::vector<Tensor>& in) {
    return weighted_sum(forward(in[0]));
  };
  const tt::GradCheckResult result =
      tt::grad_check(fn, inputs, /*eps=*/1e-2, /*tol=*/5e-2);
  EXPECT_TRUE(result.ok) << "max_rel_err=" << result.max_rel_err << " ("
                         << result.detail << ")";
}

}  // namespace

TEST(ModuleGradCheck, Linear) {
  tt::Rng rng(1);
  nn::Linear linear(3, 2, rng);
  Tensor x = Tensor::randn({2, 3}, rng, 1.0f, true);
  check_module(linear, x, [&](const Tensor& in) { return linear.forward(in); });
}

TEST(ModuleGradCheck, MultiHeadAttention) {
  tt::Rng rng(2);
  nn::MultiHeadAttention mha(8, 2, 0.0f, rng);
  Tensor x = Tensor::randn({1, 3, 8}, rng, 1.0f, true);
  check_module(mha, x, [&](const Tensor& in) { return mha.forward(in); });
}

TEST(ModuleGradCheck, TransformerEncoderLayer) {
  tt::Rng rng(3);
  nn::TransformerEncoderLayer layer(8, 2, 16, 0.0f, rng);
  Tensor x = Tensor::randn({1, 3, 8}, rng, 1.0f, true);
  check_module(layer, x, [&](const Tensor& in) { return layer.forward(in); });
}

TEST(ModuleGradCheck, LstmFinalHidden) {
  tt::Rng rng(4);
  nn::Lstm lstm(3, 4, rng);
  Tensor x = Tensor::randn({2, 3, 3}, rng, 1.0f, true);
  check_module(lstm, x, [&](const Tensor& in) { return lstm.forward(in); });
}

TEST(ModuleGradCheck, GruFinalHidden) {
  tt::Rng rng(6);
  nn::Gru gru(3, 4, rng);
  Tensor x = Tensor::randn({2, 3, 3}, rng, 1.0f, true);
  check_module(gru, x, [&](const Tensor& in) { return gru.forward(in); });
}

TEST(ModuleGradCheck, TransformerEncoderDeepAttention) {
  // Two stacked layers: gradients must survive the full attention recursion
  // (softmax -> matmul -> projection) twice, plus the final norm.
  tt::Rng rng(7);
  nn::TransformerEncoder encoder(/*depth=*/2, /*dim=*/4, /*heads=*/2,
                                 /*mlp_hidden=*/8, /*dropout_p=*/0.0f, rng);
  Tensor x = Tensor::randn({1, 3, 4}, rng, 1.0f, true);
  check_module(encoder, x,
               [&](const Tensor& in) { return encoder.forward(in); });
}

TEST(ModuleGradCheck, VideoTransformerAttentionPool) {
  // End-to-end through the attention-pooling head (the learned pool_query
  // path in VideoTransformer::pool), which no op-level case exercises.
  tt::Rng rng(8);
  tsdx::core::ModelConfig cfg;
  cfg.frames = 2;
  cfg.channels = 2;
  cfg.image_size = 4;
  cfg.patch_size = 2;
  cfg.tubelet_frames = 1;
  cfg.dim = 4;
  cfg.depth = 1;
  cfg.heads = 2;
  cfg.pooling = tsdx::core::Pooling::kAttention;
  tsdx::core::VideoTransformer model(cfg, rng);
  Tensor x = Tensor::randn({1, 2, 2, 4, 4}, rng, 1.0f, true);
  check_module(model, x, [&](const Tensor& in) { return model.forward(in); });
}

TEST(ModuleGradCheck, TubeletEmbedding) {
  tt::Rng rng(5);
  tsdx::core::ModelConfig cfg;
  cfg.frames = 2;
  cfg.channels = 2;
  cfg.image_size = 4;
  cfg.patch_size = 2;
  cfg.tubelet_frames = 1;
  cfg.dim = 4;
  cfg.depth = 1;
  cfg.heads = 2;
  tsdx::core::TubeletEmbedding embed(cfg, rng);
  Tensor x = Tensor::randn({1, 2, 2, 4, 4}, rng, 1.0f, true);
  check_module(embed, x, [&](const Tensor& in) { return embed.forward(in); });
}
