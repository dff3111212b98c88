// tensor_test.cpp — unit tests for the tensor library: construction, shape
// plumbing, op semantics against hand-computed values, and the autograd
// engine's bookkeeping (accumulation, reuse, detach, NoGradGuard).
#include <gtest/gtest.h>

#include <cmath>

#include "core/check.hpp"
#include "tensor/nn_ops.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace tt = tsdx::tensor;
using tt::Shape;
using tt::Tensor;

namespace {

std::vector<float> values(const Tensor& t) {
  return {t.data().begin(), t.data().end()};
}

}  // namespace

// ---- shape helpers ----------------------------------------------------------

TEST(ShapeTest, NumelAndStrides) {
  EXPECT_EQ(tt::numel({}), 1);
  EXPECT_EQ(tt::numel({2, 3, 4}), 24);
  EXPECT_EQ(tt::numel({5, 0, 3}), 0);
  EXPECT_EQ(tt::row_major_strides({2, 3, 4}), (Shape{12, 4, 1}));
  EXPECT_EQ(tt::to_string(Shape{2, 3}), "[2, 3]");
}

TEST(ShapeTest, SuffixBroadcastPredicate) {
  EXPECT_TRUE(tt::is_suffix_of({4}, {2, 3, 4}));
  EXPECT_TRUE(tt::is_suffix_of({3, 4}, {2, 3, 4}));
  EXPECT_TRUE(tt::is_suffix_of({2, 3, 4}, {2, 3, 4}));
  EXPECT_FALSE(tt::is_suffix_of({2}, {2, 3, 4}));
  EXPECT_FALSE(tt::is_suffix_of({2, 3, 4, 5}, {3, 4, 5}));
}

// ---- construction -------------------------------------------------------------

TEST(TensorTest, ZerosOnesFull) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);
  Tensor o = Tensor::ones({4});
  for (float v : o.data()) EXPECT_EQ(v, 1.0f);
  Tensor f = Tensor::full({2, 2}, 3.5f);
  for (float v : f.data()) EXPECT_EQ(v, 3.5f);
  EXPECT_FLOAT_EQ(Tensor::scalar(2.5f).item(), 2.5f);
}

TEST(TensorTest, FromVectorValidation) {
  EXPECT_NO_THROW(Tensor::from_vector({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(TensorTest, RandnStatistics) {
  tt::Rng rng(123);
  Tensor r = Tensor::randn({10000}, rng, 2.0f);
  double mean = 0.0, var = 0.0;
  for (float v : r.data()) mean += v;
  mean /= 10000.0;
  for (float v : r.data()) var += (v - mean) * (v - mean);
  var /= 10000.0;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(TensorTest, RandUniformRange) {
  tt::Rng rng(7);
  Tensor r = Tensor::rand_uniform({1000}, rng, -0.5f, 0.5f);
  for (float v : r.data()) {
    EXPECT_GE(v, -0.5f);
    EXPECT_LT(v, 0.5f);
  }
}

// ---- elementwise and broadcasting -------------------------------------------------

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 2}, {10, 20, 30, 40});
  EXPECT_EQ(values(tt::add(a, b)), (std::vector<float>{11, 22, 33, 44}));
  EXPECT_EQ(values(a + b), (std::vector<float>{11, 22, 33, 44}));
}

TEST(OpsTest, SubMulDiv) {
  Tensor a = Tensor::from_vector({3}, {4, 9, 16});
  Tensor b = Tensor::from_vector({3}, {2, 3, 4});
  EXPECT_EQ(values(a - b), (std::vector<float>{2, 6, 12}));
  EXPECT_EQ(values(a * b), (std::vector<float>{8, 27, 64}));
  EXPECT_EQ(values(a / b), (std::vector<float>{2, 3, 4}));
}

TEST(OpsTest, SuffixBroadcastBias) {
  Tensor x = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::from_vector({3}, {10, 20, 30});
  EXPECT_EQ(values(tt::add(x, bias)),
            (std::vector<float>{11, 22, 33, 14, 25, 36}));
  // Symmetric: small operand on the left.
  EXPECT_EQ(values(tt::add(bias, x)),
            (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(OpsTest, IncompatibleShapesThrow) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({2});
  EXPECT_THROW(tt::add(a, b), std::invalid_argument);
}

TEST(OpsTest, ScalarOps) {
  Tensor a = Tensor::from_vector({2}, {1, -2});
  EXPECT_EQ(values(tt::add_scalar(a, 1.0f)), (std::vector<float>{2, -1}));
  EXPECT_EQ(values(tt::mul_scalar(a, -3.0f)), (std::vector<float>{-3, 6}));
}

TEST(OpsTest, UnaryFunctions) {
  Tensor a = Tensor::from_vector({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_EQ(values(tt::relu(a)), (std::vector<float>{0, 0, 2}));
  EXPECT_EQ(values(tt::neg(a)), (std::vector<float>{1, 0, -2}));
  const auto s = values(tt::sigmoid(a));
  EXPECT_NEAR(s[1], 0.5f, 1e-6f);
  EXPECT_NEAR(s[2], 1.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
  const auto t = values(tt::tanh(Tensor::from_vector({1}, {0.5f})));
  EXPECT_NEAR(t[0], std::tanh(0.5f), 1e-6f);
}

TEST(OpsTest, GeluMatchesReference) {
  // Reference values of tanh-approximated GELU.
  Tensor a = Tensor::from_vector({3}, {-1.0f, 0.0f, 1.0f});
  const auto g = values(tt::gelu(a));
  EXPECT_NEAR(g[0], -0.15880801f, 1e-5f);
  EXPECT_NEAR(g[1], 0.0f, 1e-7f);
  EXPECT_NEAR(g[2], 0.84119199f, 1e-5f);
}

TEST(OpsTest, AbsClampPow) {
  Tensor a = Tensor::from_vector({4}, {-2, -0.25f, 0.25f, 2});
  EXPECT_EQ(values(tt::abs(a)), (std::vector<float>{2, 0.25f, 0.25f, 2}));
  EXPECT_EQ(values(tt::clamp(a, -0.5f, 0.5f)),
            (std::vector<float>{-0.5f, -0.25f, 0.25f, 0.5f}));
  EXPECT_THROW(tt::clamp(a, 1.0f, 0.0f), std::invalid_argument);
  Tensor b = Tensor::from_vector({3}, {1, 4, 9});
  EXPECT_EQ(values(tt::pow(b, 0.5f)), (std::vector<float>{1, 2, 3}));
  EXPECT_EQ(values(tt::pow(b, 2.0f)), (std::vector<float>{1, 16, 81}));
}

TEST(OpsTest, MaxDim) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 5, 2, 9, 0, 3});
  const Tensor m1 = tt::max_dim(a, 1);
  EXPECT_EQ(m1.shape(), (Shape{2}));
  EXPECT_EQ(values(m1), (std::vector<float>{5, 9}));
  const Tensor m0 = tt::max_dim(a, 0);
  EXPECT_EQ(values(m0), (std::vector<float>{9, 5, 3}));
  EXPECT_THROW(tt::max_dim(a, 2), std::invalid_argument);
}

TEST(OpsTest, StackAddsLeadingAxis) {
  Tensor a = Tensor::from_vector({2}, {1, 2});
  Tensor b = Tensor::from_vector({2}, {3, 4});
  const Tensor s = tt::stack({a, b});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(values(s), (std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(tt::stack({a, Tensor::zeros({3})}), std::invalid_argument);
  EXPECT_THROW(tt::stack({}), std::invalid_argument);
}

TEST(OpsTest, FlipReversesAxis) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(values(tt::flip(a, 1)), (std::vector<float>{3, 2, 1, 6, 5, 4}));
  EXPECT_EQ(values(tt::flip(a, 0)), (std::vector<float>{4, 5, 6, 1, 2, 3}));
  // Involution: flip(flip(x)) == x.
  EXPECT_EQ(values(tt::flip(tt::flip(a, 1), 1)), values(a));
}

// ---- matmul ------------------------------------------------------------------------

TEST(OpsTest, Matmul2D) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3, 2}, {7, 8, 9, 10, 11, 12});
  EXPECT_EQ(tt::matmul(a, b).shape(), (Shape{2, 2}));
  EXPECT_EQ(values(tt::matmul(a, b)),
            (std::vector<float>{58, 64, 139, 154}));
}

TEST(OpsTest, MatmulBatchedSharedRhs) {
  Tensor a = Tensor::from_vector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 2}, {1, 0, 0, 1});  // identity
  const Tensor c = tt::matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 1, 2}));
  EXPECT_EQ(values(c), (std::vector<float>{1, 2, 3, 4}));
}

TEST(OpsTest, MatmulBatchedBatchedRhs) {
  Tensor a = Tensor::from_vector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 2, 1}, {1, 1, 2, 2});
  const Tensor c = tt::matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 1, 1}));
  EXPECT_EQ(values(c), (std::vector<float>{3, 14}));
}

TEST(OpsTest, MatmulShapeErrors) {
  EXPECT_THROW(tt::matmul(Tensor::zeros({2, 3}), Tensor::zeros({2, 3})),
               std::invalid_argument);
  EXPECT_THROW(tt::matmul(Tensor::zeros({3}), Tensor::zeros({3, 2})),
               std::invalid_argument);
  EXPECT_THROW(
      tt::matmul(Tensor::zeros({2, 2, 3}), Tensor::zeros({3, 3, 4})),
      std::invalid_argument);
}

// ---- reductions ------------------------------------------------------------------------

TEST(OpsTest, SumAndMeanAll) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(tt::sum_all(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(tt::mean_all(a).item(), 2.5f);
}

TEST(OpsTest, SumDimMiddle) {
  Tensor a = Tensor::from_vector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor s = tt::sum_dim(a, 1);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(values(s), (std::vector<float>{4, 6, 12, 14}));
  const Tensor m = tt::mean_dim(a, 2);
  EXPECT_EQ(values(m), (std::vector<float>{1.5, 3.5, 5.5, 7.5}));
}

TEST(OpsTest, SumDimOutOfRangeThrows) {
  EXPECT_THROW(tt::sum_dim(Tensor::zeros({2}), 1), std::invalid_argument);
}

// ---- shape ops ------------------------------------------------------------------------------

TEST(OpsTest, ReshapeAndInference) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(tt::reshape(a, {3, 2}).shape(), (Shape{3, 2}));
  EXPECT_EQ(tt::reshape(a, {-1}).shape(), (Shape{6}));
  EXPECT_EQ(tt::reshape(a, {3, -1}).shape(), (Shape{3, 2}));
  EXPECT_THROW(tt::reshape(a, {4, 2}), std::invalid_argument);
  EXPECT_THROW(tt::reshape(a, {-1, -1}), std::invalid_argument);
}

TEST(OpsTest, PermuteTranspose) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor at = tt::transpose_last2(a);
  EXPECT_EQ(at.shape(), (Shape{3, 2}));
  EXPECT_EQ(values(at), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(OpsTest, Permute3D) {
  // [2,1,3] -> permute(2,0,1) -> [3,2,1]
  Tensor a = Tensor::from_vector({2, 1, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor p = tt::permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{3, 2, 1}));
  EXPECT_EQ(values(p), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(OpsTest, PermuteInvalid) {
  Tensor a = Tensor::zeros({2, 3});
  EXPECT_THROW(tt::permute(a, {0}), std::invalid_argument);
  EXPECT_THROW(tt::permute(a, {0, 0}), std::invalid_argument);
  EXPECT_THROW(tt::permute(a, {0, 2}), std::invalid_argument);
}

TEST(OpsTest, PermuteRoundTrip) {
  tt::Rng rng(5);
  Tensor a = Tensor::randn({2, 3, 4, 5}, rng);
  const Tensor p = tt::permute(a, {3, 1, 0, 2});
  // inverse of {3,1,0,2} is {2,1,3,0}
  const Tensor back = tt::permute(p, {2, 1, 3, 0});
  EXPECT_EQ(values(back), values(a));
}

TEST(OpsTest, ConcatAndSlice) {
  Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector({2, 1}, {9, 8});
  const Tensor c = tt::concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(values(c), (std::vector<float>{1, 2, 9, 3, 4, 8}));

  const Tensor s = tt::slice(c, 1, 2, 1);
  EXPECT_EQ(s.shape(), (Shape{2, 1}));
  EXPECT_EQ(values(s), (std::vector<float>{9, 8}));

  EXPECT_THROW(tt::slice(c, 1, 2, 2), std::invalid_argument);
  EXPECT_THROW(tt::concat({a, Tensor::zeros({3, 1})}, 1),
               std::invalid_argument);
}

// ---- softmax family ------------------------------------------------------------------------

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, -1, 0, 100});
  const Tensor s = tt::softmax_lastdim(a);
  const auto v = values(s);
  EXPECT_NEAR(v[0] + v[1] + v[2], 1.0f, 1e-5f);
  EXPECT_NEAR(v[3] + v[4] + v[5], 1.0f, 1e-5f);
  EXPECT_NEAR(v[5], 1.0f, 1e-5f);  // stable for large logits
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = Tensor::from_vector({1, 4}, {0.5f, -1.0f, 2.0f, 0.0f});
  const auto ls = values(tt::log_softmax_lastdim(a));
  const auto s = values(tt::softmax_lastdim(a));
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(ls[i], std::log(s[i]), 1e-5f);
}

TEST(OpsTest, ArgmaxLastDim) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 5, 2, 9, 0, 3});
  EXPECT_EQ(tt::argmax_lastdim(a), (std::vector<std::int64_t>{1, 0}));
}

TEST(OpsTest, SoftmaxFamilyRejectsEmptyLastDim) {
  // rows = numel / d would divide by zero.
  const Tensor empty = Tensor::zeros({2, 0});
  EXPECT_THROW(tt::softmax_lastdim(empty), tsdx::ShapeError);
  EXPECT_THROW(tt::log_softmax_lastdim(empty), tsdx::ShapeError);
  EXPECT_THROW(tt::argmax_lastdim(empty), tsdx::ShapeError);
}

// ---- autograd engine -------------------------------------------------------------------------

TEST(AutogradTest, SimpleChain) {
  Tensor x = Tensor::from_vector({2}, {3, 4}, /*requires_grad=*/true);
  Tensor y = tt::sum_all(tt::mul(x, x));  // sum(x^2)
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 8.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwards) {
  Tensor x = Tensor::from_vector({1}, {2}, true);
  Tensor y = tt::sum_all(tt::mul(x, x));
  y.backward();
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);  // 4 + 4
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(AutogradTest, ReusedTensorAccumulates) {
  // y = x + x: dy/dx = 2
  Tensor x = Tensor::from_vector({1}, {5}, true);
  Tensor y = tt::sum_all(tt::add(x, x));
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(AutogradTest, DiamondGraph) {
  // z = (x*2) + (x*3): dz/dx = 5
  Tensor x = Tensor::from_vector({1}, {1}, true);
  Tensor z = tt::sum_all(
      tt::add(tt::mul_scalar(x, 2.0f), tt::mul_scalar(x, 3.0f)));
  z.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
}

TEST(AutogradTest, NonScalarBackwardNeedsSeed) {
  Tensor x = Tensor::from_vector({2}, {1, 2}, true);
  Tensor y = tt::mul_scalar(x, 2.0f);
  EXPECT_THROW(y.backward(), std::logic_error);
  const std::vector<float> seed = {1.0f, 10.0f};
  y.backward(seed);
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 20.0f);
}

TEST(AutogradTest, BackwardOutsideTapeThrows) {
  Tensor x = Tensor::from_vector({1}, {1}, false);
  Tensor y = tt::mul_scalar(x, 2.0f);
  EXPECT_THROW(y.backward(), std::logic_error);
}

TEST(AutogradTest, NoGradGuardStopsTape) {
  Tensor x = Tensor::from_vector({1}, {2}, true);
  {
    tt::NoGradGuard guard;
    EXPECT_TRUE(tt::NoGradGuard::active());
    Tensor y = tt::mul(x, x);
    EXPECT_FALSE(y.requires_grad());
  }
  EXPECT_FALSE(tt::NoGradGuard::active());
  Tensor y2 = tt::mul(x, x);
  EXPECT_TRUE(y2.requires_grad());
}

TEST(AutogradTest, DetachBreaksGraph) {
  Tensor x = Tensor::from_vector({1}, {3}, true);
  Tensor d = tt::mul(x, x).detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_FLOAT_EQ(d.at(0), 9.0f);
}

TEST(AutogradTest, BroadcastGradSumsOverLeadingDims) {
  Tensor x = Tensor::from_vector({2, 2}, {1, 2, 3, 4}, true);
  Tensor bias = Tensor::from_vector({2}, {10, 20}, true);
  Tensor y = tt::sum_all(tt::add(x, bias));
  y.backward();
  EXPECT_FLOAT_EQ(bias.grad()[0], 2.0f);  // summed over 2 rows
  EXPECT_FLOAT_EQ(bias.grad()[1], 2.0f);
}

TEST(AutogradTest, DeepChainIterativeTopoSort) {
  // 4000-deep chain: a recursive DFS would overflow the stack.
  Tensor x = Tensor::from_vector({1}, {1}, true);
  Tensor y = x;
  for (int i = 0; i < 4000; ++i) y = tt::add_scalar(y, 0.001f);
  tt::sum_all(y).backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
}

// ---- fused nn ops: forward semantics ----------------------------------------------------------

TEST(NnOpsTest, LayerNormNormalizes) {
  Tensor x = Tensor::from_vector({2, 4}, {1, 2, 3, 4, -5, 0, 5, 10});
  Tensor gamma = Tensor::ones({4});
  Tensor beta = Tensor::zeros({4});
  const Tensor y = tt::layer_norm(x, gamma, beta);
  const auto v = values(y);
  for (int row = 0; row < 2; ++row) {
    float mean = 0, var = 0;
    for (int i = 0; i < 4; ++i) mean += v[row * 4 + i];
    mean /= 4;
    for (int i = 0; i < 4; ++i) {
      var += (v[row * 4 + i] - mean) * (v[row * 4 + i] - mean);
    }
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var / 4, 1.0f, 1e-3f);
  }
}

TEST(NnOpsTest, LayerNormRejectsEmptyLastDim) {
  EXPECT_THROW(tt::layer_norm(Tensor::zeros({2, 0}), Tensor::ones({0}),
                              Tensor::zeros({0})),
               tsdx::ShapeError);
}

TEST(NnOpsTest, CrossEntropyUniformLogits) {
  Tensor logits = Tensor::zeros({3, 4});
  const Tensor loss = tt::cross_entropy_logits(logits, {0, 1, 2});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
}

TEST(NnOpsTest, CrossEntropyValidation) {
  EXPECT_THROW(tt::cross_entropy_logits(Tensor::zeros({2, 3}), {0}),
               std::invalid_argument);
  EXPECT_THROW(tt::cross_entropy_logits(Tensor::zeros({2, 3}), {0, 3}),
               std::invalid_argument);
}

TEST(NnOpsTest, EmbeddingLookupGathersRows) {
  Tensor w = Tensor::from_vector({3, 2}, {1, 2, 3, 4, 5, 6});
  const Tensor e = tt::embedding_lookup(w, {2, 0, 2});
  EXPECT_EQ(e.shape(), (Shape{3, 2}));
  EXPECT_EQ(values(e), (std::vector<float>{5, 6, 1, 2, 5, 6}));
  EXPECT_THROW(tt::embedding_lookup(w, {3}), std::invalid_argument);
}

TEST(NnOpsTest, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Tensor x = Tensor::from_vector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::ones({1, 1, 1, 1});
  Tensor b = Tensor::zeros({1});
  EXPECT_EQ(values(tt::conv2d(x, w, b)), values(x));
}

TEST(NnOpsTest, Conv2dKnownResult) {
  // 2x2 all-ones kernel over a 3x3 ramp, stride 1, no pad.
  Tensor x = Tensor::from_vector({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::ones({1, 1, 2, 2});
  Tensor b = Tensor::from_vector({1}, {0.5f});
  const Tensor y = tt::conv2d(x, w, b);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(values(y), (std::vector<float>{12.5, 16.5, 24.5, 28.5}));
}

TEST(NnOpsTest, Conv2dStridePad) {
  Tensor x = Tensor::ones({1, 1, 4, 4});
  Tensor w = Tensor::ones({1, 1, 3, 3});
  Tensor b = Tensor::zeros({1});
  const Tensor y = tt::conv2d(x, w, b, /*stride=*/2, /*pad=*/1);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  // Corner windows see 4 ones; with pad=1 the (0,0) window covers rows/cols
  // -1..1 -> 2x2 valid area = 4.
  EXPECT_EQ(values(y), (std::vector<float>{4, 6, 6, 9}));
}

TEST(NnOpsTest, MaxPool2d) {
  Tensor x = Tensor::from_vector({1, 1, 2, 4}, {1, 3, 2, 0, 5, 1, 1, 7});
  const Tensor y = tt::max_pool2d(x, 2);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_EQ(values(y), (std::vector<float>{5, 7}));
}

TEST(NnOpsTest, DropoutTrainingStatistics) {
  tt::Rng rng(99);
  Tensor x = Tensor::ones({10000});
  const Tensor y = tt::dropout(x, 0.4f, rng);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (float v : y.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);
    }
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.4, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);  // inverted dropout keeps E[x]
}

TEST(NnOpsTest, DropoutZeroPIsIdentity) {
  tt::Rng rng(1);
  Tensor x = Tensor::from_vector({3}, {1, 2, 3});
  EXPECT_EQ(values(tt::dropout(x, 0.0f, rng)), values(x));
  EXPECT_THROW(tt::dropout(x, 1.0f, rng), std::invalid_argument);
}

// ---- Rng determinism -----------------------------------------------------------------

TEST(RngTest, DeterministicAndSplittable) {
  tt::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  tt::Rng c(42);
  tt::Rng child1 = c.split();
  tt::Rng child2 = c.split();
  EXPECT_NE(child1.next_u64(), child2.next_u64());
}

TEST(RngTest, UniformIndexInRange) {
  tt::Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(7), 7u);
}

TEST(RngTest, BernoulliFrequency) {
  tt::Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}
