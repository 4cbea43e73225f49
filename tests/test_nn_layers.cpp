// Tests for tensors and layers, including finite-difference gradient checks
// of every differentiable layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/basic_layers.hpp"
#include "nn/linear.hpp"
#include "nn/tensor.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;
using nn::Tensor;

TEST(TensorTest, ShapeAndNumel) {
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.shape().size(), 3u);
    EXPECT_EQ(t.numel(), 24);
    EXPECT_EQ(t.shape()[1], 3);
    for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(TensorTest, OutOfBoundsThrows) {
    Tensor t({2, 2, 2});
    EXPECT_THROW((void)t[8], util::ContractViolation);
}

TEST(TensorTest, KaimingBoundsRespectFanIn) {
    util::Rng rng(5);
    const int fan_in = 50;
    const Tensor t = Tensor::kaiming_uniform({10, 50}, fan_in, rng);
    const float bound = std::sqrt(6.0F / fan_in);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        EXPECT_LE(std::fabs(t[i]), bound);
    }
    float largest = 0.0F;
    for (const float v : t.storage()) largest = std::max(largest, std::fabs(v));
    EXPECT_GT(largest, bound * 0.5F);  // actually spread out
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checking machinery.

/// Numerically check d(sum(forward(x) * w))/dx against layer.backward.
void check_input_gradient(nn::Layer& layer, const Tensor& input,
                          float tolerance = 2e-2F) {
    util::Rng rng(99);
    Tensor out = layer.forward(input);
    Tensor weighting(out.shape());
    for (std::int64_t i = 0; i < weighting.numel(); ++i) {
        weighting[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    const Tensor analytic = layer.backward(weighting);

    const float eps = 1e-2F;
    Tensor x = input;
    for (std::int64_t i = 0; i < x.numel(); ++i) {
        const float saved = x[i];
        x[i] = saved + eps;
        Tensor up = layer.forward(x);
        x[i] = saved - eps;
        Tensor down = layer.forward(x);
        x[i] = saved;
        double num = 0.0;
        for (std::int64_t j = 0; j < up.numel(); ++j) {
            num += static_cast<double>(weighting[j]) * (up[j] - down[j]);
        }
        num /= 2.0 * eps;
        EXPECT_NEAR(analytic[i], num, tolerance)
            << "input grad mismatch at flat index " << i;
    }
}

/// Numerically check parameter gradients of a layer.
void check_param_gradients(nn::Layer& layer, const Tensor& input,
                           float tolerance = 2e-2F) {
    util::Rng rng(17);
    Tensor out = layer.forward(input);
    Tensor weighting(out.shape());
    for (std::int64_t i = 0; i < weighting.numel(); ++i) {
        weighting[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    layer.zero_grad();
    (void)layer.backward(weighting);

    const auto params = layer.parameters();
    const auto grads = layer.gradients();
    ASSERT_EQ(params.size(), grads.size());
    const float eps = 1e-2F;
    for (std::size_t p = 0; p < params.size(); ++p) {
        Tensor& param = *params[p];
        for (std::int64_t i = 0; i < param.numel(); ++i) {
            const float saved = param[i];
            param[i] = saved + eps;
            Tensor up = layer.forward(input);
            param[i] = saved - eps;
            Tensor down = layer.forward(input);
            param[i] = saved;
            double num = 0.0;
            for (std::int64_t j = 0; j < up.numel(); ++j) {
                num += static_cast<double>(weighting[j]) * (up[j] - down[j]);
            }
            num /= 2.0 * eps;
            EXPECT_NEAR((*grads[p])[i], num, tolerance)
                << "param " << p << " grad mismatch at index " << i;
        }
    }
}

Tensor random_tensor(nn::Shape shape, std::uint64_t seed, float lo = -1.0F,
                     float hi = 1.0F) {
    util::Rng rng(seed);
    Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<float>(rng.uniform(lo, hi));
    }
    return t;
}

// ---------------------------------------------------------------------------

TEST(LinearTest, KnownValue) {
    util::Rng rng(9);
    nn::Linear fc(2, 2, rng);
    fc.weight()[0] = 1.0F;  // row-major [out, in]
    fc.weight()[1] = 2.0F;
    fc.weight()[2] = -1.0F;
    fc.weight()[3] = 0.5F;
    fc.bias()[0] = 0.1F;
    fc.bias()[1] = -0.1F;
    Tensor x({2}, {3.0F, 4.0F});
    const Tensor y = fc.forward(x);
    EXPECT_NEAR(y[0], 3 + 8 + 0.1, 1e-5);
    EXPECT_NEAR(y[1], -3 + 2 - 0.1, 1e-5);
}

TEST(LinearTest, GradientCheck) {
    util::Rng rng(10);
    nn::Linear fc(5, 4, rng);
    const Tensor x = random_tensor({5}, 13);
    check_input_gradient(fc, x);
    check_param_gradients(fc, x);
}

TEST(ReluTest, MasksNegativesAndRoutesGradient) {
    nn::Relu relu;
    Tensor x({4}, {-1.0F, 2.0F, 0.0F, 3.0F});
    const Tensor y = relu.forward(x);
    EXPECT_EQ(y[0], 0.0F);
    EXPECT_EQ(y[1], 2.0F);
    EXPECT_EQ(y[2], 0.0F);
    Tensor g({4}, {1.0F, 1.0F, 1.0F, 1.0F});
    const Tensor gx = relu.backward(g);
    EXPECT_EQ(gx[0], 0.0F);
    EXPECT_EQ(gx[1], 1.0F);
    EXPECT_EQ(gx[2], 0.0F);
    EXPECT_EQ(gx[3], 1.0F);
}

TEST(SigmoidTest, GradientCheckAndRange) {
    nn::Sigmoid sig;
    const Tensor x = random_tensor({6}, 18, -3.0F, 3.0F);
    const Tensor y = sig.forward(x);
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        EXPECT_GT(y[i], 0.0F);
        EXPECT_LT(y[i], 1.0F);
    }
    check_input_gradient(sig, x, 1e-2F);
}

}  // namespace
