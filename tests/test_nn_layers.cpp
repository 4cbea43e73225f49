// Tests for tensors and for the layers of rl::Mlp through its minibatch
// path: a known-value forward, finite-difference gradient checks through
// ReLU hidden layers and both output heads, the sigmoid's range and ReLU's
// gradient routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/tensor.hpp"
#include "rl/mlp.hpp"
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
// The MLP's layers, through the minibatch path.

std::vector<float> random_vector(std::size_t n, std::uint64_t seed,
                                 float lo = -1.0F, float hi = 1.0F) {
    util::Rng rng(seed);
    std::vector<float> v(n);
    for (float& x : v) x = static_cast<float>(rng.uniform(lo, hi));
    return v;
}

/// Sets every layer of `mlp` to the given weights and biases, in layer
/// order (each list row-major, as parameters() holds them).
void set_parameters(const rl::Mlp& mlp,
                    const std::vector<std::vector<float>>& values) {
    ASSERT_EQ(mlp.parameters().size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        ASSERT_EQ(mlp.parameters()[i]->storage().size(), values[i].size());
        mlp.parameters()[i]->storage() = values[i];
    }
}

/// sum(weighting * forward_batch(x)), accumulated in double.
double weighted_output(rl::Mlp& mlp, int batch, const std::vector<float>& x,
                       const std::vector<float>& weighting) {
    const float* y = mlp.forward_batch(batch, x.data());
    double sum = 0.0;
    for (std::size_t i = 0; i < weighting.size(); ++i) {
        sum += static_cast<double>(weighting[i]) * y[i];
    }
    return sum;
}

/// Central difference of weighted_output() in one float of `value`.
double numeric_gradient(rl::Mlp& mlp, int batch, std::vector<float>& x,
                        const std::vector<float>& weighting, float& value) {
    const float eps = 1e-3F;
    const float saved = value;
    value = saved + eps;
    const double up = weighted_output(mlp, batch, x, weighting);
    value = saved - eps;
    const double down = weighted_output(mlp, batch, x, weighting);
    value = saved;
    return (up - down) / (2.0 * eps);
}

/// Checks backward_batch's input and parameter gradients of
/// sum(weighting * y) against central differences.
void check_gradients(rl::Mlp& mlp, int batch, std::vector<float> x) {
    const float tolerance = 1e-2F;
    const std::vector<float> weighting = random_vector(
        static_cast<std::size_t>(batch * mlp.out_features()), 99);
    mlp.forward_batch(batch, x.data());
    mlp.zero_grad();
    const float* gx = mlp.backward_batch(weighting.data(), true, true);
    const std::vector<float> input_grad(gx, gx + x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(input_grad[i],
                    numeric_gradient(mlp, batch, x, weighting, x[i]),
                    tolerance)
            << "input grad mismatch at flat index " << i;
    }
    const auto& params = mlp.parameters();
    const auto& grads = mlp.gradients();
    ASSERT_EQ(params.size(), grads.size());
    for (std::size_t p = 0; p < params.size(); ++p) {
        const std::vector<float> analytic = grads[p]->storage();
        for (std::int64_t i = 0; i < params[p]->numel(); ++i) {
            EXPECT_NEAR(analytic[static_cast<std::size_t>(i)],
                        numeric_gradient(mlp, batch, x, weighting,
                                         (*params[p])[i]),
                        tolerance)
                << "param " << p << " grad mismatch at index " << i;
        }
    }
}

TEST(MlpLayers, LinearKnownValue) {
    util::Rng rng(9);
    rl::Mlp fc({2, 2}, rl::OutputActivation::kNone, rng);
    // Row-major [out, in] weight, then the bias.
    set_parameters(fc, {{1.0F, 2.0F, -1.0F, 0.5F}, {0.1F, -0.1F}});
    const std::vector<float> x = {3.0F, 4.0F, -1.0F, 2.0F};
    const float* y = fc.forward_batch(2, x.data());
    EXPECT_NEAR(y[0], 3 + 8 + 0.1, 1e-5);
    EXPECT_NEAR(y[1], -3 + 2 - 0.1, 1e-5);
    EXPECT_NEAR(y[2], -1 + 4 + 0.1, 1e-5);
    EXPECT_NEAR(y[3], 1 + 1 - 0.1, 1e-5);
}

TEST(MlpLayers, GradientsMatchFiniteDifferences) {
    // ReLU hidden layers under a linear and a sigmoid head, three samples.
    for (const auto head :
         {rl::OutputActivation::kNone, rl::OutputActivation::kSigmoid}) {
        SCOPED_TRACE(head == rl::OutputActivation::kNone ? "linear head"
                                                         : "sigmoid head");
        util::Rng rng(10);
        rl::Mlp mlp({5, 7, 6, 3}, head, rng);
        EXPECT_EQ(mlp.in_features(), 5);
        EXPECT_EQ(mlp.out_features(), 3);
        check_gradients(mlp, 3, random_vector(15, 13));
    }
}

TEST(MlpLayers, SigmoidHeadStaysInOpenUnitInterval) {
    util::Rng rng(11);
    rl::Mlp sig({6, 6}, rl::OutputActivation::kSigmoid, rng);
    std::vector<float> identity(36, 0.0F);
    for (std::size_t i = 0; i < 6; ++i) identity[i * 6 + i] = 1.0F;
    set_parameters(sig, {identity, std::vector<float>(6, 0.0F)});
    const std::vector<float> x = random_vector(24, 18, -3.0F, 3.0F);
    const float* y = sig.forward_batch(4, x.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_GT(y[i], 0.0F);
        EXPECT_LT(y[i], 1.0F);
    }
}

TEST(MlpLayers, ReluRoutesGradientOnlyWhereActive) {
    // Identity first layer, so the hidden pre-activations are the input;
    // the head sums the hidden units.
    util::Rng rng(12);
    rl::Mlp mlp({4, 4, 1}, rl::OutputActivation::kNone, rng);
    std::vector<float> identity(16, 0.0F);
    for (std::size_t i = 0; i < 4; ++i) identity[i * 4 + i] = 1.0F;
    set_parameters(mlp, {identity, std::vector<float>(4, 0.0F),
                         std::vector<float>(4, 1.0F), {0.0F}});
    const std::vector<float> x = {-1.0F, 2.0F, 0.0F, 3.0F};
    EXPECT_EQ(mlp.forward_batch(1, x.data())[0], 5.0F);  // negatives masked

    mlp.zero_grad();
    const float one = 1.0F;
    const float* gx = mlp.backward_batch(&one, true, true);
    const std::vector<float> active = {0.0F, 1.0F, 0.0F, 1.0F};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(gx[i], active[i]) << "input " << i;
        EXPECT_EQ((*mlp.gradients()[1])[static_cast<std::int64_t>(i)],
                  active[i])
            << "first-layer bias " << i;
        for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_EQ((*mlp.gradients()[0])[static_cast<std::int64_t>(i * 4 + c)],
                      active[i] * x[c])
                << "first-layer weight " << i << "," << c;
        }
        // The head's weight gradient is the hidden activation.
        EXPECT_EQ((*mlp.gradients()[2])[static_cast<std::int64_t>(i)],
                  active[i] * x[i])
            << "head weight " << i;
    }
}

}  // namespace
