// Quantization tests: scale search, round-trip error vs bitwidth (property
// sweeps), integer reference kernels vs float kernels, ActQuant behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "nn/linear.hpp"
#include "nn/quantize.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;
using nn::Tensor;

Tensor random_weights(nn::Shape shape, std::uint64_t seed, float scale = 1.0F) {
    util::Rng rng(seed);
    Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<float>(rng.normal(0.0, scale));
    }
    return t;
}

/// Float stride-1 convolution with square zero padding: CHW input,
/// [out, in, k, k] weights.
Tensor float_conv2d(const Tensor& input, const Tensor& weight,
                    const Tensor& bias, int padding) {
    const int out_c = weight.dim(0);
    const int in_c = weight.dim(1);
    const int k = weight.dim(2);
    const int h = input.dim(1);
    const int w = input.dim(2);
    const int oh = h + 2 * padding - k + 1;
    const int ow = w + 2 * padding - k + 1;
    Tensor out({out_c, oh, ow});
    for (int oc = 0; oc < out_c; ++oc) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                float acc = bias[oc];
                for (int ic = 0; ic < in_c; ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy + ky - padding;
                        if (iy < 0 || iy >= h) continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ox + kx - padding;
                            if (ix < 0 || ix >= w) continue;
                            acc += weight.at(oc, ic, ky, kx) *
                                   input.at(ic, iy, ix);
                        }
                    }
                }
                out.at(oc, oy, ox) = acc;
            }
        }
    }
    return out;
}

TEST(ActQuant, PassThroughAt32Bits) {
    nn::ActQuant aq(32);
    nn::Tensor x({4}, {0.1F, 0.5F, 0.9F, 0.0F});
    const nn::Tensor y = aq.forward(x);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(ActQuant, QuantizesToGrid) {
    nn::ActQuant aq(2);  // levels {0, 1/3, 2/3, 1} * max
    nn::Tensor x({4}, {0.1F, 0.5F, 0.9F, 1.0F});
    const nn::Tensor y = aq.forward(x);
    std::set<float> levels(y.storage().begin(), y.storage().end());
    EXPECT_LE(levels.size(), 4u);
}

TEST(ActQuant, StraightThroughGradient) {
    nn::ActQuant aq(4);
    nn::Tensor x({3}, {0.2F, 0.4F, 0.6F});
    (void)aq.forward(x);
    nn::Tensor g({3}, {1.0F, 2.0F, 3.0F});
    const nn::Tensor gx = aq.backward(g);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(gx[i], g[i]);
}

TEST(Quantize, CodesWithinSignedRange) {
    const Tensor w = random_weights({64}, 1);
    for (int bits = 1; bits <= 8; ++bits) {
        const auto q = nn::quantize_weights(w, bits);
        const int lo = -(1 << (bits - 1));
        const int hi = (1 << (bits - 1)) - 1;
        for (const auto c : q.codes) {
            EXPECT_GE(c, lo);
            EXPECT_LE(c, hi);
        }
    }
}

class QuantizeBitSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeBitSweep, WeightErrorShrinksWithBits) {
    const int bits = GetParam();
    const Tensor w = random_weights({256}, 2);
    const auto q_low = nn::quantize_weights(w, bits);
    const auto q_high = nn::quantize_weights(w, bits + 1);
    // One extra bit should not make the representation worse.
    EXPECT_LE(q_high.mse, q_low.mse * 1.05);
}

TEST_P(QuantizeBitSweep, ActivationErrorShrinksWithBits) {
    const int bits = GetParam();
    Tensor a = random_weights({256}, 3);
    for (std::int64_t i = 0; i < a.numel(); ++i) a[i] = std::fabs(a[i]);
    const auto q_low = nn::quantize_activations(a, bits);
    const auto q_high = nn::quantize_activations(a, bits + 1);
    EXPECT_LE(q_high.mse, q_low.mse * 1.05);
    for (const auto c : q_low.codes) EXPECT_GE(c, 0);
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizeBitSweep, ::testing::Range(1, 8));

TEST(Quantize, EightBitRelativeErrorIsSmall) {
    const Tensor w = random_weights({512}, 4);
    const auto q = nn::quantize_weights(w, 8);
    double power = 0.0;
    for (std::int64_t i = 0; i < w.numel(); ++i) {
        power += static_cast<double>(w[i]) * w[i];
    }
    power /= static_cast<double>(w.numel());
    EXPECT_LT(q.mse / power, 1e-3);  // SQNR well above 30 dB
}

TEST(Quantize, SearchedScaleBeatsAbsMaxScale) {
    const Tensor w = random_weights({512}, 5);
    for (const int bits : {2, 3, 4}) {
        const double searched = nn::search_weight_scale(w.storage(), bits);
        const double naive =
            static_cast<double>(w.abs_max()) / ((1 << (bits - 1)) - 1);
        auto mse_at = [&](double scale) {
            const double qmax = (1 << (bits - 1)) - 1;
            const double qmin = -(1 << (bits - 1));
            double mse = 0.0;
            for (std::int64_t i = 0; i < w.numel(); ++i) {
                const double q = std::clamp(
                    std::nearbyint(static_cast<double>(w[i]) / scale), qmin, qmax);
                const double err = static_cast<double>(w[i]) - q * scale;
                mse += err * err;
            }
            return mse;
        };
        EXPECT_LE(mse_at(searched), mse_at(naive) * 1.0001) << "bits " << bits;
    }
}

TEST(Quantize, FakeQuantizeIsIdempotent) {
    Tensor w = random_weights({128}, 6);
    nn::fake_quantize_weights(w, 4);
    Tensor once = w;
    nn::fake_quantize_weights(w, 4);
    for (std::int64_t i = 0; i < w.numel(); ++i) {
        EXPECT_NEAR(w[i], once[i], 1e-6F);
    }
}

TEST(Quantize, OneBitWeightsUseTwoLevels) {
    Tensor w = random_weights({256}, 7);
    nn::fake_quantize_weights(w, 1);
    std::set<float> levels(w.storage().begin(), w.storage().end());
    EXPECT_LE(levels.size(), 2u);
}

TEST(Quantize, ZeroTensorSurvives) {
    Tensor w = Tensor::zeros({16});
    EXPECT_NO_THROW(nn::fake_quantize_weights(w, 4));
    for (std::int64_t i = 0; i < w.numel(); ++i) EXPECT_EQ(w[i], 0.0F);
    Tensor a = Tensor::zeros({16});
    EXPECT_NO_THROW(nn::fake_quantize_activations(a, 4));
}

TEST(Quantize, ActivationsRejectNegativeInput) {
    Tensor a({2}, {0.5F, -0.5F});
    EXPECT_THROW(nn::quantize_activations(a, 4), imx::util::ContractViolation);
}

class IntKernelBitSweep : public ::testing::TestWithParam<int> {};

TEST_P(IntKernelBitSweep, IntConvTracksFloatConv) {
    const int bits = GetParam();
    util::Rng rng(8);
    const Tensor weight = Tensor::kaiming_uniform({4, 3, 3, 3}, 3 * 3 * 3, rng);
    const Tensor bias = Tensor::zeros({4});
    Tensor x = random_weights({3, 6, 6}, 9);
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = std::fabs(x[i]);

    const Tensor y_float = float_conv2d(x, weight, bias, 1);
    const Tensor y_int =
        nn::int_conv2d_reference(x, weight, bias, 1, bits, bits);
    ASSERT_EQ(y_int.shape(), y_float.shape());
    double err = 0.0;
    double mag = 0.0;
    for (std::int64_t i = 0; i < y_float.numel(); ++i) {
        err += std::fabs(static_cast<double>(y_float[i]) - y_int[i]);
        mag += std::fabs(static_cast<double>(y_float[i]));
    }
    // Relative L1 error shrinks with bits; generous per-bit bound.
    const double bound = bits >= 8 ? 0.02 : 1.0 / (1 << (bits - 1));
    EXPECT_LT(err / mag, bound) << "bits " << bits;
}

TEST_P(IntKernelBitSweep, IntLinearTracksFloatLinear) {
    const int bits = GetParam();
    util::Rng rng(10);
    nn::Linear fc(32, 8, rng);
    Tensor x = random_weights({32}, 11);
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = std::fabs(x[i]);

    const Tensor y_float = fc.forward(x);
    const Tensor y_int =
        nn::int_linear_reference(x, fc.weight(), fc.bias(), bits, bits);
    double err = 0.0;
    double mag = 0.0;
    for (std::int64_t i = 0; i < y_float.numel(); ++i) {
        err += std::fabs(static_cast<double>(y_float[i]) - y_int[i]);
        mag += std::fabs(static_cast<double>(y_float[i]));
    }
    const double bound = bits >= 8 ? 0.02 : 1.0 / (1 << (bits - 1));
    EXPECT_LT(err / mag, bound) << "bits " << bits;
}

INSTANTIATE_TEST_SUITE_P(Bits, IntKernelBitSweep, ::testing::Values(4, 6, 8));

}  // namespace
