#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace imx::nn {

namespace {

double quantization_mse(const std::vector<float>& values, double scale,
                        double qmin, double qmax) {
    if (scale <= 0.0) return std::numeric_limits<double>::infinity();
    double mse = 0.0;
    for (const float v : values) {
        const double q =
            std::clamp(std::nearbyint(static_cast<double>(v) / scale), qmin, qmax);
        const double err = static_cast<double>(v) - q * scale;
        mse += err * err;
    }
    return mse / static_cast<double>(values.size());
}

}  // namespace

double search_weight_scale(const std::vector<float>& values, int bits) {
    IMX_EXPECTS(bits >= 1 && bits <= 16);
    IMX_EXPECTS(!values.empty());
    const double qmax = static_cast<double>((1 << (bits - 1)) - 1);
    const double qmin = -static_cast<double>(1 << (bits - 1));
    double abs_max = 0.0;
    for (const float v : values) abs_max = std::max(abs_max, std::fabs(static_cast<double>(v)));
    if (abs_max == 0.0) return 1.0;

    // For k=1 the only negative code is -1 and the max positive code is 0, so
    // scale anchors on the mean magnitude instead (XNOR-style); the bracket
    // search below still refines it.
    const double effective_qmax = qmax > 0.0 ? qmax : 1.0;
    const double base = abs_max / effective_qmax;

    double best_scale = base;
    double best_mse = quantization_mse(values, base, qmin, qmax);
    // Geometric bracket around abs-max scaling; 0.3x..1.2x covers the optimum
    // for bell-shaped weight distributions.
    for (int i = 0; i <= 36; ++i) {
        const double s = base * (0.30 + 0.025 * i);
        const double mse = quantization_mse(values, s, qmin, qmax);
        if (mse < best_mse) {
            best_mse = mse;
            best_scale = s;
        }
    }
    return best_scale;
}

QuantResult quantize_weights(const Tensor& weights, int bits) {
    IMX_EXPECTS(bits >= 1 && bits <= 16);
    const double qmax = static_cast<double>((1 << (bits - 1)) - 1);
    const double qmin = -static_cast<double>(1 << (bits - 1));
    QuantResult result;
    result.scale = search_weight_scale(weights.storage(), bits);
    result.codes.reserve(static_cast<std::size_t>(weights.numel()));
    double mse = 0.0;
    for (std::int64_t i = 0; i < weights.numel(); ++i) {
        const double q = std::clamp(
            std::nearbyint(static_cast<double>(weights[i]) / result.scale), qmin,
            qmax);
        result.codes.push_back(static_cast<std::int32_t>(q));
        const double err = static_cast<double>(weights[i]) - q * result.scale;
        mse += err * err;
    }
    result.mse = weights.numel() > 0 ? mse / static_cast<double>(weights.numel()) : 0.0;
    return result;
}

void fake_quantize_weights(Tensor& weights, int bits) {
    const QuantResult q = quantize_weights(weights, bits);
    for (std::int64_t i = 0; i < weights.numel(); ++i) {
        weights[i] = static_cast<float>(
            static_cast<double>(q.codes[static_cast<std::size_t>(i)]) * q.scale);
    }
}

QuantResult quantize_activations(const Tensor& activations, int bits) {
    IMX_EXPECTS(bits >= 1 && bits <= 16);
    const double qmax = static_cast<double>((1LL << bits) - 1);
    QuantResult result;
    double max_val = 0.0;
    for (std::int64_t i = 0; i < activations.numel(); ++i) {
        IMX_EXPECTS(activations[i] >= -1e-6F);  // post-ReLU contract
        max_val = std::max(max_val, static_cast<double>(activations[i]));
    }
    result.scale = max_val > 0.0 ? max_val / qmax : 1.0;
    result.codes.reserve(static_cast<std::size_t>(activations.numel()));
    double mse = 0.0;
    for (std::int64_t i = 0; i < activations.numel(); ++i) {
        const double q = std::clamp(
            std::nearbyint(static_cast<double>(activations[i]) / result.scale),
            0.0, qmax);
        result.codes.push_back(static_cast<std::int32_t>(q));
        const double err = static_cast<double>(activations[i]) - q * result.scale;
        mse += err * err;
    }
    result.mse =
        activations.numel() > 0 ? mse / static_cast<double>(activations.numel()) : 0.0;
    return result;
}

void fake_quantize_activations(Tensor& activations, int bits) {
    const QuantResult q = quantize_activations(activations, bits);
    for (std::int64_t i = 0; i < activations.numel(); ++i) {
        activations[i] = static_cast<float>(
            static_cast<double>(q.codes[static_cast<std::size_t>(i)]) * q.scale);
    }
}

Tensor int_conv2d_reference(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, int padding, int weight_bits,
                            int activation_bits) {
    IMX_EXPECTS(input.rank() == 3 && weight.rank() == 4);
    const QuantResult qw = quantize_weights(weight, weight_bits);
    const QuantResult qa = quantize_activations(input, activation_bits);

    const int out_c = weight.dim(0);
    const int in_c = weight.dim(1);
    const int k = weight.dim(2);
    IMX_EXPECTS(input.dim(0) == in_c);
    const int h = input.dim(1);
    const int w = input.dim(2);
    const int oh = h + 2 * padding - k + 1;
    const int ow = w + 2 * padding - k + 1;
    IMX_EXPECTS(oh > 0 && ow > 0);

    Tensor out({out_c, oh, ow});
    const double requant = qw.scale * qa.scale;
    for (int oc = 0; oc < out_c; ++oc) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                std::int64_t acc = 0;  // int32 semantics; int64 guards UB in tests
                for (int ic = 0; ic < in_c; ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy + ky - padding;
                        if (iy < 0 || iy >= h) continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ox + kx - padding;
                            if (ix < 0 || ix >= w) continue;
                            const std::size_t w_idx = static_cast<std::size_t>(
                                ((oc * in_c + ic) * k + ky) * k + kx);
                            const std::size_t a_idx = static_cast<std::size_t>(
                                (ic * h + iy) * w + ix);
                            acc += static_cast<std::int64_t>(qw.codes[w_idx]) *
                                   qa.codes[a_idx];
                        }
                    }
                }
                out.at(oc, oy, ox) = static_cast<float>(
                    static_cast<double>(acc) * requant + static_cast<double>(bias[oc]));
            }
        }
    }
    return out;
}

Tensor int_linear_reference(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, int weight_bits,
                            int activation_bits) {
    IMX_EXPECTS(weight.rank() == 2);
    const int out_f = weight.dim(0);
    const int in_f = weight.dim(1);
    IMX_EXPECTS(input.numel() == in_f);
    const QuantResult qw = quantize_weights(weight, weight_bits);
    const QuantResult qa = quantize_activations(input, activation_bits);

    Tensor out({out_f});
    const double requant = qw.scale * qa.scale;
    for (int r = 0; r < out_f; ++r) {
        std::int64_t acc = 0;
        const std::size_t off = static_cast<std::size_t>(r) * static_cast<std::size_t>(in_f);
        for (int c = 0; c < in_f; ++c) {
            acc += static_cast<std::int64_t>(qw.codes[off + static_cast<std::size_t>(c)]) *
                   qa.codes[static_cast<std::size_t>(c)];
        }
        out[r] = static_cast<float>(static_cast<double>(acc) * requant +
                                    static_cast<double>(bias[r]));
    }
    return out;
}

Tensor ActQuant::forward(const Tensor& input) {
    if (bits_ >= 32) return input;
    Tensor out = input;
    fake_quantize_activations(out, bits_);
    return out;
}

Tensor ActQuant::backward(const Tensor& grad_output) {
    return grad_output;  // straight-through estimator
}

}  // namespace imx::nn
