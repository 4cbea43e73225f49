#include "nn/basic_layers.hpp"

#include <cmath>
#include <limits>

#include "nn/kernels/kernels.hpp"

namespace imx::nn {

Tensor Relu::forward(const Tensor& input) {
    Tensor out = input;
    // The mask is exactly the pre-activation sign; computing it from the
    // input keeps backward independent of the kernel backend.
    mask_.assign(static_cast<std::size_t>(input.numel()), false);
    for (std::int64_t i = 0; i < input.numel(); ++i) {
        if (input[i] > 0.0F) mask_[static_cast<std::size_t>(i)] = true;
    }
    kernels::bias_act(out.numel(), out.data(), 0.0F, kernels::Act::kRelu,
                      out.data());
    return out;
}

Tensor Relu::backward(const Tensor& grad_output) {
    IMX_EXPECTS(static_cast<std::size_t>(grad_output.numel()) == mask_.size());
    Tensor grad = grad_output;
    for (std::int64_t i = 0; i < grad.numel(); ++i) {
        if (!mask_[static_cast<std::size_t>(i)]) grad[i] = 0.0F;
    }
    return grad;
}

Shape MaxPool2d::output_shape(const Shape& input_shape) const {
    IMX_EXPECTS(input_shape.size() == 3);
    const int oh = input_shape[1] / kernel_;
    const int ow = input_shape[2] / kernel_;
    IMX_EXPECTS(oh > 0 && ow > 0);
    return {input_shape[0], oh, ow};
}

Tensor MaxPool2d::forward(const Tensor& input) {
    cached_input_shape_ = input.shape();
    const Shape out_shape = output_shape(input.shape());
    Tensor out(out_shape);
    argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
    const int channels = out_shape[0];
    const int oh = out_shape[1];
    const int ow = out_shape[2];
    const int h = input.dim(1);
    const int w = input.dim(2);
    std::int64_t out_idx = 0;
    for (int c = 0; c < channels; ++c) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                float best = -std::numeric_limits<float>::infinity();
                std::int64_t best_idx = 0;
                for (int ky = 0; ky < kernel_; ++ky) {
                    const int iy = oy * kernel_ + ky;
                    for (int kx = 0; kx < kernel_; ++kx) {
                        const int ix = ox * kernel_ + kx;
                        const std::int64_t flat =
                            (static_cast<std::int64_t>(c) * h + iy) * w + ix;
                        const float v = input[flat];
                        if (v > best) {
                            best = v;
                            best_idx = flat;
                        }
                    }
                }
                out[out_idx] = best;
                argmax_[static_cast<std::size_t>(out_idx)] = best_idx;
                ++out_idx;
            }
        }
    }
    return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
    IMX_EXPECTS(!cached_input_shape_.empty());
    IMX_EXPECTS(static_cast<std::size_t>(grad_output.numel()) == argmax_.size());
    Tensor grad_input(cached_input_shape_);
    for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
        grad_input[argmax_[static_cast<std::size_t>(i)]] += grad_output[i];
    }
    return grad_input;
}

Tensor Tanh::forward(const Tensor& input) {
    Tensor out = input;
    for (std::int64_t i = 0; i < out.numel(); ++i) {
        out[i] = std::tanh(out[i]);
    }
    cached_output_ = out;
    return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
    IMX_EXPECTS(grad_output.numel() == cached_output_.numel());
    Tensor grad = grad_output;
    for (std::int64_t i = 0; i < grad.numel(); ++i) {
        const float y = cached_output_[i];
        grad[i] *= 1.0F - y * y;
    }
    return grad;
}

Tensor Sigmoid::forward(const Tensor& input) {
    Tensor out = input;
    for (std::int64_t i = 0; i < out.numel(); ++i) out[i] = sigmoid(out[i]);
    cached_output_ = out;
    return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
    IMX_EXPECTS(grad_output.numel() == cached_output_.numel());
    Tensor grad = grad_output;
    for (std::int64_t i = 0; i < grad.numel(); ++i) {
        const float y = cached_output_[i];
        grad[i] *= y * (1.0F - y);
    }
    return grad;
}

Tensor Flatten::forward(const Tensor& input) {
    cached_input_shape_ = input.shape();
    return input.reshaped({static_cast<int>(input.numel())});
}

Tensor Flatten::backward(const Tensor& grad_output) {
    IMX_EXPECTS(!cached_input_shape_.empty());
    return grad_output.reshaped(cached_input_shape_);
}

}  // namespace imx::nn
