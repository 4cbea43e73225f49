#include "nn/basic_layers.hpp"

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

}  // namespace imx::nn
