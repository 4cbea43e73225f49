#include "nn/linear.hpp"

#include "nn/kernels/kernels.hpp"

namespace imx::nn {

Linear::Linear(int in_features, int out_features, util::Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
    IMX_EXPECTS(in_features > 0 && out_features > 0);
    weight_ = Tensor::kaiming_uniform({out_features, in_features}, in_features, rng);
    bias_ = Tensor::zeros({out_features});
    grad_weight_ = Tensor::zeros(weight_.shape());
    grad_bias_ = Tensor::zeros(bias_.shape());
}

Tensor Linear::forward(const Tensor& input) {
    IMX_EXPECTS(input.numel() == in_features_);
    cached_input_ = input;
    Tensor out({out_features_});
    kernels::gemm(out_features_, in_features_, weight_.data(), input.data(),
                  bias_.data(), out.data());
    return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
    IMX_EXPECTS(!cached_input_.empty());
    IMX_EXPECTS(grad_output.numel() == out_features_);
    Tensor grad_input(cached_input_.shape());
    kernels::gemm_backward(out_features_, in_features_, weight_.data(),
                           cached_input_.data(), grad_output.data(),
                           grad_input.data(), grad_weight_.data(),
                           grad_bias_.data());
    return grad_input;
}

}  // namespace imx::nn
