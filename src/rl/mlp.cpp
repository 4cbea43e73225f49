#include "rl/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/kernels/kernels.hpp"
#include "util/contracts.hpp"

namespace imx::rl {

namespace {

/// The logistic function, split by sign so neither branch overflows exp().
float sigmoid(float x) {
    return x >= 0.0F ? 1.0F / (1.0F + std::exp(-x))
                     : std::exp(x) / (1.0F + std::exp(x));
}

}  // namespace

Mlp::Mlp(const std::vector<int>& dims, OutputActivation out_act,
         util::Rng& rng)
    : dims_(dims), out_act_(out_act) {
    IMX_EXPECTS(dims.size() >= 2);
    for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
        const int in = dims[i];
        const int out = dims[i + 1];
        IMX_EXPECTS(in > 0 && out > 0);
        layers_.push_back({nn::Tensor::kaiming_uniform({out, in}, in, rng),
                           nn::Tensor::zeros({out}),
                           nn::Tensor::zeros({out, in}),
                           nn::Tensor::zeros({out})});
    }
    for (Layer& layer : layers_) {
        params_.push_back(&layer.weight);
        params_.push_back(&layer.bias);
        grads_.push_back(&layer.grad_weight);
        grads_.push_back(&layer.grad_bias);
    }
    acts_.resize(dims.size());
}

const float* Mlp::forward_batch(int batch, const float* input) {
    IMX_EXPECTS(batch > 0);
    batch_ = batch;
    const std::size_t rows = static_cast<std::size_t>(batch);
    for (std::size_t i = 0; i < acts_.size(); ++i) {
        acts_[i].resize(rows * static_cast<std::size_t>(dims_[i]));
    }
    std::copy(input, input + acts_[0].size(), acts_[0].begin());
    const std::size_t last = layers_.size();
    for (std::size_t i = 0; i < last; ++i) {
        const Layer& fc = layers_[i];
        float* y = acts_[i + 1].data();
        nn::kernels::gemm_batch(batch, dims_[i + 1], dims_[i],
                                fc.weight.data(), acts_[i].data(),
                                fc.bias.data(), y);
        if (i + 1 < last) {
            const auto n = static_cast<std::int64_t>(acts_[i + 1].size());
            nn::kernels::bias_act(n, y, 0.0F, nn::kernels::Act::kRelu, y);
        }
    }
    std::vector<float>& out = acts_.back();
    if (out_act_ == OutputActivation::kSigmoid) {
        for (float& v : out) v = sigmoid(v);
    }
    return out.data();
}

const float* Mlp::backward_batch(const float* grad_output, bool param_grads,
                                 bool input_grad, int input_grad_first) {
    IMX_EXPECTS(batch_ > 0);
    IMX_EXPECTS(input_grad_first >= 0 && input_grad_first < in_features());
    const std::size_t rows = static_cast<std::size_t>(batch_);
    const std::size_t widest = static_cast<std::size_t>(
        *std::max_element(dims_.begin(), dims_.end()));
    grad_cur_.resize(rows * widest);
    grad_next_.resize(rows * widest);

    // Gradient w.r.t. the last layer's output, through the output
    // activation: the sigmoid's derivative is y * (1 - y).
    const std::vector<float>& out = acts_.back();
    for (std::size_t k = 0; k < out.size(); ++k) {
        const float y = out[k];
        float g = grad_output[k];
        if (out_act_ == OutputActivation::kSigmoid) g *= y * (1.0F - y);
        grad_cur_[k] = g;
    }

    for (std::size_t i = layers_.size(); i-- > 0;) {
        const bool want_gx = i > 0 || input_grad;
        if (!want_gx && !param_grads) break;
        Layer& fc = layers_[i];
        float* gx = want_gx ? grad_next_.data() : nullptr;
        nn::kernels::gemm_backward_batch(
            batch_, dims_[i + 1], dims_[i], fc.weight.data(), acts_[i].data(),
            grad_cur_.data(), gx,
            param_grads ? fc.grad_weight.data() : nullptr,
            param_grads ? fc.grad_bias.data() : nullptr,
            i == 0 ? input_grad_first : 0);
        if (!want_gx) break;
        if (i > 0) {
            // Hidden ReLU: pass the gradient where the activation is > 0.
            // A select rather than a branch: the sign pattern is random.
            const std::vector<float>& act = acts_[i];
            for (std::size_t k = 0; k < act.size(); ++k) {
                gx[k] = act[k] > 0.0F ? gx[k] : 0.0F;
            }
        }
        std::swap(grad_cur_, grad_next_);
    }
    return input_grad ? grad_cur_.data() : nullptr;
}

void Mlp::zero_grad() {
    for (nn::Tensor* g : grads_) g->fill(0.0F);
}

}  // namespace imx::rl
