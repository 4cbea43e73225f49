#include "nn/train.hpp"

#include <cmath>

#include "nn/kernels/kernels.hpp"
#include "util/contracts.hpp"

namespace imx::nn {

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
    IMX_EXPECTS(lr > 0.0F);
    IMX_EXPECTS(beta1 >= 0.0F && beta1 < 1.0F);
    IMX_EXPECTS(beta2 >= 0.0F && beta2 < 1.0F);
    IMX_EXPECTS(eps > 0.0F);
}

void Adam::step(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads, float scale) {
    IMX_EXPECTS(params.size() == grads.size());
    if (m_.size() != params.size()) {
        m_.clear();
        v_.clear();
        for (const Tensor* p : params) {
            m_.emplace_back(Tensor::zeros(p->shape()));
            v_.emplace_back(Tensor::zeros(p->shape()));
        }
        t_ = 0;
    }
    ++t_;
    const float bc1 = 1.0F - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 = 1.0F - std::pow(beta2_, static_cast<float>(t_));
    const kernels::AdamStep step{lr_, beta1_, beta2_, eps_, bc1, bc2, scale};
    for (std::size_t i = 0; i < params.size(); ++i) {
        const std::int64_t n = params[i]->numel();
        IMX_EXPECTS(grads[i]->numel() == n && m_[i].numel() == n);
        kernels::adam_update(step, n, params[i]->data(), grads[i]->data(),
                             m_[i].data(), v_[i].data());
    }
}

}  // namespace imx::nn
