// Dispatch layer: validate arguments, bump counters, route to the active
// backend. Kept separate from the backend TUs so the counter/contract cost
// is paid once per call regardless of backend.
#include "nn/kernels/kernels.hpp"

#include "util/contracts.hpp"

namespace imx::nn::kernels {

void gemm_batch(int batch, int out_features, int in_features,
                const float* weight, const float* x, const float* bias,
                float* y) {
    IMX_EXPECTS(batch > 0 && out_features > 0 && in_features > 0);
    detail::count_gemm(static_cast<std::uint64_t>(batch) *
                       static_cast<std::uint64_t>(out_features) *
                       static_cast<std::uint64_t>(in_features));
    if (active_backend() == Backend::kAvx2) {
        detail::avx2_gemm_batch(batch, out_features, in_features, weight, x,
                                bias, y);
    } else {
        detail::scalar_gemm_batch(batch, out_features, in_features, weight, x,
                                  bias, y);
    }
}

void gemm_backward_batch(int batch, int out_features, int in_features,
                         const float* weight, const float* x,
                         const float* grad_y, float* grad_x,
                         float* grad_weight, float* grad_bias,
                         int grad_x_first) {
    IMX_EXPECTS(batch > 0 && out_features > 0 && in_features > 0);
    IMX_EXPECTS(grad_x_first >= 0 && grad_x_first < in_features);
    // The MACs the call performs: batch*out per grad_x column computed and
    // batch*out*in for grad_weight (the zero-gradient skips are not
    // subtracted).
    const std::uint64_t products =
        static_cast<std::uint64_t>(batch) *
        static_cast<std::uint64_t>(out_features);
    const std::uint64_t columns =
        (grad_x != nullptr
             ? static_cast<std::uint64_t>(in_features - grad_x_first)
             : 0U) +
        (grad_weight != nullptr ? static_cast<std::uint64_t>(in_features)
                                : 0U);
    detail::count_gemm(products * columns);
    if (active_backend() == Backend::kAvx2) {
        detail::avx2_gemm_backward_batch(batch, out_features, in_features,
                                         weight, x, grad_y, grad_x,
                                         grad_weight, grad_bias,
                                         grad_x_first);
    } else {
        detail::scalar_gemm_backward_batch(batch, out_features, in_features,
                                           weight, x, grad_y, grad_x,
                                           grad_weight, grad_bias,
                                           grad_x_first);
    }
}

void bias_act(std::int64_t n, const float* x, float bias, Act act, float* y) {
    IMX_EXPECTS(n >= 0);
    detail::count_bias_act(static_cast<std::uint64_t>(n));
    if (active_backend() == Backend::kAvx2) {
        detail::avx2_bias_act(n, x, bias, act, y);
    } else {
        detail::scalar_bias_act(n, x, bias, act, y);
    }
}

void adam_update(const AdamStep& step, std::int64_t n, float* p,
                 const float* g, float* m, float* v) {
    IMX_EXPECTS(n >= 0);
    detail::count_adam(static_cast<std::uint64_t>(n));
    if (active_backend() == Backend::kAvx2) {
        detail::avx2_adam_update(step, n, p, g, m, v);
    } else {
        detail::scalar_adam_update(step, n, p, g, m, v);
    }
}

}  // namespace imx::nn::kernels
