// Scalar reference backend. The gemm loops are the pre-kernel Linear
// layer's loops run sample by sample — same iteration order, same
// accumulation order, same zero-skip short-circuits — so the scalar path
// is bitwise identical to the historical layers and every golden pinned
// against them stays valid under IMX_KERNEL=scalar.
#include "nn/kernels/kernels.hpp"

#include <cmath>
#include <cstddef>

namespace imx::nn::kernels::detail {

// Each (sample, row) output is one running sum from the bias, columns in
// order.
void scalar_gemm_batch(int batch, int out_f, int in_f, const float* w,
                       const float* x, const float* b, float* y) {
    const std::size_t in = static_cast<std::size_t>(in_f);
    const std::size_t out = static_cast<std::size_t>(out_f);
    for (int s = 0; s < batch; ++s) {
        const float* xs = x + static_cast<std::size_t>(s) * in;
        float* ys = y + static_cast<std::size_t>(s) * out;
        for (int r = 0; r < out_f; ++r) {
            float acc = b[r];
            const float* wrow = w + static_cast<std::size_t>(r) * in;
            for (int c = 0; c < in_f; ++c) acc += wrow[c] * xs[c];
            ys[r] = acc;
        }
    }
}

// grad_w and grad_b take the samples innermost, in order, skipping a zero
// gradient for grad_w; each grad_x element sums the rows in order from
// zero, skipping zero gradients.
void scalar_gemm_backward_batch(int batch, int out_f, int in_f,
                                const float* w, const float* x,
                                const float* gy, float* gx, float* gw,
                                float* gb, int gx_first) {
    const std::size_t in = static_cast<std::size_t>(in_f);
    const std::size_t out = static_cast<std::size_t>(out_f);
    for (int r = 0; r < out_f; ++r) {
        const std::size_t off = static_cast<std::size_t>(r) * in;
        for (int s = 0; s < batch; ++s) {
            const float go = gy[static_cast<std::size_t>(s) * out +
                                static_cast<std::size_t>(r)];
            if (gb != nullptr) gb[r] += go;
            if (gw == nullptr || go == 0.0F) continue;
            const float* xs = x + static_cast<std::size_t>(s) * in;
            float* gwrow = gw + off;
            for (int c = 0; c < in_f; ++c) gwrow[c] += go * xs[c];
        }
    }
    if (gx == nullptr) return;
    const std::size_t width = static_cast<std::size_t>(in_f - gx_first);
    for (int s = 0; s < batch; ++s) {
        const float* gys = gy + static_cast<std::size_t>(s) * out;
        float* gxs = gx + static_cast<std::size_t>(s) * width;
        for (std::size_t c = 0; c < width; ++c) gxs[c] = 0.0F;
        for (int r = 0; r < out_f; ++r) {
            const float go = gys[r];
            if (go == 0.0F) continue;
            const float* wrow = w + static_cast<std::size_t>(r) * in +
                                static_cast<std::size_t>(gx_first);
            for (std::size_t c = 0; c < width; ++c) gxs[c] += go * wrow[c];
        }
    }
}

void scalar_bias_act(std::int64_t n, const float* x, float bias, Act act,
                     float* y) {
    if (act == Act::kRelu) {
        for (std::int64_t i = 0; i < n; ++i) {
            const float t = x[i] + bias;
            y[i] = t > 0.0F ? t : 0.0F;
        }
    } else {
        for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] + bias;
    }
}

// The loop nn::Adam::step has always run. Locals, not the struct's
// members, in the loop: a store through a float* could alias them, which
// would force a reload per element and keep the loop from vectorizing.
void scalar_adam_update(const AdamStep& s, std::int64_t n, float* p,
                        const float* g, float* m, float* v) {
    const float lr = s.lr;
    const float beta1 = s.beta1;
    const float beta2 = s.beta2;
    const float eps = s.eps;
    const float bc1 = s.bc1;
    const float bc2 = s.bc2;
    const float scale = s.scale;
    for (std::int64_t j = 0; j < n; ++j) {
        const float grad_j = g[j] * scale;
        m[j] = beta1 * m[j] + (1.0F - beta1) * grad_j;
        v[j] = beta2 * v[j] + (1.0F - beta2) * grad_j * grad_j;
        const float m_hat = m[j] / bc1;
        const float v_hat = v[j] / bc2;
        p[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
}

}  // namespace imx::nn::kernels::detail
