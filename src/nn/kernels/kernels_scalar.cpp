// Scalar reference backend. These loops are transplanted verbatim from the
// pre-kernel Linear/Relu implementations — same iteration order, same
// accumulation order, same zero-skip short-circuits — so the scalar path
// is bitwise identical to the historical layers and every golden pinned
// against them stays valid under IMX_KERNEL=scalar.
#include "nn/kernels/kernels.hpp"

#include <cmath>
#include <cstddef>

namespace imx::nn::kernels::detail {

void scalar_gemm(int out_f, int in_f, const float* w, const float* x,
                 const float* b, float* y) {
    for (int r = 0; r < out_f; ++r) {
        float acc = b[r];
        const float* wrow =
            w + static_cast<std::size_t>(r) * static_cast<std::size_t>(in_f);
        for (int c = 0; c < in_f; ++c) acc += wrow[c] * x[c];
        y[r] = acc;
    }
}

void scalar_gemm_backward(int out_f, int in_f, const float* w, const float* x,
                          const float* gy, float* gx, float* gw, float* gb) {
    for (int c = 0; c < in_f; ++c) gx[c] = 0.0F;
    for (int r = 0; r < out_f; ++r) {
        const float go = gy[r];
        gb[r] += go;
        if (go == 0.0F) continue;
        const std::size_t off =
            static_cast<std::size_t>(r) * static_cast<std::size_t>(in_f);
        const float* wrow = w + off;
        float* gwrow = gw + off;
        for (int c = 0; c < in_f; ++c) {
            gwrow[c] += go * x[c];
            gx[c] += go * wrow[c];
        }
    }
}

// The batched kernels replay the per-sample loops above sample by sample:
// each output element sees the same operations in the same order, only
// the loop nest around them changes.
void scalar_gemm_batch(int batch, int out_f, int in_f, const float* w,
                       const float* x, const float* b, float* y) {
    const std::size_t in = static_cast<std::size_t>(in_f);
    const std::size_t out = static_cast<std::size_t>(out_f);
    for (int s = 0; s < batch; ++s) {
        scalar_gemm(out_f, in_f, w, x + static_cast<std::size_t>(s) * in, b,
                    y + static_cast<std::size_t>(s) * out);
    }
}

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
