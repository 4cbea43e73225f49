// The per-sample network path rl::Mlp ran before it became minibatch-only:
// one gemm per sample and layer, in each kernel backend's order, and a
// forward/backward pass over an Mlp's weights one sample at a time. Kept
// as a test-only reference: the minibatch kernels and the batched DDPG
// update are held bitwise to it (tests/test_ddpg_batch.cpp).
//
// Forward has one order per backend. The scalar backend keeps a running
// sum from the bias, columns in order. The AVX2 backend keeps 8 lane sums
// over the full 8-column blocks, reduces them as
// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)), adds the tail columns
// in order, and adds that sum to the bias last. Backward has one order:
// every backend computes it the same way (KernelsDiff.*Backward*).
//
// Every float operation here is a separate multiply and add, as the
// kernels do it; a contracted multiply-add would round differently.
#ifndef IMX_TESTS_NETWORK_REFERENCE_HPP
#define IMX_TESTS_NETWORK_REFERENCE_HPP

#if defined(__FMA__)
#error "network_reference.hpp: FMA contraction would fuse the reference's multiply-adds and change its roundings; build the tests for baseline x86-64"
#endif

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "nn/kernels/dispatch.hpp"
#include "nn/tensor.hpp"
#include "rl/mlp.hpp"
#include "util/contracts.hpp"

namespace imx::test {

/// y[r] = b[r] + sum_c w[r*in_f + c] * x[c] in the scalar backend's order.
inline void reference_gemm_scalar(int out_f, int in_f, const float* w,
                                  const float* x, const float* b, float* y) {
    for (int r = 0; r < out_f; ++r) {
        const float* wrow = w + static_cast<std::size_t>(r) * in_f;
        float acc = b[r];
        for (int c = 0; c < in_f; ++c) acc += wrow[c] * x[c];
        y[r] = acc;
    }
}

/// The same product in the AVX2 backend's order.
inline void reference_gemm_avx2(int out_f, int in_f, const float* w,
                                const float* x, const float* b, float* y) {
    for (int r = 0; r < out_f; ++r) {
        const float* wrow = w + static_cast<std::size_t>(r) * in_f;
        float l[8] = {};
        int c = 0;
        for (; c + 8 <= in_f; c += 8) {
            for (int k = 0; k < 8; ++k) l[k] += wrow[c + k] * x[c + k];
        }
        float sum = ((l[0] + l[4]) + (l[2] + l[6])) +
                    ((l[1] + l[5]) + (l[3] + l[7]));
        for (; c < in_f; ++c) sum += wrow[c] * x[c];
        y[r] = b[r] + sum;
    }
}

/// One sample's gemm in `backend`'s order.
inline void reference_gemm(nn::kernels::Backend backend, int out_f, int in_f,
                           const float* w, const float* x, const float* b,
                           float* y) {
    if (backend == nn::kernels::Backend::kAvx2) {
        reference_gemm_avx2(out_f, in_f, w, x, b, y);
    } else {
        reference_gemm_scalar(out_f, in_f, w, x, b, y);
    }
}

/// One sample's gemm backward: gx = sum_r gy[r] * w[r, :] from zero
/// (overwritten); gw[r, :] += gy[r] * x and gb[r] += gy[r] (accumulated).
/// A zero gy[r] still adds to gb and is otherwise skipped.
inline void reference_gemm_backward(int out_f, int in_f, const float* w,
                                    const float* x, const float* gy,
                                    float* gx, float* gw, float* gb) {
    for (int c = 0; c < in_f; ++c) gx[c] = 0.0F;
    for (int r = 0; r < out_f; ++r) {
        const float go = gy[r];
        gb[r] += go;
        if (go == 0.0F) continue;
        const std::size_t off = static_cast<std::size_t>(r) * in_f;
        for (int c = 0; c < in_f; ++c) {
            gw[off + c] += go * x[c];
            gx[c] += go * w[off + c];
        }
    }
}

/// The per-sample pass over an rl::Mlp's parameters() and gradients():
/// ReLU after every hidden layer, `head` after the last. forward() keeps
/// each layer's input for backward(), which accumulates the Mlp's
/// gradients and returns the input gradient.
class ReferenceMlp {
public:
    ReferenceMlp(rl::Mlp& mlp, rl::OutputActivation head,
                 nn::kernels::Backend backend)
        : params_(mlp.parameters()),
          grads_(mlp.gradients()),
          head_(head),
          backend_(backend) {}

    std::vector<float> forward(std::vector<float> x) {
        inputs_.clear();
        const std::size_t layers = params_.size() / 2;
        for (std::size_t i = 0; i < layers; ++i) {
            const nn::Tensor& w = *params_[2 * i];
            const int out = w.shape()[0];
            const int in = w.shape()[1];
            IMX_EXPECTS(static_cast<int>(x.size()) == in);
            std::vector<float> y(static_cast<std::size_t>(out));
            reference_gemm(backend_, out, in, w.data(), x.data(),
                           params_[2 * i + 1]->data(), y.data());
            if (i + 1 < layers) {
                for (float& v : y) v = v > 0.0F ? v : 0.0F;
            }
            inputs_.push_back(std::move(x));
            x = std::move(y);
        }
        if (head_ == rl::OutputActivation::kSigmoid) {
            for (float& v : x) {
                v = v >= 0.0F ? 1.0F / (1.0F + std::exp(-v))
                              : std::exp(v) / (1.0F + std::exp(v));
            }
        }
        output_ = x;
        return x;
    }

    std::vector<float> backward(std::vector<float> grad) {
        IMX_EXPECTS(grad.size() == output_.size());
        if (head_ == rl::OutputActivation::kSigmoid) {
            for (std::size_t k = 0; k < grad.size(); ++k) {
                grad[k] *= output_[k] * (1.0F - output_[k]);
            }
        }
        for (std::size_t i = inputs_.size(); i-- > 0;) {
            const nn::Tensor& w = *params_[2 * i];
            const std::vector<float>& x = inputs_[i];
            std::vector<float> gx(x.size());
            reference_gemm_backward(w.shape()[0], w.shape()[1], w.data(),
                                    x.data(), grad.data(), gx.data(),
                                    grads_[2 * i]->data(),
                                    grads_[2 * i + 1]->data());
            if (i > 0) {
                // x is the previous layer's ReLU output: > 0 exactly where
                // its input was.
                for (std::size_t k = 0; k < gx.size(); ++k) {
                    if (!(x[k] > 0.0F)) gx[k] = 0.0F;
                }
            }
            grad = std::move(gx);
        }
        return grad;
    }

private:
    std::vector<nn::Tensor*> params_;
    std::vector<nn::Tensor*> grads_;
    rl::OutputActivation head_;
    nn::kernels::Backend backend_;
    std::vector<std::vector<float>> inputs_;
    std::vector<float> output_;
};

}  // namespace imx::test

#endif  // IMX_TESTS_NETWORK_REFERENCE_HPP
