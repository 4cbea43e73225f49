// Runtime-dispatched NN kernels of the DDPG MLPs (rl::Mlp, nn::Adam): the
// [batch x in] minibatch GEMM forward and backward, a fused
// bias+activation map, and the Adam update. The backend — scalar reference
// or AVX2 — is chosen per dispatch.hpp and every call bumps the counters
// (counters.hpp).
//
// Numeric contract (docs/kernels.md):
//   * scalar is the reference: bitwise identical to the historical
//     per-layer loops in every case, which keeps all sweep goldens pinned
//     under IMX_KERNEL=scalar.
//   * AVX2 gemm_batch re-associates each dot product across 8 lanes;
//     agreement with scalar is bounded in ULPs measured at the magnitude
//     of sum(|terms|) (kGemmUlpBound), enforced by
//     tests/test_kernels_diff.cpp.
//   * gemm_backward_batch and adam_update are bitwise equal across
//     backends (tests/test_kernels_diff.cpp, tests/test_ddpg_batch.cpp).
//   * on each backend, gemm_batch / gemm_backward_batch are bitwise equal
//     to the per-sample loops restated in tests/network_reference.hpp,
//     run once per sample in sample order (tests/test_ddpg_batch.cpp).
#ifndef IMX_NN_KERNELS_KERNELS_HPP
#define IMX_NN_KERNELS_KERNELS_HPP

#include <cstdint>

#include "nn/kernels/counters.hpp"
#include "nn/kernels/dispatch.hpp"

namespace imx::nn::kernels {

/// The documented scalar-vs-avx2 ULP tolerance of gemm_batch (see
/// docs/kernels.md for the derivation). Re-associating a K-term reduction
/// into 8 partial sums perturbs the result by a small multiple of eps at
/// the magnitude of sum(|terms|) — NOT of the result, which cancellation
/// can leave arbitrarily small. The bound is therefore in ULPs *at the
/// reduction magnitude*: |scalar - avx2| must not exceed
/// bound * 2^-23 * max(|scalar|, |avx2|, sum(|terms|)). It carries an
/// order of magnitude of headroom for the shapes this project runs
/// (K <= 16384).
inline constexpr int kGemmUlpBound = 64;

/// Activation applied by bias_act.
enum class Act {
    kIdentity,
    kRelu,
};

/// Minibatch gemm: y[s,r] = bias[r] + sum_c weight[r*in+c] * x[s,c], with
/// x [batch x in] and y [batch x out], both row-major. Every (sample, row)
/// output keeps its own accumulator in the backend's per-sample order, so
/// a sample's result does not depend on the batch around it. `y` is
/// overwritten.
void gemm_batch(int batch, int out_features, int in_features,
                const float* weight, const float* x, const float* bias,
                float* y);

/// The single-sample gemm: gemm_batch over a batch of one.
inline void gemm(int out_features, int in_features, const float* weight,
                 const float* x, const float* bias, float* y) {
    gemm_batch(1, out_features, in_features, weight, x, bias, y);
}

/// Backward of gemm_batch over [batch x in] inputs and [batch x out]
/// output gradients: grad_weight[r,c] += g[s,r]*x[s,c] and grad_bias[r] +=
/// g[s,r], samples innermost and in order, each zero g[s,r] skipped for
/// grad_weight; grad_x[s,c] = sum_r g[s,r]*weight[r,c], rows in order from
/// zero, zero g[s,r] skipped. grad_x holds only the input columns
/// [grad_x_first, in): it is [batch x (in - grad_x_first)], overwritten;
/// each column's sum is independent of the others, so the columns it
/// holds are bitwise those of the full gradient. Any of grad_x,
/// grad_weight and grad_bias (accumulated) may be null to skip that
/// output; `x` is only read for grad_weight.
void gemm_backward_batch(int batch, int out_features, int in_features,
                         const float* weight, const float* x,
                         const float* grad_y, float* grad_x,
                         float* grad_weight, float* grad_bias,
                         int grad_x_first = 0);

/// y[i] = act(x[i] + bias); pass bias = 0 for a plain activation map.
/// In-place (y == x) is allowed.
void bias_act(std::int64_t n, const float* x, float bias, Act act, float* y);

/// The per-step constants of one Adam update: the hyper-parameters, the
/// bias corrections bc1 = 1 - beta1^t and bc2 = 1 - beta2^t, and the
/// gradient multiplier.
struct AdamStep {
    float lr;
    float beta1;
    float beta2;
    float eps;
    float bc1;
    float bc2;
    float scale;
};

/// One Adam update of n lanes in place (nn::Adam::step): per lane, with
/// grad = g*scale, m = beta1*m + (1-beta1)*grad, v = beta2*v +
/// (1-beta2)*grad*grad, p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), each
/// operation one float rounding in that order. Bitwise equal on every
/// backend; AVX2 never hands the FPU a subnormal operand (docs/kernels.md,
/// "Adam without subnormal operands").
void adam_update(const AdamStep& step, std::int64_t n, float* p,
                 const float* g, float* m, float* v);

namespace detail {
// Backend implementations (kernels_scalar.cpp / kernels_avx2.cpp). The
// avx2_* symbols always link; when the TU is built without AVX2 codegen
// they hard-fail via contracts (dispatch never routes there — see
// avx2_kernels_compiled()).
void scalar_gemm_batch(int batch, int out_f, int in_f, const float* w,
                       const float* x, const float* b, float* y);
void scalar_gemm_backward_batch(int batch, int out_f, int in_f,
                                const float* w, const float* x,
                                const float* gy, float* gx, float* gw,
                                float* gb, int gx_first);
void scalar_bias_act(std::int64_t n, const float* x, float bias, Act act,
                     float* y);
void scalar_adam_update(const AdamStep& s, std::int64_t n, float* p,
                        const float* g, float* m, float* v);

void avx2_gemm_batch(int batch, int out_f, int in_f, const float* w,
                     const float* x, const float* b, float* y);
void avx2_gemm_backward_batch(int batch, int out_f, int in_f, const float* w,
                              const float* x, const float* gy, float* gx,
                              float* gw, float* gb, int gx_first);
void avx2_bias_act(std::int64_t n, const float* x, float bias, Act act,
                   float* y);
void avx2_adam_update(const AdamStep& s, std::int64_t n, float* p,
                      const float* g, float* m, float* v);
}  // namespace detail

}  // namespace imx::nn::kernels

#endif  // IMX_NN_KERNELS_KERNELS_HPP
