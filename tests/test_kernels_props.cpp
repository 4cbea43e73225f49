// Property tests for nn::Tensor and the kernels: random shapes, row-major
// stride consistency, and NaN/inf propagation through the dispatched kernels (part of the kernel-harness contract in
// docs/kernels.md).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/kernels/kernels.hpp"
#include "nn/tensor.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;

TEST(TensorProps, OutOfRangeIndexingViolatesContracts) {
    nn::Tensor t({2, 3, 4});
    EXPECT_THROW((void)t[t.numel()], util::ContractViolation);
    EXPECT_THROW((void)t[-1], util::ContractViolation);
}

/// NaN/inf propagation through the dispatched kernels, pinned for every
/// available backend: gemm propagates them, and ReLU's documented semantics
/// map NaN to zero (`t > 0` is false for NaN). The suite name dates from when
/// this file also held the quantizer properties; filters still select it.
TEST(QuantizeProps, KernelsPropagateNanAndInf) {
    std::vector<nn::kernels::Backend> backends = {
        nn::kernels::Backend::kScalar};
    if (nn::kernels::avx2_kernels_compiled() &&
        nn::kernels::cpu_supports_avx2()) {
        backends.push_back(nn::kernels::Backend::kAvx2);
    }
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    for (const auto backend : backends) {
        nn::kernels::force_backend(backend);

        // gemm: a NaN column poisons every row; an inf column with positive
        // weights drives rows to +inf.
        const int out_f = 3;
        const int in_f = 10;
        std::vector<float> w(static_cast<std::size_t>(out_f) * in_f, 1.0F);
        std::vector<float> b(static_cast<std::size_t>(out_f), 0.0F);
        std::vector<float> x(static_cast<std::size_t>(in_f), 1.0F);
        std::vector<float> y(static_cast<std::size_t>(out_f));
        x[4] = nan;
        nn::kernels::gemm(out_f, in_f, w.data(), x.data(), b.data(), y.data());
        for (const float v : y) EXPECT_TRUE(std::isnan(v));
        x[4] = inf;
        nn::kernels::gemm(out_f, in_f, w.data(), x.data(), b.data(), y.data());
        for (const float v : y) EXPECT_TRUE(std::isinf(v) && v > 0.0F);

        // ReLU maps NaN to zero on every backend (documented semantics).
        std::vector<float> rin = {nan, -inf, inf, -1.0F, 2.0F};
        std::vector<float> rout(rin.size());
        nn::kernels::bias_act(static_cast<std::int64_t>(rin.size()),
                              rin.data(), 0.0F, nn::kernels::Act::kRelu,
                              rout.data());
        EXPECT_EQ(rout[0], 0.0F);
        EXPECT_EQ(rout[1], 0.0F);
        EXPECT_TRUE(std::isinf(rout[2]) && rout[2] > 0.0F);
        EXPECT_EQ(rout[3], 0.0F);
        EXPECT_FLOAT_EQ(rout[4], 2.0F);
    }
    nn::kernels::clear_backend_override();
}

}  // namespace
