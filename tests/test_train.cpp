// Tests for the Adam optimizer of the DDPG updates.
#include <gtest/gtest.h>

#include "nn/train.hpp"
#include "util/contracts.hpp"

namespace {

using namespace imx;
using nn::Tensor;

TEST(AdamOptimizer, DescendsQuadratic) {
    Tensor w({2}, {5.0F, -4.0F});
    Tensor g({2});
    nn::Adam opt(0.05F);
    for (int i = 0; i < 400; ++i) {
        g[0] = 2.0F * (w[0] - 1.0F);
        g[1] = 2.0F * (w[1] + 2.0F);
        opt.step({&w}, {&g}, 1.0F);
    }
    EXPECT_NEAR(w[0], 1.0F, 0.02F);
    EXPECT_NEAR(w[1], -2.0F, 0.02F);
}

TEST(AdamOptimizer, RejectsHyperParametersOutsideTheirRanges) {
    EXPECT_THROW(nn::Adam(0.0F), util::ContractViolation);
    EXPECT_THROW(nn::Adam(1e-3F, 1.0F), util::ContractViolation);
    EXPECT_THROW(nn::Adam(1e-3F, -0.1F), util::ContractViolation);
    EXPECT_THROW(nn::Adam(1e-3F, 0.9F, 1.0F), util::ContractViolation);
    EXPECT_THROW(nn::Adam(1e-3F, 0.9F, 0.999F, 0.0F),
                 util::ContractViolation);
    EXPECT_NO_THROW(nn::Adam(1e-3F, 0.0F, 0.0F, 1e-8F));
}

}  // namespace
