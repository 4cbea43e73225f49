// Training substrate tests: losses, optimizers, and joint multi-exit
// training convergence on small synthetic problems.
#include <gtest/gtest.h>

#include <cmath>

#include "core/multi_exit_spec.hpp"
#include "data/synth_cifar.hpp"
#include "nn/train.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;
using nn::Tensor;

TEST(CrossEntropy, MatchesManualComputation) {
    Tensor logits({3}, {1.0F, 2.0F, 0.5F});
    Tensor grad;
    const double loss = nn::cross_entropy(logits, 1, grad);
    // softmax(1,2,0.5)
    const double z = std::exp(1.0) + std::exp(2.0) + std::exp(0.5);
    EXPECT_NEAR(loss, -std::log(std::exp(2.0) / z), 1e-6);
    EXPECT_NEAR(grad[0], std::exp(1.0) / z, 1e-6);
    EXPECT_NEAR(grad[1], std::exp(2.0) / z - 1.0, 1e-6);
    EXPECT_NEAR(grad[2], std::exp(0.5) / z, 1e-6);
}

TEST(CrossEntropy, GradientSumsToZero) {
    Tensor logits({5}, {0.3F, -1.0F, 2.0F, 0.0F, 1.1F});
    Tensor grad;
    (void)nn::cross_entropy(logits, 3, grad);
    double sum = 0.0;
    for (std::int64_t i = 0; i < grad.numel(); ++i) sum += grad[i];
    EXPECT_NEAR(sum, 0.0, 1e-6);
}

TEST(SoftmaxProbs, NormalizedAndOrdered) {
    Tensor logits({3}, {0.0F, 1.0F, -1.0F});
    const auto p = nn::softmax_probs(logits);
    EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-9);
    EXPECT_GT(p[1], p[0]);
    EXPECT_GT(p[0], p[2]);
}

TEST(SgdOptimizer, DescendsQuadratic) {
    // minimize (w - 3)^2 via gradient 2(w - 3).
    Tensor w({1}, {0.0F});
    Tensor g({1});
    nn::Sgd opt(0.1F, 0.0F, 0.0F);
    for (int i = 0; i < 100; ++i) {
        g[0] = 2.0F * (w[0] - 3.0F);
        opt.step({&w}, {&g}, 1.0F);
    }
    EXPECT_NEAR(w[0], 3.0F, 1e-3F);
}

TEST(SgdOptimizer, MomentumAcceleratesConvergence) {
    auto run = [](float momentum) {
        Tensor w({1}, {0.0F});
        Tensor g({1});
        nn::Sgd opt(0.01F, momentum, 0.0F);
        for (int i = 0; i < 60; ++i) {
            g[0] = 2.0F * (w[0] - 3.0F);
            opt.step({&w}, {&g}, 1.0F);
        }
        return std::fabs(w[0] - 3.0F);
    };
    EXPECT_LT(run(0.9F), run(0.0F));
}

TEST(SgdOptimizer, WeightDecayShrinksWeights) {
    Tensor w({1}, {1.0F});
    Tensor g = Tensor::zeros({1});
    nn::Sgd opt(0.1F, 0.0F, 0.1F);
    for (int i = 0; i < 10; ++i) opt.step({&w}, {&g}, 1.0F);
    EXPECT_LT(w[0], 1.0F);
    EXPECT_GT(w[0], 0.0F);
}

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

TEST(TrainMultiExit, LossDecreasesAndAccuracyBeatsChance) {
    util::Rng rng(42);
    nn::ExitGraph graph = core::build_tiny_graph(rng);

    data::SynthCifarConfig dcfg;
    dcfg.num_samples = 240;
    dcfg.height = 16;
    dcfg.width = 16;
    dcfg.noise_level = 0.10;
    dcfg.seed = 7;
    const data::Dataset ds = data::make_synth_cifar(dcfg);

    nn::TrainConfig tcfg;
    tcfg.epochs = 3;
    tcfg.batch_size = 16;
    tcfg.lr = 0.05F;
    const auto history =
        nn::train_multi_exit(graph, ds.images, ds.labels, tcfg);
    ASSERT_EQ(history.size(), 3u);
    EXPECT_LT(history.back().mean_loss, history.front().mean_loss);

    const auto acc = nn::evaluate_exits(graph, ds.images, ds.labels);
    ASSERT_EQ(acc.size(), 3u);
    for (const double a : acc) EXPECT_GT(a, 0.15);  // > 10-class chance
}

TEST(TrainMultiExit, ExitLossWeightsMustMatchExitCount) {
    util::Rng rng(1);
    nn::ExitGraph graph = core::build_tiny_graph(rng);
    data::SynthCifarConfig dcfg;
    dcfg.num_samples = 8;
    dcfg.height = 16;
    dcfg.width = 16;
    const data::Dataset ds = data::make_synth_cifar(dcfg);
    nn::TrainConfig tcfg;
    tcfg.epochs = 1;
    tcfg.exit_loss_weights = {1.0, 1.0};  // wrong: graph has 3 exits
    EXPECT_THROW(nn::train_multi_exit(graph, ds.images, ds.labels, tcfg),
                 util::ContractViolation);
}

TEST(EvaluateExits, PerfectOnMemorizedSingleSample) {
    util::Rng rng(3);
    nn::ExitGraph graph = core::build_tiny_graph(rng);
    data::SynthCifarConfig dcfg;
    dcfg.num_samples = 4;
    dcfg.height = 16;
    dcfg.width = 16;
    dcfg.noise_level = 0.0;
    const data::Dataset ds = data::make_synth_cifar(dcfg);
    nn::TrainConfig tcfg;
    tcfg.epochs = 100;
    tcfg.batch_size = 2;
    tcfg.lr = 0.02F;  // higher rates kill ReLUs on a 4-sample problem
    tcfg.weight_decay = 0.0F;
    (void)nn::train_multi_exit(graph, ds.images, ds.labels, tcfg);
    const auto acc = nn::evaluate_exits(graph, ds.images, ds.labels);
    // Four noiseless samples should be memorized by the final exit.
    EXPECT_GE(acc[2], 0.75);
}

}  // namespace
