// Baseline model tests.
#include <gtest/gtest.h>

#include "baselines/baseline_models.hpp"
#include "compress/network_desc.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "util/contracts.hpp"

namespace {

using namespace imx;

TEST(Baselines, PaperCharacterizations) {
    const auto sonic = baselines::make_sonic_net();
    EXPECT_EQ(sonic.exit_macs(0), 2000000);
    EXPECT_NEAR(sonic.accuracy_percent(), 75.4, 1e-9);

    const auto sparse = baselines::make_sparse_net();
    EXPECT_EQ(sparse.exit_macs(0), 11400000);
    EXPECT_NEAR(sparse.accuracy_percent(), 82.7, 1e-9);

    const auto lenet = baselines::make_lenet_cifar();
    EXPECT_EQ(lenet.exit_macs(0), 720000);
    EXPECT_NEAR(lenet.accuracy_percent(), 74.7, 1e-9);
}

TEST(Baselines, SingleExitContracts) {
    auto sonic = baselines::make_sonic_net();
    EXPECT_EQ(sonic.num_exits(), 1);
    EXPECT_THROW((void)sonic.exit_macs(1), util::ContractViolation);
    EXPECT_THROW((void)sonic.evaluate(0, 1), util::ContractViolation);
    EXPECT_EQ(sonic.incremental_macs(-1, 0), sonic.exit_macs(0));
}

TEST(Baselines, EvaluateDeterministicAndCalibrated) {
    auto lenet = baselines::make_lenet_cifar();
    int correct = 0;
    const int n = 20000;
    for (int ev = 0; ev < n; ++ev) {
        const auto a = lenet.evaluate(ev, 0);
        const auto b = lenet.evaluate(ev, 0);
        EXPECT_EQ(a.correct, b.correct);
        EXPECT_EQ(a.confidence, 1.0);
        correct += a.correct ? 1 : 0;
    }
    EXPECT_NEAR(100.0 * correct / n, 74.7, 1.0);
}

TEST(Baselines, SharedSeedGivesSharedDifficulty) {
    // With the same seed, an event that the weaker model solves is also
    // solved by any model with higher accuracy (same latent difficulty).
    auto weak = baselines::FixedBaselineModel("weak", 1.0, 50.0, 1.0, 42);
    auto strong = baselines::FixedBaselineModel("strong", 1.0, 90.0, 1.0, 42);
    for (int ev = 0; ev < 1000; ++ev) {
        if (weak.evaluate(ev, 0).correct) {
            EXPECT_TRUE(strong.evaluate(ev, 0).correct) << "event " << ev;
        }
    }

    // Across models: a baseline and our network's oracle with the same seed
    // and accuracy judge every event alike (one latent difficulty).
    const compress::NetworkDesc desc = core::make_paper_network_desc();
    core::OracleModelConfig config;
    config.seed = 42;
    core::OracleInferenceModel oracle(desc, core::uniform_baseline_policy(),
                                      {50.0, 50.0, 50.0}, config);
    for (int ev = 0; ev < 1000; ++ev) {
        EXPECT_EQ(weak.evaluate(ev, 0).correct, oracle.evaluate(ev, 0).correct)
            << "event " << ev;
    }
}

}  // namespace
