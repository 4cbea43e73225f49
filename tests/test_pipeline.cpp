// Tests for the one-call pipeline facade and the canonical experiment setup.
#include <gtest/gtest.h>

#include "core/multi_exit_spec.hpp"
#include "core/pipeline.hpp"

namespace {

using namespace imx;

TEST(ExperimentSetup, CarriesThePaperBudget) {
    const auto setup = core::make_paper_setup();
    EXPECT_NEAR(setup.trace.total_energy(), 281.5, 0.1);
    EXPECT_EQ(setup.events.size(), 500u);
    EXPECT_NEAR(setup.trace.duration(), 13000.0, 5.0);
    // Deployed policy fits the MCU flash target.
    EXPECT_LE(compress::model_bytes(setup.network, setup.deployed_policy),
              core::kSizeTargetBytes);
    // Oracle accuracy is monotone across exits for the reference policy.
    EXPECT_LT(setup.exit_accuracy[0], setup.exit_accuracy[1]);
    EXPECT_LT(setup.exit_accuracy[1], setup.exit_accuracy[2]);
}

TEST(ExperimentSetup, SimConfigsShareEnvironmentDifferInMode) {
    const auto setup = core::make_paper_setup();
    EXPECT_FALSE(setup.multi_exit_sim.recovery.enabled);
    EXPECT_TRUE(setup.checkpointed_sim.recovery.enabled);
    EXPECT_EQ(setup.multi_exit_sim.storage.capacity_mj,
              setup.checkpointed_sim.storage.capacity_mj);
    EXPECT_EQ(setup.multi_exit_sim.mcu.energy_per_mmac_mj,
              setup.checkpointed_sim.mcu.energy_per_mmac_mj);
}

TEST(Pipeline, DefaultRunProducesConsistentReport) {
    core::PipelineConfig config;
    config.learning_episodes = 6;  // keep the test quick
    const auto report = core::run_pipeline(config);

    ASSERT_EQ(report.exit_accuracy.size(), 3u);
    ASSERT_EQ(report.exit_macs.size(), 3u);
    EXPECT_TRUE(report.fits_flash);
    EXPECT_EQ(report.learning_curve.size(), 6u);
    EXPECT_EQ(report.static_lut.total_events(), 500);
    EXPECT_EQ(report.learned.total_events(), 500);
    EXPECT_GT(report.static_lut.iepmj(), 0.3);
    EXPECT_GT(report.learned.iepmj(), 0.3);
    // Costs are increasing across exits.
    EXPECT_LT(report.exit_macs[0], report.exit_macs[1]);
    EXPECT_LT(report.exit_macs[1], report.exit_macs[2]);
}

TEST(Pipeline, DeterministicAcrossRuns) {
    core::PipelineConfig config;
    config.learning_episodes = 4;
    const auto a = core::run_pipeline(config);
    const auto b = core::run_pipeline(config);
    EXPECT_EQ(a.learned.correct_count(), b.learned.correct_count());
    EXPECT_EQ(a.static_lut.correct_count(), b.static_lut.correct_count());
    EXPECT_EQ(a.learning_curve, b.learning_curve);
}

TEST(Pipeline, SearchModeDeploysAFeasiblePolicy) {
    core::PipelineConfig config;
    config.run_search = true;
    config.search.episodes = 40;
    config.search.warmup_episodes = 12;
    config.learning_episodes = 4;
    const auto report = core::run_pipeline(config);
    EXPECT_TRUE(report.fits_flash);
    const auto desc = core::make_paper_network_desc();
    EXPECT_TRUE(compress::satisfies(desc, report.deployed_policy,
                                    core::paper_constraints()));
}

}  // namespace
