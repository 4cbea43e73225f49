// Tests for the sim/policies module: the slack-aware greedy LUT (monotone
// shallowing as slack shrinks), the slack-binned Q-state layout (StateGrid
// round-trips, historical-index compatibility), the name registry, the
// exp::policy_patch axis, and the sweep-level pin that the extended
// ablation-storage-deadline grid reproduces the pre-policy-axis cells
// bitwise at replica 0 for the pre-existing greedy/qlearning slices.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment_setup.hpp"
#include "core/oracle_model.hpp"
#include "exp/paper_scenarios.hpp"
#include "exp/runner.hpp"
#include "rl/qtable.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/policies/registry.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"

namespace {

using namespace imx;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Three-exit model with simple fixed costs for policy unit tests.
class FakeModel final : public sim::InferenceModel {
public:
    [[nodiscard]] int num_exits() const override { return 3; }
    [[nodiscard]] std::int64_t exit_macs(int exit) const override {
        return 100000 * (1 + exit);  // 0.15 / 0.3 / 0.45 mJ at 1.5 mJ/MMAC
    }
    [[nodiscard]] std::int64_t incremental_macs(int from_exit,
                                                int to_exit) const override {
        return exit_macs(to_exit) - (from_exit < 0 ? 0 : exit_macs(from_exit));
    }
    [[nodiscard]] sim::ExitOutcome evaluate(int, int) override {
        return {true, 1.0};
    }
    [[nodiscard]] double model_bytes() const override { return 1024.0; }
};

sim::EnergyState ample_energy(double slack_s) {
    sim::EnergyState s;
    s.level_mj = 10.0;  // affords every exit of FakeModel
    s.capacity_mj = 12.0;
    s.charge_rate_mw = 0.02;
    s.deadline_slack_s = slack_s;
    return s;
}

core::SetupConfig mini_config() {
    core::SetupConfig config;
    config.event_count = 60;
    config.duration_s = 1500.0;
    config.total_harvest_mj = 35.0;
    return config;
}

// --- SlackGreedyPolicy ----------------------------------------------------

TEST(SlackGreedy, MonotonicallyShallowsAsSlackShrinks) {
    FakeModel model;
    sim::SlackGreedyPolicy policy;  // default schedule {0, 45, 120}
    int previous = model.num_exits() - 1;
    for (const double slack : {kInf, 500.0, 120.0, 119.0, 45.0, 44.0, 0.0}) {
        const int chosen = policy.select_exit(ample_energy(slack), model);
        ASSERT_GE(chosen, 0);
        EXPECT_LE(chosen, previous) << "slack " << slack;
        previous = chosen;
    }
    // The schedule thresholds are sharp.
    EXPECT_EQ(policy.select_exit(ample_energy(kInf), model), 2);
    EXPECT_EQ(policy.select_exit(ample_energy(120.0), model), 2);
    EXPECT_EQ(policy.select_exit(ample_energy(119.9), model), 1);
    EXPECT_EQ(policy.select_exit(ample_energy(45.0), model), 1);
    EXPECT_EQ(policy.select_exit(ample_energy(44.9), model), 0);
    EXPECT_EQ(policy.select_exit(ample_energy(0.0), model), 0);
}

TEST(SlackGreedy, MatchesGreedyWithoutDeadline) {
    FakeModel model;
    sim::GreedyAffordablePolicy greedy;
    sim::SlackGreedyPolicy slack_greedy;
    for (const double level : {0.0, 0.2, 0.35, 0.5, 5.0}) {
        sim::EnergyState s = ample_energy(kInf);
        s.level_mj = level;
        EXPECT_EQ(slack_greedy.select_exit(s, model),
                  greedy.select_exit(s, model))
            << "level " << level;
    }
}

TEST(SlackGreedy, AffordabilityStillBinds) {
    FakeModel model;
    sim::SlackGreedyPolicy policy;
    // Ample slack but only exit 0 affordable.
    sim::EnergyState s = ample_energy(kInf);
    s.level_mj = 0.2;
    EXPECT_EQ(policy.select_exit(s, model), 0);
    // No energy at all: keep waiting.
    s.level_mj = 0.0;
    EXPECT_EQ(policy.select_exit(s, model), -1);
}

TEST(SlackGreedy, RejectsMalformedSchedules) {
    EXPECT_THROW(sim::SlackGreedyPolicy(sim::SlackSchedule{{}}),
                 util::ContractViolation);
    EXPECT_THROW(sim::SlackGreedyPolicy(sim::SlackSchedule{{5.0, 10.0}}),
                 util::ContractViolation);  // first entry must be 0
    EXPECT_THROW(
        sim::SlackGreedyPolicy(sim::SlackSchedule{{0.0, 60.0, 30.0}}),
        util::ContractViolation);  // must be non-decreasing
}

TEST(SlackSchedule, DepthCapClampsToModelExits) {
    const sim::SlackSchedule schedule{{0.0, 10.0}};
    // Exits past the schedule's end reuse the last entry.
    EXPECT_EQ(schedule.max_depth(kInf, 5), 4);
    EXPECT_EQ(schedule.max_depth(9.0, 5), 0);
    EXPECT_EQ(schedule.max_depth(10.0, 5), 4);
    EXPECT_EQ(schedule.max_depth(kInf, 1), 0);
}

// --- Slack-binned Q state -------------------------------------------------

TEST(StateGrid, FlattenUnflattenRoundTrips) {
    const rl::StateGrid grid({8, 6, 4});
    EXPECT_EQ(grid.states(), 8u * 6u * 4u);
    for (std::size_t s = 0; s < grid.states(); ++s) {
        const auto bins = grid.unflatten(s);
        ASSERT_EQ(bins.size(), 3u);
        EXPECT_EQ(grid.flatten(bins), s);
    }
    EXPECT_THROW((void)grid.flatten({8, 0, 0}), util::ContractViolation);
    EXPECT_THROW((void)grid.flatten({0, 0}), util::ContractViolation);
    EXPECT_THROW((void)grid.unflatten(grid.states()), util::ContractViolation);
}

TEST(StateGrid, TrailingUnitDimensionPreservesIndices) {
    // The historical (energy x rate) layout is the slack_bins == 1 slice.
    const rl::StateGrid flat({8, 6});
    const rl::StateGrid with_unit({8, 6, 1});
    for (std::size_t level = 0; level < 8; ++level) {
        for (std::size_t rate = 0; rate < 6; ++rate) {
            EXPECT_EQ(with_unit.flatten({level, rate, 0}),
                      flat.flatten({level, rate}));
            EXPECT_EQ(flat.flatten({level, rate}), level * 6 + rate);
        }
    }
}

TEST(QLearningSlackState, SlackBinSplitsStatesAndRoundTrips) {
    sim::RuntimeConfig cfg;
    cfg.slack_bins = 2;
    cfg.max_slack_s = 60.0;
    const sim::QLearningExitPolicy policy(3, cfg);
    EXPECT_EQ(policy.exit_table().num_states(),
              cfg.energy_bins * cfg.rate_bins * 2);

    const rl::StateGrid grid({cfg.energy_bins, cfg.rate_bins, cfg.slack_bins});
    const sim::EnergyState urgent = ample_energy(10.0);   // below 30 s split
    const sim::EnergyState relaxed = ample_energy(50.0);  // above
    const sim::EnergyState none = ample_energy(kInf);     // top bin
    const auto urgent_bins = grid.unflatten(policy.exit_state(urgent));
    const auto relaxed_bins = grid.unflatten(policy.exit_state(relaxed));
    const auto none_bins = grid.unflatten(policy.exit_state(none));
    EXPECT_EQ(urgent_bins[2], 0u);
    EXPECT_EQ(relaxed_bins[2], 1u);
    EXPECT_EQ(none_bins[2], 1u);  // infinity saturates at the top bin
    // Only the slack coordinate differs for the same energy situation.
    EXPECT_EQ(urgent_bins[0], relaxed_bins[0]);
    EXPECT_EQ(urgent_bins[1], relaxed_bins[1]);
}

TEST(QLearningSlackState, SingleSlackBinReproducesHistoricalLayout) {
    const sim::RuntimeConfig cfg;  // slack_bins = 1 (slack-blind default)
    const sim::QLearningExitPolicy policy(3, cfg);
    EXPECT_EQ(policy.exit_table().num_states(),
              cfg.energy_bins * cfg.rate_bins);
    // Slack cannot influence the state index.
    EXPECT_EQ(policy.exit_state(ample_energy(0.0)),
              policy.exit_state(ample_energy(kInf)));
}

TEST(QLearningSlackCap, CapsSelectionAndIncrementalDepth) {
    sim::RuntimeConfig cfg = sim::slack_aware_runtime_config({});
    EXPECT_EQ(cfg.slack_bins, 2u);
    EXPECT_GT(cfg.deadline_miss_penalty, 0.0);
    EXPECT_TRUE(cfg.cap_depth_by_slack);

    FakeModel model;
    sim::QLearningExitPolicy policy(3, cfg);
    policy.set_eval_mode(true);
    // With zero slack every selection collapses to exit 0 regardless of the
    // learned argmax, and no incremental hop is allowed.
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(policy.select_exit(ample_energy(0.0), model), 0);
    }
    EXPECT_FALSE(
        policy.continue_inference(ample_energy(0.0), model, 0, 0.0));
    // With infinite slack the cap is the deepest exit: selection is free.
    const int free_choice = policy.select_exit(ample_energy(kInf), model);
    EXPECT_GE(free_choice, 0);
    EXPECT_LT(free_choice, 3);
}

// --- Registry -------------------------------------------------------------

TEST(PolicyRegistry, BuiltinsConstructTheRightTypes) {
    const auto names = sim::policy_names();
    for (const char* expected :
         {"greedy", "slack-greedy", "qlearning", "slack-qlearning"}) {
        EXPECT_TRUE(sim::has_policy(expected)) << expected;
    }
    EXPECT_GE(names.size(), 4u);

    sim::PolicyContext ctx;
    EXPECT_NE(dynamic_cast<sim::GreedyAffordablePolicy*>(
                  sim::make_policy("greedy", ctx).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<sim::SlackGreedyPolicy*>(
                  sim::make_policy("slack-greedy", ctx).get()),
              nullptr);
    const auto q = sim::make_policy("qlearning", ctx);
    EXPECT_NE(dynamic_cast<sim::QLearningExitPolicy*>(q.get()), nullptr);
    const auto slack_q = sim::make_policy("slack-qlearning", ctx);
    EXPECT_NE(dynamic_cast<sim::QLearningExitPolicy*>(slack_q.get()), nullptr);
}

TEST(PolicyRegistry, UnknownNameThrowsWithKnownNames) {
    try {
        sim::make_policy("no-such-policy");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no-such-policy"), std::string::npos);
        EXPECT_NE(what.find("greedy"), std::string::npos);
        EXPECT_NE(what.find("slack-qlearning"), std::string::npos);
    }
}

// --- Policy axis (exp::policy_patch) --------------------------------------

TEST(PolicyPatch, LabelsDimsAndValidation) {
    const auto patch = exp::policy_patch("slack-greedy");
    EXPECT_EQ(patch.label, "pol-slack-greedy");
    EXPECT_EQ(patch.dims.at("policy"), "slack-greedy");
    EXPECT_EQ(patch.policy, "slack-greedy");
    EXPECT_THROW(exp::policy_patch("no-such-policy"), util::ContractViolation);
}

TEST(PolicyPatch, CrossWithDeadlineKeepsPolicyAndDims) {
    const auto grid = exp::cross_patches(
        {exp::deadline_patch(60.0)},
        {exp::policy_patch("greedy"), exp::policy_patch("slack-greedy")});
    ASSERT_EQ(grid.size(), 2u);
    EXPECT_EQ(grid[0].label, "ddl60s+pol-greedy");
    EXPECT_EQ(grid[0].policy, "greedy");
    EXPECT_EQ(grid[1].label, "ddl60s+pol-slack-greedy");
    EXPECT_EQ(grid[1].policy, "slack-greedy");
    EXPECT_EQ(grid[1].dims.at("deadline_s"), "60");
    EXPECT_EQ(grid[1].dims.at("policy"), "slack-greedy");
}

// --- Sweep-level replica-0 pinning ----------------------------------------

/// The extended ablation-storage-deadline grid shape at mini scale:
/// one kOursPolicy system crossed with storage x deadline x policy patches.
exp::PaperSweep mini_factorial(const std::vector<std::string>& policies,
                               int episodes) {
    exp::PaperSweep sweep;
    sweep.traces = {{"mini", mini_config()}};
    sweep.systems = {{"ours", exp::SystemKind::kOursPolicy, episodes, {}, ""}};
    std::vector<exp::SimPatch> policy_axis;
    for (const auto& name : policies) {
        policy_axis.push_back(exp::policy_patch(name));
    }
    sweep.patches = exp::cross_patches(
        exp::cross_patches(
            {exp::storage_patch(2.0), exp::storage_patch(6.0)},
            {exp::deadline_patch(60.0), exp::deadline_patch(kInf)}),
        policy_axis);
    return sweep;
}

TEST(PolicyAxis, GreedySliceBitwiseMatchesPrePolicyAxisCells) {
    // Replica 0 of the extended (policy-axis) grid must reproduce the
    // pre-existing bench cells: the pol-greedy slice equals the historical
    // kOursStatic system, the pol-qlearning slice the historical
    // kOursQLearning system, cell by cell, bitwise.
    const int episodes = 2;
    const auto extended =
        exp::build_paper_scenarios(mini_factorial({"greedy", "qlearning"},
                                                  episodes));
    ASSERT_EQ(extended.size(), 8u);  // 2 storage x 2 deadline x 2 policies
    const auto extended_outcomes = exp::run_sweep(extended, {2});

    exp::PaperSweep legacy;
    legacy.traces = {{"mini", mini_config()}};
    legacy.systems = {
        {"Q-learning", exp::SystemKind::kOursQLearning, episodes, {}, ""},
        {"static LUT", exp::SystemKind::kOursStatic, 0, {}, ""}};
    legacy.patches = exp::cross_patches(
        {exp::storage_patch(2.0), exp::storage_patch(6.0)},
        {exp::deadline_patch(60.0), exp::deadline_patch(kInf)});
    const auto old = exp::build_paper_scenarios(legacy);
    const auto old_outcomes = exp::run_sweep(old, {2});

    int compared = 0;
    for (std::size_t i = 0; i < extended.size(); ++i) {
        const std::string& policy = extended[i].dims.at("policy");
        const std::string legacy_system =
            policy == "greedy" ? "static LUT" : "Q-learning";
        for (std::size_t j = 0; j < old.size(); ++j) {
            if (old[j].dims.at("system") != legacy_system) continue;
            if (old[j].dims.at("storage_mj") !=
                    extended[i].dims.at("storage_mj") ||
                old[j].dims.at("deadline_s") !=
                    extended[i].dims.at("deadline_s")) {
                continue;
            }
            ++compared;
            for (const auto& [metric, value] : old_outcomes[j].metrics) {
                EXPECT_EQ(extended_outcomes[i].metrics.at(metric), value)
                    << extended[i].id << " vs " << old[j].id << " " << metric;
            }
        }
    }
    EXPECT_EQ(compared, 8);  // every extended cell found its legacy twin
}

TEST(PolicyAxis, SlackAwareGreedyLowersDeadlineMissOnMiniTrace) {
    // The headline claim of the deadline benches at mini scale: under a
    // tight deadline the slack-aware LUT strictly lowers the deadline-miss
    // rate of its slack-blind counterpart.
    const auto setup = core::make_paper_setup(mini_config());
    auto run_policy = [&](const std::string& name) {
        core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                         setup.exit_accuracy);
        auto config = setup.multi_exit_sim;
        config.deadline_s = 30.0;
        const auto policy = sim::make_policy(name);
        sim::Simulator simulator(setup.trace, config);
        return simulator.run(setup.events, model, *policy);
    };
    const auto greedy = run_policy("greedy");
    const auto slack = run_policy("slack-greedy");
    EXPECT_LT(slack.deadline_miss_rate(), greedy.deadline_miss_rate());
}

}  // namespace
