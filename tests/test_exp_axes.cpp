// Tests for the storage-capacity and deadline scenario axes and the
// replica-0 equivalence of the newly ported bench scenarios: patch factory
// composition, storage monotonicity, deadline-miss-rate bounds, the
// deadline wiring through simulator and policy state, and bitwise agreement
// between the exp:: scenario paths and hand-rolled canonical runs.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline_models.hpp"
#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "sim/policies/qlearning.hpp"
#include "core/search.hpp"
#include "core/trace_eval.hpp"
#include "energy/solar.hpp"
#include "exp/paper_scenarios.hpp"
#include "exp/runner.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace imx;

constexpr double kInf = std::numeric_limits<double>::infinity();

core::SetupConfig mini_config() {
    core::SetupConfig config;
    config.event_count = 60;
    config.duration_s = 1500.0;
    config.total_harvest_mj = 35.0;
    return config;
}

// --- Patch factories ------------------------------------------------------

TEST(StoragePatch, SetsCapacityAndClampsInitial) {
    sim::SimConfig cfg;
    cfg.storage.capacity_mj = 10.0;
    cfg.storage.initial_mj = 5.0;

    const auto small = exp::storage_patch(1.5);
    EXPECT_EQ(small.label, "cap1.5mJ");
    EXPECT_EQ(small.dims.at("storage_mj"), "1.5");
    auto patched = cfg;
    small.apply(patched);
    EXPECT_DOUBLE_EQ(patched.storage.capacity_mj, 1.5);
    EXPECT_DOUBLE_EQ(patched.storage.initial_mj, 1.5);  // clamped

    const auto large = exp::storage_patch(20.0);
    patched = cfg;
    large.apply(patched);
    EXPECT_DOUBLE_EQ(patched.storage.capacity_mj, 20.0);
    EXPECT_DOUBLE_EQ(patched.storage.initial_mj, 5.0);  // untouched
}

TEST(DeadlinePatch, SetsDeadlineAndLabelsCells) {
    const auto tight = exp::deadline_patch(60.0);
    EXPECT_EQ(tight.label, "ddl60s");
    EXPECT_EQ(tight.dims.at("deadline_s"), "60");
    sim::SimConfig cfg;
    tight.apply(cfg);
    EXPECT_DOUBLE_EQ(cfg.deadline_s, 60.0);

    const auto none = exp::deadline_patch(kInf);
    EXPECT_EQ(none.label, "ddl-none");
    EXPECT_EQ(none.dims.at("deadline_s"), "inf");
    sim::SimConfig untouched;
    none.apply(untouched);
    EXPECT_EQ(untouched.deadline_s, kInf);
}

TEST(CrossPatches, ComposesLabelsDimsAndApplies) {
    const auto grid = exp::cross_patches(
        {exp::storage_patch(2.0)},
        {exp::deadline_patch(60.0), exp::deadline_patch(kInf)});
    ASSERT_EQ(grid.size(), 2u);
    EXPECT_EQ(grid[0].label, "cap2mJ+ddl60s");
    EXPECT_EQ(grid[1].label, "cap2mJ+ddl-none");
    EXPECT_EQ(grid[0].dims.at("storage_mj"), "2");
    EXPECT_EQ(grid[0].dims.at("deadline_s"), "60");

    sim::SimConfig cfg;
    cfg.storage.initial_mj = 3.0;
    grid[0].apply(cfg);
    EXPECT_DOUBLE_EQ(cfg.storage.capacity_mj, 2.0);
    EXPECT_DOUBLE_EQ(cfg.storage.initial_mj, 2.0);
    EXPECT_DOUBLE_EQ(cfg.deadline_s, 60.0);
}

// --- Storage-capacity monotonicity ----------------------------------------

TEST(StorageAxis, MoreCapacityNeverHurtsForwardProgress) {
    // Single-exit model under the greedy policy on a low constant income:
    // the only effect of a larger buffer is less energy lost to capping, so
    // forward progress (processed events) must be non-decreasing.
    const auto trace = energy::PowerTrace::constant(0.02, 600.0, 1.0);
    std::vector<sim::Event> events;
    for (int i = 0; i < 20; ++i) {
        events.push_back({i, 5.0 + 30.0 * i});
    }
    int previous_processed = -1;
    for (const double capacity : {0.6, 1.2, 2.4, 4.8}) {
        sim::SimConfig cfg;
        cfg.storage.leakage_mw = 0.0;
        exp::storage_patch(capacity).apply(cfg);
        sim::Simulator simulator(trace, cfg);
        auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
        sim::GreedyAffordablePolicy policy;
        const auto result = simulator.run(events, model, policy);
        EXPECT_GE(result.processed_count(), previous_processed)
            << "capacity " << capacity;
        previous_processed = result.processed_count();
    }
    EXPECT_GT(previous_processed, 0);
}

TEST(StorageAxis, ReplicaZeroMatchesHandRolledCapacityVariant) {
    // The sweep's storage patch must reproduce the historical hand-rolled
    // "modify the setup's storage config" path bitwise.
    const auto setup = core::make_paper_setup(mini_config());

    exp::PaperSweep sweep;
    sweep.traces = {{"mini", mini_config()}};
    sweep.systems = {{"ours-static", exp::SystemKind::kOursStatic, 0, {}, ""}};
    sweep.patches = {exp::storage_patch(2.0)};
    const auto specs = exp::build_paper_scenarios(sweep);
    ASSERT_EQ(specs.size(), 1u);
    const auto outcomes = exp::run_sweep(specs, {2});

    auto variant = setup;
    variant.multi_exit_sim.storage.capacity_mj = 2.0;
    variant.multi_exit_sim.storage.initial_mj =
        std::min(variant.multi_exit_sim.storage.initial_mj, 2.0);
    core::OracleInferenceModel model(variant.network, variant.deployed_policy,
                                     variant.exit_accuracy);
    sim::GreedyAffordablePolicy policy;
    sim::Simulator simulator(variant.trace, variant.multi_exit_sim);
    const auto direct = simulator.run(variant.events, model, policy);

    EXPECT_EQ(outcomes[0].metrics.at("iepmj"), direct.iepmj());
    EXPECT_EQ(outcomes[0].metrics.at("processed"),
              static_cast<double>(direct.processed_count()));
    EXPECT_EQ(outcomes[0].metrics.at("consumed_mj"),
              direct.total_consumed_mj());
}

// --- Deadline axis --------------------------------------------------------

TEST(DeadlineAxis, MissRateBoundsAndThresholdMonotonicity) {
    const auto setup = core::make_paper_setup(mini_config());
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::GreedyAffordablePolicy policy;
    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
    const auto result = simulator.run(setup.events, model, policy);

    // No deadline configured: the run's own rate is zero by definition.
    EXPECT_EQ(result.deadline_s, kInf);
    EXPECT_DOUBLE_EQ(result.deadline_miss_rate(), 0.0);

    // Evaluated post-hoc at any threshold the rate is a valid fraction and
    // tightening the threshold can only raise it.
    double previous = 0.0;
    for (const double deadline : {600.0, 120.0, 30.0, 5.0, 0.5}) {
        const double rate = result.deadline_miss_rate(deadline);
        EXPECT_GE(rate, 0.0);
        EXPECT_LE(rate, 1.0);
        EXPECT_GE(rate, previous) << "deadline " << deadline;
        previous = rate;
    }
    // Tighter than any completion latency: every event is a miss.
    EXPECT_DOUBLE_EQ(result.deadline_miss_rate(1e-6), 1.0);
}

TEST(DeadlineAxis, HopelessWaitingJobIsDroppedAndDeviceFrees) {
    // No income for 50 s, then constant power. Event A arrives at t=1 and
    // can never start before its deadline; event B arrives once income is
    // back. Without a deadline A camps on the device and B is lost; with a
    // deadline A is dropped and B completes.
    std::vector<double> samples(200, 0.01);
    for (std::size_t i = 0; i < 50; ++i) samples[i] = 0.0;
    const energy::PowerTrace trace(1.0, samples);
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    const std::vector<sim::Event> events = {{0, 1.0}, {1, 60.0}};

    sim::SimConfig cfg;
    cfg.storage.capacity_mj = 5.0;
    cfg.storage.initial_mj = 0.0;
    cfg.storage.leakage_mw = 0.0;
    cfg.storage.efficiency_max = 1.0;
    cfg.storage.efficiency_half_power_mw = 0.0;

    {
        sim::GreedyAffordablePolicy policy;
        sim::Simulator simulator(trace, cfg);
        const auto r = simulator.run(events, model, policy);
        EXPECT_TRUE(r.records[0].processed);
        EXPECT_FALSE(r.records[1].processed);  // lost while A held the device
    }
    {
        cfg.deadline_s = 10.0;
        sim::GreedyAffordablePolicy policy;
        sim::Simulator simulator(trace, cfg);
        const auto r = simulator.run(events, model, policy);
        EXPECT_FALSE(r.records[0].processed);  // dropped at its deadline
        EXPECT_TRUE(r.records[1].processed);   // device was free again
        EXPECT_DOUBLE_EQ(r.deadline_miss_rate(), 0.5);
    }
}

TEST(DeadlineAxis, PolicySeesShrinkingSlack) {
    struct Probe final : sim::ExitPolicy {
        std::vector<double> slacks;
        int select_exit(const sim::EnergyState& s,
                        const sim::InferenceModel&) override {
            slacks.push_back(s.deadline_slack_s);
            return -1;  // keep waiting
        }
        bool continue_inference(const sim::EnergyState&,
                                const sim::InferenceModel&, int,
                                double) override {
            return false;
        }
    };
    const auto trace = energy::PowerTrace::constant(0.0, 100.0, 1.0);
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    const std::vector<sim::Event> events = {{0, 5.0}};

    sim::SimConfig cfg;
    {
        Probe probe;
        sim::Simulator simulator(trace, cfg);
        (void)simulator.run(events, model, probe);
        ASSERT_FALSE(probe.slacks.empty());
        for (const double s : probe.slacks) EXPECT_EQ(s, kInf);
    }
    {
        cfg.deadline_s = 20.0;
        Probe probe;
        sim::Simulator simulator(trace, cfg);
        (void)simulator.run(events, model, probe);
        ASSERT_GE(probe.slacks.size(), 2u);
        EXPECT_LE(probe.slacks.front(), 20.0);
        EXPECT_GE(probe.slacks.front(), 0.0);
        for (std::size_t i = 1; i < probe.slacks.size(); ++i) {
            EXPECT_LT(probe.slacks[i], probe.slacks[i - 1]);
        }
    }
}

TEST(DeadlineAxis, SweepEmitsDeadlineMissMetricPerCell) {
    exp::PaperSweep sweep;
    sweep.traces = {{"mini", mini_config()}};
    sweep.systems = {{"ours-static", exp::SystemKind::kOursStatic, 0, {}, ""}};
    sweep.patches = {exp::deadline_patch(30.0), exp::deadline_patch(kInf)};
    const auto specs = exp::build_paper_scenarios(sweep);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].dims.at("deadline_s"), "30");
    EXPECT_EQ(specs[1].dims.at("deadline_s"), "inf");

    const auto outcomes = exp::run_sweep(specs, {2});
    const double tight = outcomes[0].metrics.at("deadline_miss_pct");
    EXPECT_GE(tight, 0.0);
    EXPECT_LE(tight, 100.0);
    EXPECT_DOUBLE_EQ(outcomes[1].metrics.at("deadline_miss_pct"), 0.0);
}

// --- Trace-registry golden stability --------------------------------------

TEST(TraceRegistryAxis, SolarReplicaZeroIsBitwiseStableAcrossTheRegistry) {
    // Label resolution for "paper-solar" grids now goes through the energy
    // trace registry; the replica-0 scenario output must stay bitwise
    // identical to a hand-rolled run over the legacy hard-coded solar trace
    // (reconstructed inline here, exactly as make_paper_setup used to).
    const auto config = mini_config();
    exp::PaperSweep sweep;
    sweep.traces = {{"paper-solar", config}};
    sweep.systems = {{"ours-static", exp::SystemKind::kOursStatic, 0, {}, ""}};
    const auto specs = exp::build_paper_scenarios(sweep);
    ASSERT_EQ(specs.size(), 1u);
    const auto outcomes = exp::run_sweep(specs, {2});

    energy::SolarConfig solar;
    solar.days = 1.0;
    solar.dt_s = 1.0;
    solar.peak_power_mw = 0.08;
    solar.window_start_hour = solar.sunrise_hour;
    solar.window_end_hour = solar.sunset_hour;
    solar.envelope_exponent = 2.0;
    solar.time_compression =
        (solar.window_end_hour - solar.window_start_hour) * 3600.0 /
        config.duration_s;
    solar.seed = config.trace_seed;
    energy::PowerTrace legacy_trace = energy::make_solar_trace(solar);
    legacy_trace.rescale_total_energy(config.total_harvest_mj);

    auto setup = core::make_paper_setup(config);
    setup.trace = legacy_trace;
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::GreedyAffordablePolicy policy;
    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
    const auto direct = simulator.run(setup.events, model, policy);

    EXPECT_EQ(outcomes[0].metrics.at("iepmj"), direct.iepmj());
    EXPECT_EQ(outcomes[0].metrics.at("acc_all_pct"),
              100.0 * direct.accuracy_all_events());
    EXPECT_EQ(outcomes[0].metrics.at("processed"),
              static_cast<double>(direct.processed_count()));
    EXPECT_EQ(outcomes[0].metrics.at("consumed_mj"),
              direct.total_consumed_mj());
}

// --- Replica-0 equivalence of the newly ported bench scenarios ------------

TEST(PortedScenarios, ExitAccuracyMatchesDirectOracle) {
    const auto desc = core::make_paper_network_desc();
    const core::AccuracyModel oracle(
        desc, {core::kPaperFullPrecisionAcc.begin(),
               core::kPaperFullPrecisionAcc.end()});

    const struct {
        exp::CompressionVariant variant;
        compress::Policy policy;
    } cases[] = {
        {exp::CompressionVariant::kFullPrecision,
         compress::Policy::full_precision(desc.num_layers())},
        {exp::CompressionVariant::kUniform, core::uniform_baseline_policy()},
        {exp::CompressionVariant::kNonuniform,
         core::reference_nonuniform_policy()},
    };
    for (const auto& c : cases) {
        const auto spec =
            exp::make_exit_accuracy_scenario(c.variant, "variant");
        const auto outcomes = exp::run_sweep({spec}, {2});
        const auto expected = oracle.exit_accuracy(c.policy);
        for (std::size_t e = 0; e < expected.size(); ++e) {
            EXPECT_EQ(outcomes[0].metrics.at(
                          "exit" + std::to_string(e + 1) + "_acc_pct"),
                      expected[e]);
        }
        EXPECT_EQ(outcomes[0].metrics.at("model_kb"),
                  compress::model_bytes(desc, c.policy) / 1024.0);
    }
}

TEST(PortedScenarios, LearningCurveMatchesHandRolledTrainingLoop) {
    const auto setup = std::make_shared<const core::ExperimentSetup>(
        core::make_paper_setup(mini_config()));
    const int episodes = 2;
    const exp::SystemSpec system{
        "ql", exp::SystemKind::kOursQLearning, episodes, {}, ""};

    const auto spec = exp::make_learning_curve_scenario(setup, system, "mini");
    const auto outcomes = exp::run_sweep({spec}, {1});

    // Hand-rolled replica-0 path, exactly as the pre-port fig7a bench ran:
    // canonical 2000+episode training event seeds, then a greedy evaluation
    // on the canonical schedule.
    core::OracleInferenceModel model(setup->network, setup->deployed_policy,
                                     setup->exit_accuracy);
    sim::QLearningExitPolicy policy(setup->network.num_exits, {});
    sim::Simulator simulator(setup->trace, setup->multi_exit_sim);
    std::vector<double> curve;
    for (int ep = 0; ep < episodes; ++ep) {
        const auto train_events = sim::generate_arrivals(
            "uniform", {static_cast<int>(setup->events.size()),
                        setup->trace.duration(),
                        2000 + static_cast<std::uint64_t>(ep)});
        const auto r = simulator.run(train_events, model, policy);
        curve.push_back(100.0 * r.accuracy_all_events());
    }
    policy.set_eval_mode(true);
    const auto final_run = simulator.run(setup->events, model, policy);

    EXPECT_EQ(outcomes[0].metrics.at("curve_ep01"), curve[0]);
    EXPECT_EQ(outcomes[0].metrics.at("curve_ep02"), curve[1]);
    EXPECT_EQ(outcomes[0].metrics.at("iepmj"), final_run.iepmj());
    EXPECT_EQ(outcomes[0].metrics.at("acc_all_pct"),
              100.0 * final_run.accuracy_all_events());
}

TEST(PortedScenarios, SearchScenarioMatchesDirectSearch) {
    const auto setup = std::make_shared<const core::ExperimentSetup>(
        core::make_paper_setup(mini_config()));
    core::SearchConfig cfg;
    cfg.episodes = 10;

    const auto spec = exp::make_search_scenario(
        setup, exp::SearchAlgo::kRandom, "random", cfg);
    const auto outcomes = exp::run_sweep({spec}, {2});

    const auto& desc = setup->network;
    const core::AccuracyModel oracle(
        desc, {core::kPaperFullPrecisionAcc.begin(),
               core::kPaperFullPrecisionAcc.end()});
    const core::StaticTraceEvaluator trace_eval(
        setup->trace, setup->events, core::paper_storage_config(),
        core::kEnergyPerMMacMj);
    const core::PolicyEvaluator evaluator(desc, oracle, trace_eval,
                                          core::paper_constraints(),
                                          cfg.trace_aware);
    core::CompressionSearch search(evaluator, cfg);
    const auto direct = search.run_random();

    EXPECT_EQ(outcomes[0].metrics.at("best_racc"), direct.best_reward);
    EXPECT_EQ(outcomes[0].metrics.at("evaluations"),
              static_cast<double>(direct.evaluations));
}

}  // namespace
