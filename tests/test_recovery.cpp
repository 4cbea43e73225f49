// The power-failure/recovery differential harness. Three pillars:
//
//  1. Inertness: with the failure model disabled (the default), the
//     simulator's output is bitwise identical to the historical path, and
//     the new SimResult fields stay zero.
//  2. The zero-cost-checkpoint theorem: under a lossless strategy with zero
//     commit/restore costs and no active draw, a run that dies and recovers
//     produces records bitwise equal to the same run with death disabled —
//     only the deaths counter differs.
//  3. Exact accounting: wasted_macs and recovery_energy_mj follow
//     conservation laws on hand-constructed scenarios whose arithmetic is
//     exact in binary (all energies are multiples of 1/32 mJ), plus the
//     monotonicity law that finer checkpointing never wastes more.
//
// The exp-layer half pins the recovery axis: the registered grid, spec
// sections, patch labeling, baseline guards, and thread/shard invariance of
// the new metrics through the journal/merge pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/baseline_models.hpp"
#include "checkpointed_reference.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "energy/power_trace.hpp"
#include "energy/storage.hpp"
#include "energy/trace_registry.hpp"
#include "exp/aggregate.hpp"
#include "exp/experiment.hpp"
#include "exp/journal.hpp"
#include "exp/paper_scenarios.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/spec_parser.hpp"
#include "scratch_dir.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/recovery/registry.hpp"
#include "sim/recovery/strategy.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"

namespace {

using namespace imx;

// --- Controlled fixtures ---------------------------------------------------

/// Two-exit model with uniform 1-MMAC layers: exit 0 costs 1 MMAC, exit 1
/// costs 3 MMAC. At the default 1.5 mJ/MMAC every unit costs exactly 1.5 mJ,
/// which is exact in binary, so whole scenarios stay exact.
class LadderModel final : public sim::InferenceModel {
public:
    [[nodiscard]] int num_exits() const override { return 2; }
    [[nodiscard]] std::int64_t exit_macs(int exit) const override {
        return exit == 0 ? 1000000 : 3000000;
    }
    [[nodiscard]] std::int64_t incremental_macs(int from_exit,
                                                int to_exit) const override {
        return exit_macs(to_exit) - (from_exit < 0 ? 0 : exit_macs(from_exit));
    }
    [[nodiscard]] std::vector<std::int64_t> segment_macs(
        int from_exit, int to_exit) const override {
        const std::int64_t total = incremental_macs(from_exit, to_exit);
        std::vector<std::int64_t> segments;
        for (std::int64_t done = 0; done < total; done += 1000000) {
            segments.push_back(1000000);
        }
        return segments;
    }
    [[nodiscard]] sim::ExitOutcome evaluate(int, int) override {
        return {true, 1.0};
    }
    [[nodiscard]] double model_bytes() const override { return 0.0; }
};

/// Model that does NOT override segment_macs, to pin the default.
class OpaqueModel final : public sim::InferenceModel {
public:
    [[nodiscard]] int num_exits() const override { return 2; }
    [[nodiscard]] std::int64_t exit_macs(int exit) const override {
        return exit == 0 ? 400000 : 900000;
    }
    [[nodiscard]] std::int64_t incremental_macs(int from_exit,
                                                int to_exit) const override {
        return exit_macs(to_exit) - (from_exit < 0 ? 0 : exit_macs(from_exit));
    }
    [[nodiscard]] sim::ExitOutcome evaluate(int, int) override {
        return {true, 1.0};
    }
    [[nodiscard]] double model_bytes() const override { return 0.0; }
};

/// Commits to a fixed exit immediately and never advances incrementally.
class PinnedExitPolicy final : public sim::ExitPolicy {
public:
    explicit PinnedExitPolicy(int exit) : exit_(exit) {}
    int select_exit(const sim::EnergyState&,
                    const sim::InferenceModel&) override {
        return exit_;
    }
    bool continue_inference(const sim::EnergyState&,
                            const sim::InferenceModel&, int, double) override {
        return false;
    }

private:
    int exit_;
};

/// Never commits: the device must stay asleep (and deathless) forever.
class NeverCommitPolicy final : public sim::ExitPolicy {
public:
    int select_exit(const sim::EnergyState&,
                    const sim::InferenceModel&) override {
        return -1;
    }
    bool continue_inference(const sim::EnergyState&,
                            const sim::InferenceModel&, int, double) override {
        return false;
    }
};

/// 10 s of darkness (the job starts on stored energy, stalls, and — with a
/// death threshold — dies), then 50 s at 0.5 mW to recover and finish.
energy::PowerTrace dark_then_bright() {
    std::vector<double> samples(10, 0.0);
    samples.insert(samples.end(), 50, 0.5);
    return energy::PowerTrace(1.0, std::move(samples));
}

/// All energies are multiples of 1/32 mJ so every step is exact in binary:
/// initial 2.0 covers exactly one 1.5 mJ unit plus leakage, and the
/// 0.0625 mW leakage then drags the stalled device to the 0.03125 mJ death
/// threshold at a deterministic step.
sim::SimConfig exact_config(const sim::RecoveryConfig& recovery,
                            double death_threshold_mj) {
    sim::SimConfig cfg;
    cfg.dt_s = 1.0;
    cfg.storage.capacity_mj = 16.0;
    cfg.storage.initial_mj = 2.0;
    cfg.storage.leakage_mw = 0.0625;
    cfg.storage.efficiency_max = 1.0;
    cfg.storage.efficiency_half_power_mw = 0.0;
    cfg.storage.on_threshold_mj = 0.03125;
    cfg.storage.death_threshold_mj = death_threshold_mj;
    cfg.mcu.wakeup_energy_mj = 0.0;
    cfg.mcu.wakeup_time_s = 0.0;
    cfg.mcu.mmacs_per_second = 10.0;
    cfg.recovery = recovery;
    return cfg;
}

sim::RecoveryConfig zero_cost(const std::string& strategy,
                              sim::CheckpointGranularity granularity) {
    sim::RecoveryConfig rec;
    rec.enabled = true;
    rec.strategy = strategy;
    rec.granularity = granularity;
    rec.checkpoint_energy_mj = 0.0;
    rec.restore_energy_mj = 0.0;
    rec.restore_penalty_mj = 0.0;
    rec.active_power_mw = 0.0;
    return rec;
}

sim::SimResult run_exact(const sim::SimConfig& cfg) {
    const auto trace = dark_then_bright();
    sim::Simulator simulator(trace, cfg);
    LadderModel model;
    PinnedExitPolicy policy(1);
    return simulator.run(std::vector<sim::Event>{{0, 1.0}}, model, policy);
}

void expect_records_bitwise_equal(const sim::SimResult& a,
                                  const sim::SimResult& b) {
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const auto& ra = a.records[i];
        const auto& rb = b.records[i];
        EXPECT_EQ(ra.event_id, rb.event_id);
        EXPECT_EQ(ra.arrival_time_s, rb.arrival_time_s);
        EXPECT_EQ(ra.processed, rb.processed);
        EXPECT_EQ(ra.correct, rb.correct);
        EXPECT_EQ(ra.exit_taken, rb.exit_taken);
        EXPECT_EQ(ra.hops, rb.hops);
        EXPECT_EQ(ra.completion_time_s, rb.completion_time_s);
        EXPECT_EQ(ra.inference_start_s, rb.inference_start_s);
        EXPECT_EQ(ra.energy_spent_mj, rb.energy_spent_mj);
        EXPECT_EQ(ra.macs, rb.macs);
    }
}

// --- Strategy registry -----------------------------------------------------

TEST(RecoveryRegistry, BuiltInsAreRegistered) {
    for (const char* name : {"restart", "checkpoint", "checkpoint-free"}) {
        EXPECT_TRUE(sim::has_recovery_strategy(name)) << name;
        EXPECT_FALSE(sim::recovery_strategy_description(name).empty()) << name;
    }
    const auto names = sim::recovery_strategy_names();
    EXPECT_GE(names.size(), 3u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(RecoveryRegistry, BuiltInSemantics) {
    sim::RecoveryConfig cfg;
    cfg.checkpoint_energy_mj = 0.25;
    cfg.restore_energy_mj = 0.125;
    cfg.restore_penalty_mj = 0.0625;

    const auto restart = sim::make_recovery_strategy("restart", cfg);
    EXPECT_EQ(restart->commit_cost_mj(), 0.0);
    EXPECT_EQ(restart->surviving_units(5), 0);
    EXPECT_EQ(restart->restore_cost_mj(0), 0.0);

    const auto ckpt = sim::make_recovery_strategy("checkpoint", cfg);
    EXPECT_EQ(ckpt->commit_cost_mj(), 0.25);
    EXPECT_EQ(ckpt->surviving_units(5), 5);
    EXPECT_EQ(ckpt->restore_cost_mj(3), 0.125);

    const auto free = sim::make_recovery_strategy("checkpoint-free", cfg);
    EXPECT_EQ(free->commit_cost_mj(), 0.0);
    EXPECT_EQ(free->surviving_units(7), 7);
    EXPECT_EQ(free->restore_cost_mj(4), 4 * 0.0625);
}

TEST(RecoveryRegistry, UnknownNameListsEveryRegisteredStrategy) {
    try {
        (void)sim::make_recovery_strategy("no-such-strategy");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no-such-strategy"), std::string::npos);
        EXPECT_NE(what.find("restart"), std::string::npos);
        EXPECT_NE(what.find("checkpoint-free"), std::string::npos);
    }
}

TEST(RecoveryRegistry, NegativeCostParametersAreRejected) {
    sim::RecoveryConfig cfg;
    cfg.checkpoint_energy_mj = -0.1;
    try {
        (void)sim::make_recovery_strategy("checkpoint", cfg);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("non-negative"),
                  std::string::npos);
    }
}

// --- Plan construction -----------------------------------------------------

TEST(RecoveryUnits, GranularityParsesAndRoundTrips) {
    EXPECT_EQ(sim::parse_granularity("layer"),
              sim::CheckpointGranularity::kPerLayer);
    EXPECT_EQ(sim::parse_granularity("exit"),
              sim::CheckpointGranularity::kPerExit);
    EXPECT_EQ(sim::granularity_name(sim::CheckpointGranularity::kPerLayer),
              "layer");
    EXPECT_EQ(sim::granularity_name(sim::CheckpointGranularity::kPerExit),
              "exit");
    EXPECT_THROW((void)sim::parse_granularity("segment"),
                 std::invalid_argument);
}

TEST(RecoveryUnits, PlansSumToIncrementalMacsOnThePaperNetwork) {
    const auto desc = core::make_paper_network_desc();
    const auto policy = compress::Policy::full_precision(desc.num_layers());
    core::OracleInferenceModel model(desc, policy, {60.0, 70.0, 73.0});
    for (int from = -1; from < model.num_exits(); ++from) {
        for (int to = std::max(from, 0); to < model.num_exits(); ++to) {
            if (to <= from) continue;
            for (const auto granularity :
                 {sim::CheckpointGranularity::kPerLayer,
                  sim::CheckpointGranularity::kPerExit}) {
                const auto units =
                    sim::recovery_units(model, from, to, granularity);
                ASSERT_FALSE(units.empty());
                std::int64_t sum = 0;
                for (const auto unit : units) {
                    EXPECT_GT(unit, 0);
                    sum += unit;
                }
                EXPECT_EQ(sum, model.incremental_macs(from, to))
                    << from << "->" << to;
            }
        }
    }
}

TEST(RecoveryUnits, PerExitIsNoFinerThanPerLayer) {
    const auto desc = core::make_paper_network_desc();
    const auto policy = compress::Policy::full_precision(desc.num_layers());
    core::OracleInferenceModel model(desc, policy, {60.0, 70.0, 73.0});
    const int last = model.num_exits() - 1;
    const auto per_layer = sim::recovery_units(
        model, -1, last, sim::CheckpointGranularity::kPerLayer);
    const auto per_exit = sim::recovery_units(
        model, -1, last, sim::CheckpointGranularity::kPerExit);
    EXPECT_LE(per_exit.size(), per_layer.size());
    // One boundary per trunk junction passed: the full path crosses every
    // earlier exit, so the per-exit plan has one unit per exit.
    EXPECT_EQ(per_exit.size(), static_cast<std::size_t>(model.num_exits()));
}

TEST(RecoveryUnits, SegmentMacsSumsMatchIncrementalOnTheOracle) {
    const auto desc = core::make_paper_network_desc();
    const auto policy = compress::Policy::full_precision(desc.num_layers());
    core::OracleInferenceModel model(desc, policy, {60.0, 70.0, 73.0});
    for (int from = -1; from < model.num_exits() - 1; ++from) {
        for (int to = from + 1; to < model.num_exits(); ++to) {
            if (to < 0) continue;
            const auto segments = model.segment_macs(from, to);
            std::int64_t sum = 0;
            for (const auto macs : segments) sum += macs;
            EXPECT_EQ(sum, model.incremental_macs(from, to))
                << from << "->" << to;
        }
    }
}

TEST(RecoveryUnits, DefaultSegmentMacsIsOneOpaqueSegment) {
    OpaqueModel model;
    const auto segments = model.segment_macs(-1, 1);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0], model.incremental_macs(-1, 1));
    // recovery_units degrades gracefully: per-layer over an opaque model is
    // one unit; per-exit still cuts at the trunk junction.
    const auto per_layer = sim::recovery_units(
        model, -1, 1, sim::CheckpointGranularity::kPerLayer);
    ASSERT_EQ(per_layer.size(), 1u);
    EXPECT_EQ(per_layer[0], 900000);
    const auto per_exit = sim::recovery_units(
        model, -1, 1, sim::CheckpointGranularity::kPerExit);
    ASSERT_EQ(per_exit.size(), 2u);
    EXPECT_EQ(per_exit[0], 400000);
    EXPECT_EQ(per_exit[1], 500000);
}

// --- Simulator: inertness when disabled ------------------------------------

TEST(RecoverySim, DisabledFailureModelIsBitwiseInert) {
    const auto trace =
        energy::PowerTrace::square_wave(0.5, 40.0, 0.5, 400.0, 1.0);
    const auto desc = core::make_paper_network_desc();
    const auto compression = compress::Policy::full_precision(desc.num_layers());
    const std::vector<sim::Event> events = {{0, 5.0}, {1, 90.0}, {2, 210.0}};

    sim::SimConfig plain;
    plain.storage.initial_mj = 2.0;
    auto raised = plain;
    raised.storage.death_threshold_mj = 0.04;  // no effect while disabled

    core::OracleInferenceModel model_a(desc, compression, {60.0, 70.0, 73.0});
    sim::GreedyAffordablePolicy policy_a;
    const auto a = sim::Simulator(trace, plain).run(events, model_a, policy_a);

    core::OracleInferenceModel model_b(desc, compression, {60.0, 70.0, 73.0});
    sim::GreedyAffordablePolicy policy_b;
    const auto b = sim::Simulator(trace, raised).run(events, model_b, policy_b);

    expect_records_bitwise_equal(a, b);
    EXPECT_EQ(a.deaths, 0);
    EXPECT_EQ(a.recovery_energy_mj, 0.0);
    EXPECT_EQ(a.wasted_macs, 0);
    EXPECT_EQ(b.deaths, 0);
}

// --- Simulator: the zero-cost-checkpoint theorem ---------------------------

TEST(RecoverySim, ZeroCostCheckpointDeathIsBitwiseInvisible) {
    const auto rec = zero_cost("checkpoint",
                               sim::CheckpointGranularity::kPerLayer);
    const auto with_death = run_exact(exact_config(rec, 0.03125));
    const auto no_death = run_exact(exact_config(rec, 0.0));

    EXPECT_EQ(with_death.deaths, 1);
    EXPECT_EQ(no_death.deaths, 0);
    expect_records_bitwise_equal(with_death, no_death);
    ASSERT_TRUE(with_death.records[0].processed);
    EXPECT_EQ(with_death.records[0].macs, 3000000);
    EXPECT_EQ(with_death.wasted_macs, 0);
    EXPECT_EQ(with_death.recovery_energy_mj, 0.0);
    EXPECT_TRUE(with_death.energy_feasible(2.0));
}

TEST(RecoverySim, ZeroCostCheckpointFreeDeathIsBitwiseInvisible) {
    const auto rec = zero_cost("checkpoint-free",
                               sim::CheckpointGranularity::kPerLayer);
    const auto with_death = run_exact(exact_config(rec, 0.03125));
    const auto no_death = run_exact(exact_config(rec, 0.0));
    EXPECT_EQ(with_death.deaths, 1);
    EXPECT_EQ(no_death.deaths, 0);
    expect_records_bitwise_equal(with_death, no_death);
}

// --- Simulator: restart divergence and exact accounting --------------------

TEST(RecoverySim, RestartLosesExactlyTheCommittedUnits) {
    const auto rec =
        zero_cost("restart", sim::CheckpointGranularity::kPerLayer);
    const auto result = run_exact(exact_config(rec, 0.03125));
    EXPECT_EQ(result.deaths, 1);
    // One 1-MMAC unit was committed before the death and had to be redone.
    EXPECT_EQ(result.wasted_macs, 1000000);
    ASSERT_TRUE(result.records[0].processed);
    // Conservation: every executed MAC is either useful or wasted.
    EXPECT_EQ(result.records[0].macs,
              3000000 + result.wasted_macs);
    // The redo makes the restart run strictly slower than checkpointing.
    const auto ckpt = run_exact(exact_config(
        zero_cost("checkpoint", sim::CheckpointGranularity::kPerLayer),
        0.03125));
    EXPECT_GT(result.records[0].completion_time_s,
              ckpt.records[0].completion_time_s);
}

TEST(RecoverySim, FinerCheckpointingNeverWastesMore) {
    const auto wasted = [](sim::CheckpointGranularity granularity,
                           const char* strategy) {
        return run_exact(
                   exact_config(zero_cost(strategy, granularity), 0.03125))
            .wasted_macs;
    };
    const auto layer = wasted(sim::CheckpointGranularity::kPerLayer,
                              "checkpoint");
    const auto exit = wasted(sim::CheckpointGranularity::kPerExit,
                             "checkpoint");
    const auto restart = wasted(sim::CheckpointGranularity::kPerLayer,
                                "restart");
    EXPECT_LE(layer, exit);
    EXPECT_LE(exit, restart);
    EXPECT_GT(restart, 0);
}

TEST(RecoverySim, CommitAndRestoreCostsAreAccountedExactly) {
    // Abundant energy: no deaths, so recovery energy is purely the three
    // per-unit checkpoint commits.
    auto rec = zero_cost("checkpoint", sim::CheckpointGranularity::kPerLayer);
    rec.checkpoint_energy_mj = 0.25;
    rec.restore_energy_mj = 0.125;
    auto cfg = exact_config(rec, 0.03125);
    cfg.storage.initial_mj = 16.0;
    const auto trace = energy::PowerTrace::constant(1.0, 60.0, 1.0);
    sim::Simulator simulator(trace, cfg);
    LadderModel model;
    PinnedExitPolicy policy(1);
    const auto result = simulator.run(std::vector<sim::Event>{{0, 1.0}}, model, policy);
    ASSERT_TRUE(result.records[0].processed);
    EXPECT_EQ(result.deaths, 0);
    EXPECT_EQ(result.recovery_energy_mj, 3 * 0.25);
    // Commits are runtime overhead, not inference energy.
    EXPECT_EQ(result.records[0].energy_spent_mj, 3 * 1.5);
    EXPECT_EQ(result.records[0].hops, 1);
}

TEST(RecoverySim, RestorePenaltyIsChargedPerSurvivingUnit) {
    auto rec =
        zero_cost("checkpoint-free", sim::CheckpointGranularity::kPerLayer);
    rec.restore_penalty_mj = 0.25;
    const auto result = run_exact(exact_config(rec, 0.03125));
    ASSERT_TRUE(result.records[0].processed);
    EXPECT_EQ(result.deaths, 1);
    // One unit survived the single death: one reboot at 1 x 0.25 mJ.
    EXPECT_EQ(result.recovery_energy_mj, 0.25);
    EXPECT_EQ(result.wasted_macs, 0);
}

// --- Simulator: death preconditions ----------------------------------------

TEST(RecoverySim, ActivePowerDrawDrivesDeathWhileStalled) {
    auto rec = zero_cost("restart", sim::CheckpointGranularity::kPerLayer);
    rec.active_power_mw = 0.2;
    auto cfg = exact_config(rec, 0.03125);
    cfg.storage.leakage_mw = 0.0;  // the active draw is the only force
    const auto trace = dark_then_bright();
    sim::Simulator simulator(trace, cfg);
    LadderModel model;
    PinnedExitPolicy policy(1);
    const auto result = simulator.run(std::vector<sim::Event>{{0, 1.0}}, model, policy);
    EXPECT_GE(result.deaths, 1);
    EXPECT_GT(result.wasted_macs, 0);

    // Same scenario without the draw: the stall outlasts the darkness.
    auto quiet_rec = rec;
    quiet_rec.active_power_mw = 0.0;
    auto quiet = exact_config(quiet_rec, 0.03125);
    quiet.storage.leakage_mw = 0.0;
    sim::Simulator quiet_sim(trace, quiet);
    LadderModel quiet_model;
    PinnedExitPolicy quiet_policy(1);
    const auto alive = quiet_sim.run(std::vector<sim::Event>{{0, 1.0}}, quiet_model, quiet_policy);
    EXPECT_EQ(alive.deaths, 0);
    ASSERT_TRUE(alive.records[0].processed);
}

TEST(RecoverySim, NoDeathBeforeTheFirstUnitStarts) {
    // An uncommitted (or committed-but-never-started) job leaves the device
    // asleep: no active draw, no death, exactly like the historical wait.
    auto rec = zero_cost("restart", sim::CheckpointGranularity::kPerLayer);
    rec.active_power_mw = 5.0;
    auto cfg = exact_config(rec, 0.03125);
    const auto trace = energy::PowerTrace::constant(0.0, 20.0, 1.0);
    sim::Simulator simulator(trace, cfg);
    LadderModel model;
    NeverCommitPolicy policy;
    const auto result = simulator.run(std::vector<sim::Event>{{0, 1.0}}, model, policy);
    EXPECT_EQ(result.deaths, 0);
    EXPECT_FALSE(result.records[0].processed);
}

TEST(RecoverySim, ZeroDeathThresholdNeverFires) {
    auto rec = zero_cost("restart", sim::CheckpointGranularity::kPerLayer);
    rec.active_power_mw = 1.0;
    const auto result = run_exact(exact_config(rec, 0.0));
    EXPECT_EQ(result.deaths, 0);
}

TEST(RecoverySim, ContractsRejectInvalidRecoverySetups) {
    const auto trace = energy::PowerTrace::constant(1.0, 10.0, 1.0);
    // A reboot waits for on_threshold, so it must not sit below death.
    auto low = exact_config(
        zero_cost("restart", sim::CheckpointGranularity::kPerLayer), 0.03125);
    low.storage.on_threshold_mj = 0.015625;
    EXPECT_THROW(sim::Simulator(trace, low), util::ContractViolation);
    // The storage validates the threshold itself.
    energy::StorageConfig storage;
    storage.death_threshold_mj = -0.1;
    EXPECT_THROW(energy::EnergyStorage{storage}, util::ContractViolation);
    storage.death_threshold_mj = storage.capacity_mj + 1.0;
    EXPECT_THROW(energy::EnergyStorage{storage}, util::ContractViolation);
}

// --- Checkpointed baselines as unit plans ----------------------------------

/// A baseline runtime whose arithmetic is exact in binary: 1-MMAC units of
/// 1.5 mJ (one step at 1 MMAC/s), one 0.125 mJ checkpoint write per unit, a
/// 0.25 mJ wakeup, and the exact_config() storage with a 1 mJ on-threshold.
sim::SimConfig exact_baseline_config() {
    sim::SimConfig cfg = exact_config(sim::RecoveryConfig{}, 0.125);
    cfg.storage.initial_mj = 2.125;
    cfg.storage.on_threshold_mj = 1.0;
    cfg.mcu.mmacs_per_second = 1.0;
    cfg.mcu.macs_per_task = 1000000;
    cfg.mcu.checkpoint_energy_mj = 0.125;
    cfg.mcu.wakeup_energy_mj = 0.25;
    return baselines::checkpointed_sim_config(cfg);
}

TEST(BaselineUnitPlan, ConfigIsTheCheckpointStrategyOnStepSizedUnits) {
    const auto cfg = exact_baseline_config();
    EXPECT_TRUE(cfg.recovery.enabled);
    EXPECT_EQ(cfg.recovery.strategy, "checkpoint");
    EXPECT_EQ(cfg.recovery.granularity, sim::CheckpointGranularity::kPerLayer);
    EXPECT_EQ(cfg.recovery.checkpoint_energy_mj, 0.125);
    EXPECT_EQ(cfg.recovery.restore_energy_mj, 0.0);
    EXPECT_EQ(cfg.recovery.active_power_mw, 0.0);
    EXPECT_EQ(baselines::step_unit_macs(cfg.mcu, cfg.dt_s), 1000000);

    // The paper setup: 0.2 MMAC per 1 s step, four 50k-MAC tasks per unit.
    const auto setup = core::make_paper_setup(exp::quick_setup_config({}));
    const auto& paper = setup.checkpointed_sim;
    EXPECT_EQ(baselines::step_unit_macs(paper.mcu, paper.dt_s),
              baselines::kPaperStepUnitMacs);
    EXPECT_EQ(paper.recovery.checkpoint_energy_mj,
              4 * paper.mcu.checkpoint_energy_mj);
    const auto units = sim::recovery_units(
        baselines::make_lenet_cifar(), -1, 0,
        sim::CheckpointGranularity::kPerLayer);
    EXPECT_EQ(units, (std::vector<std::int64_t>{200000, 200000, 200000,
                                                120000}));
}

TEST(BaselineUnitPlan, BrownOutResumesFromTheLastCommittedUnit) {
    // The first unit runs on stored energy, the dark stretch browns the
    // stalled device out, and daylight reboots it at the on-threshold.
    const auto trace = dark_then_bright();
    sim::Simulator simulator(trace, exact_baseline_config());
    baselines::FixedBaselineModel model("m", 3.0, 100.0, 1.0, 1234, 1000000);
    baselines::CommitAtPickupPolicy policy;
    const auto result =
        simulator.run(std::vector<sim::Event>{{0, 1.0}}, model, policy);

    ASSERT_TRUE(result.records[0].processed);
    EXPECT_GE(result.deaths, 1);
    // Every committed unit survived: nothing recomputed, nothing wasted.
    EXPECT_EQ(result.wasted_macs, 0);
    EXPECT_EQ(result.records[0].macs, 3000000);
    EXPECT_EQ(result.counters.unit_starts, 3u);
    // One wakeup at the first start and one per reboot; the three commits
    // are runtime overhead, outside the event's own energy.
    EXPECT_EQ(result.records[0].energy_spent_mj,
              3 * 1.5 + 0.25 * (1 + result.deaths));
    EXPECT_EQ(result.recovery_energy_mj, 3 * 0.125);
    EXPECT_TRUE(result.energy_feasible(2.125));
}

TEST(BaselineUnitPlan, InFlightBaselineStepsAreDrained) {
    // Picked up at t = 0, one unit on stored energy, then darkness until
    // the trace ends: the job is still in flight at the end, so the run
    // covers every step, and its dead stretch runs in the drain loop.
    const energy::PowerTrace trace(1.0, std::vector<double>(200, 0.0));
    sim::Simulator simulator(trace, exact_baseline_config());
    baselines::FixedBaselineModel model("m", 3.0, 100.0, 1.0, 1234, 1000000);
    baselines::CommitAtPickupPolicy policy;
    const auto result =
        simulator.run(std::vector<sim::Event>{{0, 0.0}}, model, policy);

    EXPECT_EQ(result.in_flight, 1);
    EXPECT_EQ(result.deaths, 1);
    EXPECT_EQ(result.counters.unit_starts, 1u);
    EXPECT_EQ(result.counters.full_steps + result.counters.drained_steps,
              200u);
    EXPECT_GE(result.counters.drained_steps, 190u);
}

TEST(BaselineUnitPlan, ZeroDrawStallsDrainBitwiseLikeSteppedStalls) {
    // A stall between units with no stall draw only harvests, checks for
    // death and tests the unit gate, so the drain runs it. A denormal draw
    // leaves every level bit unchanged but keeps the simulator stepping
    // each stall in full: both runs must agree bit for bit.
    using Factory = baselines::FixedBaselineModel (*)(std::uint64_t,
                                                      std::int64_t);
    const auto setup = core::make_paper_setup();
    energy::PowerTrace rf =
        energy::make_trace("rf-bursty", {setup.trace.duration(), 1.0, 11});
    rf.rescale_total_energy(setup.trace.total_energy());
    const energy::PowerTrace* const traces[] = {&setup.trace, &rf};
    int deaths = 0;
    for (const energy::PowerTrace* trace : traces) {
        for (const Factory factory : {&baselines::make_sonic_net,
                                      &baselines::make_sparse_net,
                                      &baselines::make_lenet_cifar}) {
            auto model = factory(1234, baselines::kPaperStepUnitMacs);
            SCOPED_TRACE(model.name() +
                         (trace == &rf ? " on rf-bursty" : " on solar"));
            sim::SimConfig stepped_cfg = setup.checkpointed_sim;
            ASSERT_EQ(stepped_cfg.recovery.active_power_mw, 0.0);
            stepped_cfg.recovery.active_power_mw =
                std::numeric_limits<double>::denorm_min();
            baselines::CommitAtPickupPolicy policy;
            const auto drained = sim::Simulator(*trace, setup.checkpointed_sim)
                                     .run(setup.events, model, policy);
            const auto stepped = sim::Simulator(*trace, stepped_cfg)
                                     .run(setup.events, model, policy);
            expect_records_bitwise_equal(drained, stepped);
            EXPECT_EQ(drained.deaths, stepped.deaths);
            EXPECT_EQ(drained.recovery_energy_mj, stepped.recovery_energy_mj);
            EXPECT_EQ(drained.wasted_macs, stepped.wasted_macs);
            EXPECT_EQ(drained.in_flight, stepped.in_flight);
            EXPECT_EQ(drained.counters.full_steps +
                          drained.counters.drained_steps,
                      stepped.counters.full_steps +
                          stepped.counters.drained_steps);
            EXPECT_LT(drained.counters.full_steps,
                      stepped.counters.full_steps);
            deaths += drained.deaths;
        }
    }

    // The exact-arithmetic brown-out: leakage drags the stalled device
    // below the death threshold at a known step, which the drain must stop
    // in front of.
    sim::SimConfig stepped_cfg = exact_baseline_config();
    stepped_cfg.recovery.active_power_mw =
        std::numeric_limits<double>::denorm_min();
    baselines::FixedBaselineModel model("m", 3.0, 100.0, 1.0, 1234, 1000000);
    baselines::CommitAtPickupPolicy policy;
    const std::vector<sim::Event> events = {{0, 1.0}};
    const auto drained = sim::Simulator(dark_then_bright(),
                                        exact_baseline_config())
                             .run(events, model, policy);
    const auto stepped = sim::Simulator(dark_then_bright(), stepped_cfg)
                             .run(events, model, policy);
    expect_records_bitwise_equal(drained, stepped);
    EXPECT_EQ(drained.deaths, stepped.deaths);
    EXPECT_EQ(drained.recovery_energy_mj, stepped.recovery_energy_mj);
    EXPECT_GE(drained.deaths, 1);
    EXPECT_LE(drained.counters.full_steps, stepped.counters.full_steps);
    deaths += drained.deaths;
    // Stalls did die here, so the death stop was exercised.
    EXPECT_GT(deaths, 1);
}

TEST(CheckpointedReference, ReproducesTheHistoricalBaselineRows) {
    // The Fig. 5 / Sec. V-D baseline rows the step-at-a-time loop printed
    // (9 decimals, from `imx_sweep latency-table --csv`).
    struct Row {
        baselines::FixedBaselineModel model;
        int processed;
        int correct;
        double event_latency_s;
        double consumed_mj;
    };
    Row rows[] = {
        {baselines::make_sonic_net(), 76, 61, 121.084435965, 263.015},
        {baselines::make_sparse_net(), 13, 10, 758.685149789, 257.147},
        {baselines::make_lenet_cifar(), 198, 152, 31.746676928, 244.070},
    };
    const auto setup = core::make_paper_setup();
    for (Row& row : rows) {
        const auto r = test::run_checkpointed_reference(
            setup.trace, setup.checkpointed_sim, row.model, setup.events);
        EXPECT_EQ(r.processed_count(), row.processed) << row.model.name();
        EXPECT_EQ(r.correct_count(), row.correct) << row.model.name();
        EXPECT_NEAR(r.mean_event_latency_s(), row.event_latency_s, 1e-8)
            << row.model.name();
        EXPECT_NEAR(r.total_consumed_mj(), row.consumed_mj, 1e-8)
            << row.model.name();
    }
}

TEST(CheckpointedReference, UnitPathStaysWithinDocumentedTolerances) {
    // docs/recovery.md, "Baselines as unit plans", gives these tolerances
    // and the modelling differences behind them. Paying one wakeup per job
    // start and reboot instead of one per power-on, the unit path processes
    // a few more events on the canonical setup, never fewer.
    using Factory = baselines::FixedBaselineModel (*)(std::uint64_t,
                                                      std::int64_t);
    const auto setup = core::make_paper_setup();
    for (const Factory factory : {&baselines::make_sonic_net,
                                  &baselines::make_sparse_net,
                                  &baselines::make_lenet_cifar}) {
        auto reference_model = factory(1234, baselines::kPaperStepUnitMacs);
        auto unit_model = factory(1234, baselines::kPaperStepUnitMacs);
        SCOPED_TRACE(unit_model.name());
        const auto reference = test::run_checkpointed_reference(
            setup.trace, setup.checkpointed_sim, reference_model,
            setup.events);
        baselines::CommitAtPickupPolicy policy;
        const auto unit = sim::Simulator(setup.trace, setup.checkpointed_sim)
                              .run(setup.events, unit_model, policy);
        EXPECT_GE(unit.processed_count(), reference.processed_count());
        EXPECT_LE(unit.processed_count(), reference.processed_count() + 5);
        EXPECT_NEAR(unit.iepmj() / reference.iepmj(), 1.0, 0.05);
        EXPECT_NEAR(unit.mean_event_latency_s() /
                        reference.mean_event_latency_s(),
                    1.0, 0.03);
    }
}

// --- Metrics plumbing ------------------------------------------------------

TEST(RecoveryMetrics, SimMetricsExposesTheRecoveryColumns) {
    sim::SimResult result;
    result.total_harvested_mj = 1.0;
    result.deaths = 3;
    result.recovery_energy_mj = 1.5;
    result.wasted_macs = 2000000;
    const auto metrics = exp::sim_metrics(result);
    EXPECT_EQ(metrics.at("deaths"), 3.0);
    EXPECT_EQ(metrics.at("recovery_mj"), 1.5);
    EXPECT_EQ(metrics.at("wasted_macs_m"), 2.0);
}

// --- exp::recovery_patch ---------------------------------------------------

TEST(RecoveryPatch, DerivesLabelsAndDims) {
    const auto none = exp::recovery_patch({});
    EXPECT_EQ(none.label, "rec-none");
    EXPECT_EQ(none.dims.at("recovery"), "none");

    exp::RecoveryCell ckpt;
    ckpt.config.enabled = true;
    ckpt.config.strategy = "checkpoint";
    ckpt.config.granularity = sim::CheckpointGranularity::kPerExit;
    EXPECT_EQ(exp::recovery_patch(ckpt).label, "rec-checkpoint-exit");

    exp::RecoveryCell restart;
    restart.config.enabled = true;
    restart.config.strategy = "restart";
    EXPECT_EQ(exp::recovery_patch(restart).label, "rec-restart");

    exp::RecoveryCell labeled = ckpt;
    labeled.label = "custom";
    const auto patch = exp::recovery_patch(labeled);
    EXPECT_EQ(patch.label, "rec-custom");
    EXPECT_EQ(patch.dims.at("recovery"), "custom");
}

TEST(RecoveryPatch, AppliesToMultiExitOnlyAndSetsTheDeathThreshold) {
    exp::RecoveryCell cell;
    cell.config.enabled = true;
    cell.config.strategy = "checkpoint";
    cell.death_threshold_mj = 0.25;
    const auto patch = exp::recovery_patch(cell);

    sim::SimConfig multi_exit;
    patch.apply(multi_exit);
    EXPECT_TRUE(multi_exit.recovery.enabled);
    EXPECT_EQ(multi_exit.recovery.strategy, "checkpoint");
    EXPECT_EQ(multi_exit.storage.death_threshold_mj, 0.25);

    // A checkpointed baseline's runtime is itself a recovery configuration,
    // which the axis would overwrite: the grid builder rejects the cross,
    // as the spec expansion does (BaselineSystemsCannotCrossARecoveryAxis).
    const auto setup = std::make_shared<const core::ExperimentSetup>(
        core::make_paper_setup(exp::quick_setup_config({})));
    exp::PaperSweep sweep;
    sweep.traces = {exp::TraceSpec("t", {}, setup)};
    sweep.patches = {patch};
    sweep.systems = {{"ours", exp::SystemKind::kOursStatic, 0, {}, ""}};
    EXPECT_EQ(exp::build_paper_scenarios(sweep).size(), 1u);
    for (const auto kind : {exp::SystemKind::kSonicNet,
                            exp::SystemKind::kSpArSeNet,
                            exp::SystemKind::kLeNetCifar}) {
        sweep.systems = {{"baseline", kind, 0, {}, ""}};
        EXPECT_THROW((void)exp::build_paper_scenarios(sweep),
                     util::ContractViolation);
    }
    // Crossed through cross_patches() the dim survives, and so does the
    // rejection.
    sweep.patches = exp::cross_patches({patch}, {exp::queue_patch(2)});
    EXPECT_THROW((void)exp::build_paper_scenarios(sweep),
                 util::ContractViolation);
}

TEST(RecoveryPatch, ValidatesAtConstruction) {
    exp::RecoveryCell unknown;
    unknown.config.enabled = true;
    unknown.config.strategy = "no-such-strategy";
    EXPECT_THROW((void)exp::recovery_patch(unknown), std::invalid_argument);

    // A death threshold on a disabled cell could never take effect.
    exp::RecoveryCell disabled;
    disabled.death_threshold_mj = 0.25;
    EXPECT_THROW((void)exp::recovery_patch(disabled),
                 util::ContractViolation);
}

// --- Spec sections and round-trips -----------------------------------------

std::string valid_spec() {
    return "[sweep]\n"
           "name = t\n"
           "[system]\n"
           "label = s\n"
           "kind = ours-policy\n"
           "policy = greedy\n";
}

void expect_parse_error(const std::string& text, const std::string& needle) {
    try {
        (void)exp::parse_experiment_spec(text, "spec.ini");
        FAIL() << "expected failure containing '" << needle << "'";
    } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(RecoverySpec, SectionsParseIntoRecoveryCells) {
    const auto spec = exp::parse_experiment_spec(
        valid_spec() + "[recovery.base]\nstrategy = none\n"
                       "[recovery.nvm]\nstrategy = checkpoint\n"
                       "granularity = exit\ncheckpoint_mj = 0.5\n"
                       "restore_mj = 0.25\nactive_power_mw = 0.1\n"
                       "death_threshold_mj = 0.3\n");
    ASSERT_EQ(spec.recoveries.size(), 2u);
    EXPECT_EQ(spec.recoveries[0].label, "base");
    EXPECT_FALSE(spec.recoveries[0].config.enabled);
    EXPECT_EQ(spec.recoveries[1].label, "nvm");
    EXPECT_TRUE(spec.recoveries[1].config.enabled);
    EXPECT_EQ(spec.recoveries[1].config.strategy, "checkpoint");
    EXPECT_EQ(spec.recoveries[1].config.granularity,
              sim::CheckpointGranularity::kPerExit);
    EXPECT_EQ(spec.recoveries[1].config.checkpoint_energy_mj, 0.5);
    EXPECT_EQ(spec.recoveries[1].config.restore_energy_mj, 0.25);
    EXPECT_EQ(spec.recoveries[1].config.active_power_mw, 0.1);
    EXPECT_EQ(spec.recoveries[1].death_threshold_mj, 0.3);
}

TEST(RecoverySpec, RejectsSchemaMistakesWithFileLineDiagnostics) {
    expect_parse_error(valid_spec() + "[recovery.x]\ngranularity = layer\n",
                       "requires 'strategy");
    expect_parse_error(valid_spec() + "[recovery.x]\nstrategy = nuclear\n",
                       "unknown recovery strategy 'nuclear'");
    expect_parse_error(
        valid_spec() + "[recovery.x]\nstrategy = checkpoint\n"
                       "granularity = everywhere\n",
        "granularity");
    expect_parse_error(
        valid_spec() + "[recovery.x]\nstrategy = restart\nwrite_mj = 1\n",
        "unknown key 'write_mj'");
    expect_parse_error(
        valid_spec() + "[recovery.x]\nstrategy = none\n"
                       "death_threshold_mj = 0.3\n",
        "no effect with 'strategy = none'");
    expect_parse_error(
        valid_spec() + "[recovery.x]\nstrategy = checkpoint\n"
                       "checkpoint_mj = -1\n",
        "non-negative");
    expect_parse_error(valid_spec() + "[recovery.x]\nstrategy = restart\n"
                                      "[recovery.x]\nstrategy = none\n",
                       "duplicate recovery label 'x'");
    expect_parse_error(valid_spec() + "[recovery.]\nstrategy = restart\n",
                       "requires a label after the dot");
}

TEST(RecoverySpec, BaselineSystemsCannotCrossARecoveryAxis) {
    const auto spec = exp::parse_experiment_spec(
        "[sweep]\nname = t\n[system]\nlabel = s\nkind = sonic\n"
        "[recovery.r]\nstrategy = restart\n");
    EXPECT_THROW((void)exp::expand_experiment(spec, {}),
                 std::invalid_argument);
}

TEST(RecoverySpec, RegisteredExperimentExpandsTheFullGrid) {
    const auto names = exp::experiment_names();
    ASSERT_NE(std::find(names.begin(), names.end(), "recovery-ablation"),
              names.end());
    EXPECT_FALSE(exp::experiment_description("recovery-ablation").empty());
    const auto experiment = exp::make_experiment("recovery-ablation");
    const auto specs = exp::build_experiment_scenarios(experiment, {});
    // 2 traces x 1 system x 2 deadlines x 5 recovery cells.
    ASSERT_EQ(specs.size(), 20u);
    EXPECT_EQ(specs[0].dims.at("recovery"), "none");
    EXPECT_NE(specs[0].id.find("rec-none"), std::string::npos);
    bool saw_restart = false;
    for (const auto& spec : specs) {
        saw_restart = saw_restart || spec.dims.at("recovery") == "restart";
    }
    EXPECT_TRUE(saw_restart);
}

// --- Thread and shard invariance of the new metrics ------------------------

std::vector<exp::ScenarioSpec> mini_recovery_grid() {
    const auto spec = exp::parse_experiment_spec(
        "[sweep]\n"
        "name = rec-mini\n"
        "metrics = deaths, wasted_macs_m, recovery_mj, processed\n"
        "[trace]\n"
        "label = tr\n"
        "duration_s = 600\n"
        "event_count = 12\n"
        "total_harvest_mj = 40\n"
        "[system]\n"
        "label = s\n"
        "kind = ours-policy\n"
        "policy = greedy\n"
        "[recovery.none]\n"
        "strategy = none\n"
        "[recovery.restart]\n"
        "strategy = restart\n"
        "active_power_mw = 0.02\n"
        "death_threshold_mj = 0.3\n"
        "[recovery.ckpt]\n"
        "strategy = checkpoint\n"
        "granularity = exit\n"
        "active_power_mw = 0.02\n"
        "death_threshold_mj = 0.3\n");
    return exp::expand_experiment(spec, {});
}

TEST(RecoveryInvariance, MetricsAreIdenticalForAnyThreadCount) {
    const auto specs = mini_recovery_grid();
    ASSERT_EQ(specs.size(), 3u);
    const auto serial = exp::run_sweep(specs, {1});
    const auto parallel = exp::run_sweep(specs, {3});
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].metrics, parallel[i].metrics) << specs[i].id;
        EXPECT_EQ(serial[i].metrics.count("deaths"), 1u);
        EXPECT_EQ(serial[i].metrics.count("wasted_macs_m"), 1u);
        EXPECT_EQ(serial[i].metrics.count("recovery_mj"), 1u);
    }
    // The failure-free baseline cell reports a quiet run; the restart cell
    // is the one modeling real intermittency.
    EXPECT_EQ(serial[0].metrics.at("deaths"), 0.0);
    EXPECT_EQ(serial[0].metrics.at("recovery_mj"), 0.0);
}

TEST(RecoveryInvariance, MetricsSurviveShardJournalAndMergeByteExactly) {
    const auto specs = mini_recovery_grid();
    const auto full = exp::run_sweep(specs, {2});

    const auto header_for = [&](const exp::ShardSpec& shard) {
        exp::JournalHeader header;
        header.experiment = "rec-mini";
        header.total_specs = specs.size();
        header.shard = shard;
        header.base_seed = exp::kDefaultBaseSeed;
        header.replicas = 1;
        return header;
    };
    std::vector<std::string> paths;
    for (int i = 0; i < 2; ++i) {
        const std::string path = test::scratch_dir() + "imx_recovery_shard_" +
                                 std::to_string(i) + ".jsonl";
        (void)exp::run_shard(specs, header_for({i, 2}), {1}, path,
                             /*resume=*/false);
        paths.push_back(path);
    }
    const auto merged =
        exp::merge_journal_outcomes(header_for({0, 1}), specs, paths);
    ASSERT_EQ(merged.size(), full.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
        // Bit-exact through the %.17g journal round-trip, including the
        // recovery columns.
        EXPECT_EQ(merged[i].metrics, full[i].metrics) << specs[i].id;
    }
}

}  // namespace
