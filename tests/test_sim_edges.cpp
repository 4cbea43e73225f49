// Edge-case and behavioural tests for the simulator and runtime that the
// main suites don't cover: wakeup accounting, charge-rate observation,
// commitment semantics, empty/degenerate inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/baseline_models.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace imx;

/// Two exits: exit 0 costs 0.25 MMAC, exit 1 0.5 MMAC more, as two
/// layers (the per-layer checkpoint units).
struct TinyModel final : sim::InferenceModel {
    [[nodiscard]] int num_exits() const override { return 2; }
    [[nodiscard]] std::int64_t exit_macs(int exit) const override {
        return exit == 0 ? 250000 : 750000;
    }
    [[nodiscard]] std::int64_t incremental_macs(int from_exit,
                                                int to_exit) const override {
        return exit_macs(to_exit) - (from_exit < 0 ? 0 : exit_macs(from_exit));
    }
    [[nodiscard]] std::vector<std::int64_t> segment_macs(
        int from_exit, int to_exit) const override {
        if (from_exit < 0 && to_exit == 1) return {250000, 500000};
        return {incremental_macs(from_exit, to_exit)};
    }
    [[nodiscard]] sim::ExitOutcome evaluate(int, int) override {
        return {true, 0.5};
    }
    [[nodiscard]] double model_bytes() const override { return 0.0; }
};

sim::SimConfig rich_config() {
    sim::SimConfig cfg;
    cfg.storage.capacity_mj = 50.0;
    cfg.storage.initial_mj = 50.0;
    cfg.storage.leakage_mw = 0.0;
    cfg.mcu.mmacs_per_second = 1.0;
    return cfg;
}

TEST(SimulatorEdges, NoEventsYieldsEmptyResult) {
    const auto trace = energy::PowerTrace::constant(1.0, 100.0, 1.0);
    sim::Simulator simulator(trace, rich_config());
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    sim::GreedyAffordablePolicy policy;
    const auto r = simulator.run({}, model, policy);
    EXPECT_EQ(r.total_events(), 0);
    EXPECT_EQ(r.processed_count(), 0);
    EXPECT_NEAR(r.accuracy_all_events(), 0.0, 1e-12);
    EXPECT_EQ(r.mean_event_latency_s(), 0.0);
}

TEST(SimulatorEdges, EventAfterTraceEndIsMissed) {
    const auto trace = energy::PowerTrace::constant(1.0, 50.0, 1.0);
    sim::Simulator simulator(trace, rich_config());
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    sim::GreedyAffordablePolicy policy;
    std::vector<sim::Event> events = {{0, 10.0}, {1, 49.9}};
    const auto r = simulator.run(events, model, policy);
    EXPECT_TRUE(r.records[0].processed);
    // Event 1 arrives 0.1 s before the trace ends; its compute cannot finish.
    EXPECT_FALSE(r.records[1].processed);
}

TEST(SimulatorEdges, WakeupEnergyIsCharged) {
    auto cfg = rich_config();
    cfg.mcu.wakeup_energy_mj = 0.5;
    const auto trace = energy::PowerTrace::constant(0.0, 100.0, 1.0);
    sim::Simulator simulator(trace, cfg);
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    sim::GreedyAffordablePolicy policy;
    std::vector<sim::Event> events = {{0, 5.0}};
    const auto r = simulator.run(events, model, policy);
    ASSERT_TRUE(r.records[0].processed);
    // 0.1 MMAC * 1.5 + 0.5 wakeup.
    EXPECT_NEAR(r.records[0].energy_spent_mj, 0.15 + 0.5, 1e-9);
}

TEST(SimulatorEdges, UnsortedEventsRejected) {
    const auto trace = energy::PowerTrace::constant(1.0, 50.0, 1.0);
    sim::Simulator simulator(trace, rich_config());
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    sim::GreedyAffordablePolicy policy;
    std::vector<sim::Event> events = {{0, 20.0}, {1, 10.0}};
    EXPECT_THROW((void)simulator.run(events, model, policy),
                 util::ContractViolation);
}

TEST(SimulatorEdges, PolicySeesChargingRateInState) {
    // A probe policy that records the observed state and always waits;
    // the charge-rate EMA must reflect the harvest level.
    struct Probe final : sim::ExitPolicy {
        double last_rate = -1.0;
        double last_level = -1.0;
        int select_exit(const sim::EnergyState& s,
                        const sim::InferenceModel&) override {
            last_rate = s.charge_rate_mw;
            last_level = s.level_mj;
            return -1;  // keep waiting
        }
        bool continue_inference(const sim::EnergyState&,
                                const sim::InferenceModel&, int,
                                double) override {
            return false;
        }
    };
    auto cfg = rich_config();
    cfg.storage.initial_mj = 0.0;
    cfg.storage.efficiency_max = 1.0;
    cfg.storage.efficiency_half_power_mw = 0.0;
    const auto trace = energy::PowerTrace::constant(0.04, 300.0, 1.0);
    sim::Simulator simulator(trace, cfg);
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    Probe probe;
    std::vector<sim::Event> events = {{0, 150.0}};
    (void)simulator.run(events, model, probe);
    // After 150 s of constant 0.04 mW harvesting, the EMA is close to it.
    EXPECT_NEAR(probe.last_rate, 0.04, 0.01);
    EXPECT_GT(probe.last_level, 0.0);
}

TEST(SimulatorEdges, CommittedExitIsHonoredOnceAffordable) {
    // A policy that commits to the deepest exit immediately; the simulator
    // must wait and then run exactly that exit.
    struct CommitDeep final : sim::ExitPolicy {
        int select_exit(const sim::EnergyState&,
                        const sim::InferenceModel& m) override {
            return m.num_exits() - 1;
        }
        bool continue_inference(const sim::EnergyState&,
                                const sim::InferenceModel&, int,
                                double) override {
            return false;
        }
    };
    auto cfg = rich_config();
    cfg.storage.initial_mj = 0.0;
    cfg.storage.efficiency_max = 1.0;
    cfg.storage.efficiency_half_power_mw = 0.0;
    cfg.mcu.wakeup_energy_mj = 0.0;
    const auto trace = energy::PowerTrace::constant(0.05, 400.0, 1.0);
    sim::Simulator simulator(trace, cfg);
    const auto desc = core::make_paper_network_desc();
    core::OracleInferenceModel model(desc, core::reference_nonuniform_policy(),
                                     {60.0, 68.0, 70.0});
    CommitDeep policy;
    std::vector<sim::Event> events = {{0, 1.0}};
    const auto r = simulator.run(events, model, policy);
    ASSERT_TRUE(r.records[0].processed);
    EXPECT_EQ(r.records[0].exit_taken, 2);
    // Waited to buffer ~1 mJ at 0.05 mW: at least ~15 s of latency.
    EXPECT_GT(r.records[0].completion_time_s - r.records[0].arrival_time_s,
              10.0);
}

TEST(SimulatorEdges, ObserveMissedReachesPolicy) {
    struct CountMisses final : sim::ExitPolicy {
        int misses = 0;
        int select_exit(const sim::EnergyState&,
                        const sim::InferenceModel&) override {
            return 0;
        }
        bool continue_inference(const sim::EnergyState&,
                                const sim::InferenceModel&, int,
                                double) override {
            return false;
        }
        void observe_missed() override { ++misses; }
    };
    auto cfg = rich_config();
    cfg.mcu.mmacs_per_second = 0.001;  // 0.1 MMAC takes 100 s
    const auto trace = energy::PowerTrace::constant(1.0, 300.0, 1.0);
    sim::Simulator simulator(trace, cfg);
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    CountMisses policy;
    std::vector<sim::Event> events = {{0, 1.0}, {1, 5.0}, {2, 9.0}};
    const auto r = simulator.run(events, model, policy);
    EXPECT_EQ(r.missed_count(), 2);
    EXPECT_EQ(policy.misses, 2);
}

TEST(SimulatorEdges, HopsCountIncrementalAdvances) {
    struct ContinueOnce final : sim::ExitPolicy {
        int select_exit(const sim::EnergyState&,
                        const sim::InferenceModel&) override {
            return 0;
        }
        bool continue_inference(const sim::EnergyState&,
                                const sim::InferenceModel&, int current,
                                double) override {
            return current == 0;  // advance exactly once
        }
    };
    const auto trace = energy::PowerTrace::constant(1.0, 200.0, 1.0);
    sim::Simulator simulator(trace, rich_config());
    const auto desc = core::make_paper_network_desc();
    core::OracleInferenceModel model(desc, core::reference_nonuniform_policy(),
                                     {60.0, 68.0, 70.0});
    ContinueOnce policy;
    std::vector<sim::Event> events = {{0, 5.0}};
    const auto r = simulator.run(events, model, policy);
    ASSERT_TRUE(r.records[0].processed);
    EXPECT_EQ(r.records[0].exit_taken, 1);
    EXPECT_EQ(r.records[0].hops, 2);
    // Energy: exit-0 full cost + incremental cost to exit 1 (+ wakeup).
    const double expected =
        sim::macs_energy_mj({0, 0, 0, 1.5}, model.exit_macs(0)) +
        sim::macs_energy_mj({0, 0, 0, 1.5}, model.incremental_macs(0, 1)) +
        rich_config().mcu.wakeup_energy_mj;
    EXPECT_NEAR(r.records[0].energy_spent_mj, expected, 1e-9);
}

TEST(SimulatorEdges, HopAfterAUnitThatEndsInItsStartStepStartsAtDetection) {
    // Exit 0 (0.25 MMAC) takes 0.25 s, so it ends inside the step it starts
    // in; the advance to exit 1 (0.5 MMAC more) takes 0.5 s. Every quantity
    // is exact in binary.
    struct HopOnce final : sim::ExitPolicy {
        int select_exit(const sim::EnergyState&,
                        const sim::InferenceModel&) override {
            return 0;
        }
        bool continue_inference(const sim::EnergyState&,
                                const sim::InferenceModel&, int current,
                                double) override {
            return current == 0;
        }
    };
    auto cfg = rich_config();
    cfg.mcu.energy_per_mmac_mj = 1.5;
    cfg.mcu.wakeup_energy_mj = 0.25;
    cfg.mcu.wakeup_time_s = 0.0;
    const auto trace = energy::PowerTrace::constant(1.0, 100.0, 1.0);
    sim::Simulator simulator(trace, cfg);
    TinyModel model;
    HopOnce policy;
    const auto r = simulator.run(std::vector<sim::Event>{{0, 5.0}}, model,
                                 policy);
    ASSERT_TRUE(r.records[0].processed);
    EXPECT_EQ(r.records[0].exit_taken, 1);
    EXPECT_EQ(r.records[0].hops, 2);
    EXPECT_EQ(r.records[0].inference_start_s, 5.0);
    // Exit 0 runs 5.0-5.25 s, but its completion is detected only at the
    // 6 s step, and the hop starts there: 6.0 + 0.5 s. Chaining from the
    // true finish time would give 5.75 s; the 0.75 s gap is the latency
    // overstatement docs/recovery.md describes.
    EXPECT_EQ(r.records[0].completion_time_s, 6.5);
    EXPECT_EQ(r.records[0].macs, 750000);
    // 0.25 MMAC x 1.5 + 0.25 wakeup, then 0.5 MMAC x 1.5.
    EXPECT_EQ(r.records[0].energy_spent_mj, 0.625 + 0.75);
    // Work counters. Steps 0-4 are one idle drain; the full steps are 5
    // (select exit 0, start its unit), 6 (evaluate exit 0, continue, start
    // the hop's unit) and 7 (evaluate exit 1, the last exit, so no
    // continue_inference call); then the run stops early.
    EXPECT_EQ(r.counters.runs, 1u);
    EXPECT_EQ(r.counters.drained_steps, 5u);
    EXPECT_EQ(r.counters.full_steps, 3u);
    EXPECT_EQ(r.counters.decisions, 2u);
    EXPECT_EQ(r.counters.unit_starts, 2u);
    EXPECT_EQ(r.counters.evaluations, 2u);
    EXPECT_EQ(r.counters.queue_pushes, 0u);
    EXPECT_EQ(r.counters.queue_pops, 0u);
}

TEST(SimulatorEdges, StepCountersCoverEveryStepOfARunThatDoesNotStopEarly) {
    const auto trace = energy::PowerTrace::constant(1.0, 50.0, 1.0);
    const sim::SimConfig cfg = rich_config();
    sim::Simulator simulator(trace, cfg);
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    sim::GreedyAffordablePolicy policy;
    std::vector<sim::Event> events = {{0, 10.0}, {1, 49.9}};
    const auto r = simulator.run(events, model, policy);
    // Event 1 is still executing when the trace ends, so every step runs.
    ASSERT_EQ(r.in_flight, 1);
    std::uint64_t trace_steps = 0;
    for (double now = 0.0; now < trace.duration(); now += cfg.dt_s) {
        ++trace_steps;
    }
    EXPECT_EQ(r.counters.full_steps + r.counters.drained_steps, trace_steps);
    EXPECT_GT(r.counters.drained_steps, 0u);
    EXPECT_EQ(r.counters.unit_starts, 2u);
    EXPECT_EQ(r.counters.evaluations, 1u);
}

// --- quiet-stretch drain boundaries ----------------------------------------
//
// The simulator runs harvest-only stretches in one loop that stops a step
// before the level reaches the state's wake level, at an arrival's step, and
// at a wait-limit drop's step. Each test below puts one of those boundaries
// exactly on a step and pins the step-at-a-time outcome by hand. Unit
// converter efficiency and no leakage make a step's harvest add its sample
// to the level exactly; 1 mJ per MMAC at 1 MMAC/s makes a 0.25 MMAC unit
// cost 0.25 mJ and run 0.25 s. Every level and time is exact in binary.

sim::SimConfig exact_config() {
    sim::SimConfig cfg;
    cfg.storage.capacity_mj = 50.0;
    cfg.storage.initial_mj = 0.0;
    cfg.storage.leakage_mw = 0.0;
    cfg.storage.efficiency_max = 1.0;
    cfg.storage.efficiency_half_power_mw = 0.0;
    cfg.mcu.energy_per_mmac_mj = 1.0;
    cfg.mcu.mmacs_per_second = 1.0;
    cfg.mcu.wakeup_energy_mj = 0.25;
    cfg.mcu.wakeup_time_s = 0.0;
    return cfg;
}

/// Commits to a fixed exit at once and never hops (no commit floor).
struct CommitTo final : sim::ExitPolicy {
    explicit CommitTo(int exit) : exit(exit) {}
    int select_exit(const sim::EnergyState&,
                    const sim::InferenceModel&) override {
        return exit;
    }
    bool continue_inference(const sim::EnergyState&,
                            const sim::InferenceModel&, int,
                            double) override {
        return false;
    }
    int exit;
};

std::uint64_t steps_of(const sim::SimResult& r) {
    return r.counters.full_steps + r.counters.drained_steps;
}

TEST(SimulatorEdges, RebootHappensAtTheStepTheLevelReachesTheWakeLevel) {
    // Exit 1 runs as two checkpointed layer units (0.25 + 0.5 MMAC). The
    // first unit (0.25 + 0.25 wakeup) takes the whole 0.5 mJ at step 0 and
    // ends at 0.75 s; the dark steps 1-2 stall the second unit, and at step
    // 2 the empty buffer sits below the 0.125 mJ death threshold, so the
    // device dies. Dead, it needs max(on 1.0, wakeup 0.25 + restore 0.25) =
    // 1.0 mJ: 0.25 mJ a step from step 3 reaches exactly 1.0 at step 6.
    // There it reboots (0.5 mJ), resumes from the checkpoint and starts the
    // second unit with the remaining 0.5 mJ: 6.0 + 0.5 s.
    auto cfg = exact_config();
    cfg.storage.initial_mj = 0.5;
    cfg.storage.on_threshold_mj = 1.0;
    cfg.storage.death_threshold_mj = 0.125;
    cfg.recovery.enabled = true;
    cfg.recovery.strategy = "checkpoint";
    cfg.recovery.granularity = sim::CheckpointGranularity::kPerLayer;
    cfg.recovery.checkpoint_energy_mj = 0.0;
    cfg.recovery.restore_energy_mj = 0.25;
    std::vector<double> samples(3, 0.0);
    samples.insert(samples.end(), 17, 0.25);
    const energy::PowerTrace trace(1.0, samples);
    sim::Simulator simulator(trace, cfg);
    TinyModel model;
    CommitTo policy(1);
    const auto r =
        simulator.run(std::vector<sim::Event>{{0, 0.5}}, model, policy);
    ASSERT_TRUE(r.records[0].processed);
    EXPECT_EQ(r.deaths, 1);
    EXPECT_EQ(r.wasted_macs, 0);
    EXPECT_EQ(r.records[0].exit_taken, 1);
    EXPECT_EQ(r.records[0].inference_start_s, 0.5);
    EXPECT_EQ(r.records[0].completion_time_s, 6.5);
    EXPECT_EQ(r.records[0].macs, 750000);
    // 0.5 first unit + 0.25 reboot wakeup + 0.5 second unit.
    EXPECT_EQ(r.records[0].energy_spent_mj, 1.25);
    EXPECT_EQ(r.recovery_energy_mj, 0.25);
    EXPECT_EQ(r.counters.unit_starts, 2u);
    // Steps 0-7; the second unit's completion at step 7 ends the run.
    EXPECT_EQ(steps_of(r), 8u);
}

TEST(SimulatorEdges, FirstUnitStartsAtTheStepTheLevelReachesCostPlusCommit) {
    // Exit 0 is one per-exit checkpoint unit: 0.25 compute + 0.25 wakeup,
    // gated on 0.25 more for its commit write. 0.25 mJ a step reaches the
    // 0.75 mJ gate exactly at step 2, so the unit starts at 2.0 s, ends at
    // 2.25 s, and its commit and evaluation run at step 3.
    auto cfg = exact_config();
    cfg.recovery.enabled = true;
    cfg.recovery.strategy = "checkpoint";
    cfg.recovery.granularity = sim::CheckpointGranularity::kPerExit;
    cfg.recovery.checkpoint_energy_mj = 0.25;
    const auto trace = energy::PowerTrace::constant(0.25, 20.0, 1.0);
    sim::Simulator simulator(trace, cfg);
    TinyModel model;
    CommitTo policy(0);
    const auto r =
        simulator.run(std::vector<sim::Event>{{0, 0.5}}, model, policy);
    ASSERT_TRUE(r.records[0].processed);
    EXPECT_EQ(r.records[0].exit_taken, 0);
    EXPECT_EQ(r.records[0].inference_start_s, 2.0);
    EXPECT_EQ(r.records[0].completion_time_s, 2.25);
    EXPECT_EQ(r.records[0].energy_spent_mj, 0.5);
    EXPECT_EQ(r.recovery_energy_mj, 0.25);
    EXPECT_EQ(r.deaths, 0);
    EXPECT_EQ(steps_of(r), 4u);
}

TEST(SimulatorEdges, ArrivalsInsideAWaitQueueAndDropAtTheirSteps) {
    // Greedy waits while the level is below its 0.25 mJ floor (exit 0's
    // cost); 1/32 mJ a step reaches it at step 7, where it commits to exit
    // 0 and then charges to 0.5 mJ (compute + wakeup) at step 15. Inside
    // that wait, event 1 (step 3) takes the one queue slot and event 2
    // (step 5) finds the queue full and is dropped. Event 0 ends at 15.25 s
    // and is detected at step 16; step 17 pops event 1 from an empty buffer
    // topped up twice (1/16 mJ), which repeats the same 16-step wait.
    auto cfg = exact_config();
    cfg.queue_capacity = 1;
    const auto trace = energy::PowerTrace::constant(0.03125, 60.0, 1.0);
    sim::Simulator simulator(trace, cfg);
    TinyModel model;
    sim::GreedyAffordablePolicy policy;
    const auto r = simulator.run(
        std::vector<sim::Event>{{0, 0.5}, {1, 3.5}, {2, 5.5}}, model, policy);
    EXPECT_EQ(r.dropped, 1);
    EXPECT_EQ(r.in_flight, 0);
    ASSERT_TRUE(r.records[0].processed);
    EXPECT_EQ(r.records[0].exit_taken, 0);
    EXPECT_EQ(r.records[0].inference_start_s, 15.0);
    EXPECT_EQ(r.records[0].completion_time_s, 15.25);
    EXPECT_EQ(r.records[0].energy_spent_mj, 0.5);
    ASSERT_TRUE(r.records[1].processed);
    EXPECT_EQ(r.records[1].inference_start_s, 31.0);
    EXPECT_EQ(r.records[1].completion_time_s, 31.25);
    EXPECT_FALSE(r.records[2].processed);
    EXPECT_EQ(r.counters.queue_pushes, 1u);
    EXPECT_EQ(r.counters.queue_pops, 1u);
    EXPECT_EQ(steps_of(r), 33u);
}

TEST(SimulatorEdges, WaitLimitDropInsideAWaitFreesTheDeviceAtItsStep) {
    // A 1.0 mJ safety margin puts greedy's floor at 1.25 mJ, far above the
    // 1/16 mJ-a-step income, so event 0 waits uncommitted until its 3 s
    // wait limit passes: 4.0 - 0.5 > 3 at step 4, which drops it. The
    // device is free again at step 5, where a 2 mJ burst lets event 1 run
    // exit 1 (0.75 + 0.25 wakeup) at once. Dropped a step late, event 0
    // would still hold the device at step 5 and event 1 would be lost.
    auto cfg = exact_config();
    cfg.deadline_s = 3.0;
    std::vector<double> samples(5, 0.0625);
    samples.push_back(2.0);
    samples.insert(samples.end(), 10, 0.0);
    const energy::PowerTrace trace(1.0, samples);
    sim::Simulator simulator(trace, cfg);
    TinyModel model;
    sim::GreedyAffordablePolicy policy(1.0);
    const auto r = simulator.run(std::vector<sim::Event>{{0, 0.5}, {1, 5.5}},
                                 model, policy);
    EXPECT_FALSE(r.records[0].processed);
    ASSERT_TRUE(r.records[1].processed);
    EXPECT_EQ(r.records[1].exit_taken, 1);
    EXPECT_EQ(r.records[1].inference_start_s, 5.5);
    EXPECT_EQ(r.records[1].completion_time_s, 6.25);
    EXPECT_EQ(r.records[1].energy_spent_mj, 1.0);
    EXPECT_EQ(r.in_flight, 0);
    EXPECT_EQ(steps_of(r), 7u);
}

TEST(SimulatorEdges, TraceEndingMidWaitLeavesTheJobInFlight) {
    // Greedy's 1.25 mJ floor is never reached on 10 s of 1/16 mJ a step:
    // the job picked up at step 2 waits until the trace ends.
    const auto trace = energy::PowerTrace::constant(0.0625, 10.0, 1.0);
    sim::Simulator simulator(trace, exact_config());
    TinyModel model;
    sim::GreedyAffordablePolicy policy(1.0);
    const auto r =
        simulator.run(std::vector<sim::Event>{{0, 2.5}}, model, policy);
    EXPECT_FALSE(r.records[0].processed);
    EXPECT_EQ(r.in_flight, 1);
    EXPECT_EQ(r.counters.unit_starts, 0u);
    EXPECT_EQ(steps_of(r), 10u);
}

TEST(SimulatorEdges, CommitBelowThePromisedFloorFailsTheContract) {
    // A policy that promises to wait below 1.0 mJ but commits at any level:
    // the step that picks the event up (0.25 mJ) catches the broken promise.
    struct Liar final : sim::ExitPolicy {
        int select_exit(const sim::EnergyState&,
                        const sim::InferenceModel&) override {
            return 0;
        }
        bool continue_inference(const sim::EnergyState&,
                                const sim::InferenceModel&, int,
                                double) override {
            return false;
        }
        [[nodiscard]] double commit_floor_mj(
            const sim::EnergyState&,
            const sim::InferenceModel&) const override {
            return 1.0;
        }
    };
    const auto trace = energy::PowerTrace::constant(0.25, 10.0, 1.0);
    sim::Simulator simulator(trace, exact_config());
    TinyModel model;
    Liar policy;
    EXPECT_THROW((void)simulator.run(std::vector<sim::Event>{{0, 0.5}}, model,
                                     policy),
                 util::ContractViolation);
}

}  // namespace
