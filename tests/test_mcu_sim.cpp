// MCU model and intermittent simulator tests, including the Eq. 1 / Eq. 5
// invariants as property sweeps.
#include <gtest/gtest.h>

#include "baselines/baseline_models.hpp"
#include "mcu/device.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/event_gen.hpp"
#include "sim/metrics.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;

TEST(McuModel, EnergyAndTimeLinearInMacs) {
    const mcu::McuModel dev(mcu::McuConfig{});
    // Compute energy as the simulator charges it: MMACs times the per-MMAC
    // constant.
    const auto energy_mj = [&dev](std::int64_t macs) {
        return static_cast<double>(macs) / 1e6 *
               dev.config().energy_per_mmac_mj;
    };
    EXPECT_NEAR(energy_mj(1000000), 1.5, 1e-9);  // paper constant
    EXPECT_NEAR(energy_mj(2000000), 3.0, 1e-9);
    EXPECT_NEAR(dev.compute_time(1000000),
                1.0 / dev.config().mmacs_per_second, 1e-9);
    EXPECT_EQ(energy_mj(0), 0.0);
}

TEST(McuModel, CheckpointCountIsCeilDiv) {
    mcu::McuConfig cfg;
    cfg.macs_per_task = 1000;
    const mcu::McuModel dev(cfg);
    EXPECT_EQ(dev.checkpoint_count(1), 1);
    EXPECT_EQ(dev.checkpoint_count(1000), 1);
    EXPECT_EQ(dev.checkpoint_count(1001), 2);
    EXPECT_EQ(dev.checkpoint_count(0), 0);
}

TEST(McuModel, CheckpointedCostsExceedPlainCosts) {
    // A checkpointed run pays one FRAM write per task on top of its compute.
    const mcu::McuModel dev(mcu::McuConfig{});
    const double compute_mj = 0.5 * dev.config().energy_per_mmac_mj;
    const double writes_mj = static_cast<double>(dev.checkpoint_count(500000)) *
                             dev.config().checkpoint_energy_mj;
    EXPECT_GT(compute_mj + writes_mj, compute_mj);
}

TEST(EventGen, CountSortedAndInRange) {
    for (const char* source : {"uniform", "poisson", "bursty"}) {
        const auto events = sim::generate_arrivals(source, {100, 500.0, 42});
        ASSERT_EQ(events.size(), 100u);
        for (std::size_t i = 0; i < events.size(); ++i) {
            EXPECT_GE(events[i].time_s, 0.0);
            EXPECT_LT(events[i].time_s, 500.0);
            EXPECT_EQ(events[i].id, static_cast<int>(i));
            if (i > 0) {
                EXPECT_GE(events[i].time_s, events[i - 1].time_s);
            }
        }
    }
}

TEST(EventGen, DeterministicBySeed) {
    for (const char* source : {"uniform", "poisson", "bursty"}) {
        const auto a = sim::generate_arrivals(source, {50, 100.0, 7});
        const auto b = sim::generate_arrivals(source, {50, 100.0, 7});
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].time_s, b[i].time_s);
        }
    }
}

// --- Metrics ---------------------------------------------------------------

sim::SimResult make_result(int processed_correct, int processed_wrong,
                           int missed, double harvested) {
    sim::SimResult r;
    r.total_harvested_mj = harvested;
    int id = 0;
    for (int i = 0; i < processed_correct; ++i) {
        sim::EventRecord rec;
        rec.event_id = id++;
        rec.processed = true;
        rec.correct = true;
        rec.exit_taken = 0;
        rec.arrival_time_s = id;
        rec.completion_time_s = id + 2.0;
        rec.inference_start_s = id + 1.0;
        rec.energy_spent_mj = 0.5;
        rec.macs = 1000;
        r.records.push_back(rec);
    }
    for (int i = 0; i < processed_wrong; ++i) {
        sim::EventRecord rec;
        rec.event_id = id++;
        rec.processed = true;
        rec.correct = false;
        rec.exit_taken = 1;
        rec.arrival_time_s = id;
        rec.completion_time_s = id + 4.0;
        rec.inference_start_s = id + 1.0;
        rec.energy_spent_mj = 1.0;
        rec.macs = 2000;
        r.records.push_back(rec);
    }
    for (int i = 0; i < missed; ++i) {
        sim::EventRecord rec;
        rec.event_id = id++;
        rec.arrival_time_s = id;
        r.records.push_back(rec);
    }
    return r;
}

TEST(Metrics, CountsAndAccuracies) {
    const auto r = make_result(30, 10, 60, 100.0);
    EXPECT_EQ(r.total_events(), 100);
    EXPECT_EQ(r.processed_count(), 40);
    EXPECT_EQ(r.missed_count(), 60);
    EXPECT_EQ(r.correct_count(), 30);
    EXPECT_NEAR(r.accuracy_all_events(), 0.30, 1e-12);
    EXPECT_NEAR(r.accuracy_processed(), 0.75, 1e-12);
}

class IepmjIdentity : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(IepmjIdentity, Eq1HoldsExactly) {
    // Paper Eq. 1: IEpmJ == N / E_total * avg-accuracy-over-all-events.
    const auto [good, bad, missed] = GetParam();
    const auto r = make_result(good, bad, missed, 57.5);
    const double lhs = r.iepmj();
    const double rhs = static_cast<double>(r.total_events()) /
                       r.total_harvested_mj * r.accuracy_all_events();
    EXPECT_NEAR(lhs, rhs, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, IepmjIdentity,
    ::testing::Values(std::make_tuple(10, 0, 0), std::make_tuple(0, 10, 5),
                      std::make_tuple(25, 25, 50), std::make_tuple(1, 99, 0),
                      std::make_tuple(200, 100, 200)));

TEST(Metrics, LatenciesAndHistogram) {
    const auto r = make_result(3, 2, 1, 10.0);
    EXPECT_NEAR(r.mean_event_latency_s(), (3 * 2.0 + 2 * 4.0) / 5.0, 1e-12);
    EXPECT_NEAR(r.mean_inference_latency_s(), (3 * 1.0 + 2 * 3.0) / 5.0, 1e-12);
    EXPECT_NEAR(r.mean_inference_macs(), (3 * 1000.0 + 2 * 2000.0) / 5.0, 1e-9);
    const auto hist = r.exit_histogram(2);
    EXPECT_EQ(hist[0], 3);
    EXPECT_EQ(hist[1], 2);
}

TEST(Metrics, EnergyFeasibilityCheck) {
    auto r = make_result(4, 0, 0, 1.0);  // spends 2.0 mJ, harvested 1.0
    EXPECT_FALSE(r.energy_feasible(0.0));
    EXPECT_TRUE(r.energy_feasible(1.5));
}

// --- Simulator ---------------------------------------------------------------

sim::SimConfig abundant_config() {
    sim::SimConfig cfg;
    cfg.storage.capacity_mj = 100.0;
    cfg.storage.initial_mj = 100.0;
    cfg.storage.on_threshold_mj = 0.1;
    cfg.storage.leakage_mw = 0.0;
    cfg.mcu.mmacs_per_second = 10.0;  // fast compute
    return cfg;
}

TEST(Simulator, AbundantEnergyProcessesEverySpacedEvent) {
    const auto trace = energy::PowerTrace::constant(1.0, 1000.0, 1.0);
    sim::Simulator simulator(trace, abundant_config());
    auto model = baselines::FixedBaselineModel("m", 0.1, 100.0, 1.0);
    // Events spaced far apart relative to busy time.
    std::vector<sim::Event> events;
    for (int i = 0; i < 20; ++i) events.push_back({i, 10.0 + i * 40.0});
    sim::GreedyAffordablePolicy policy;
    const auto r = simulator.run(events, model, policy);
    EXPECT_EQ(r.processed_count(), 20);
    EXPECT_EQ(r.correct_count(), 20);  // accuracy 100 %
    EXPECT_TRUE(r.energy_feasible(100.0));
}

TEST(Simulator, BackToBackArrivalsAreMissedWhileBusy) {
    const auto trace = energy::PowerTrace::constant(1.0, 200.0, 1.0);
    auto cfg = abundant_config();
    cfg.mcu.mmacs_per_second = 0.01;  // 0.1 MMAC takes 10 s
    sim::Simulator simulator(trace, cfg);
    auto model = baselines::FixedBaselineModel("m", 0.1, 100.0, 1.0);
    std::vector<sim::Event> events = {{0, 10.0}, {1, 12.0}, {2, 14.0},
                                      {3, 100.0}};
    sim::GreedyAffordablePolicy policy;
    const auto r = simulator.run(events, model, policy);
    EXPECT_TRUE(r.records[0].processed);
    EXPECT_FALSE(r.records[1].processed);  // arrived during event 0 compute
    EXPECT_FALSE(r.records[2].processed);
    EXPECT_TRUE(r.records[3].processed);
}

TEST(Simulator, ScarceEnergyForcesWaitThenRun) {
    // 0.02 mW harvest; inference needs 0.15 mJ -> several seconds of wait.
    const auto trace = energy::PowerTrace::constant(0.02, 500.0, 1.0);
    sim::SimConfig cfg = abundant_config();
    cfg.storage.initial_mj = 0.0;
    cfg.storage.efficiency_max = 1.0;
    cfg.storage.efficiency_half_power_mw = 0.0;
    cfg.mcu.wakeup_energy_mj = 0.0;
    sim::Simulator simulator(trace, cfg);
    auto model = baselines::FixedBaselineModel("m", 0.1, 100.0, 1.0);
    std::vector<sim::Event> events = {{0, 1.0}};
    sim::GreedyAffordablePolicy policy;
    const auto r = simulator.run(events, model, policy);
    ASSERT_TRUE(r.records[0].processed);
    // 0.15 mJ at 0.02 mW needs ~7.5 s of charging after arrival.
    EXPECT_GT(r.records[0].completion_time_s - r.records[0].arrival_time_s, 5.0);
    EXPECT_TRUE(r.energy_feasible(0.0));
}

TEST(Simulator, DeadlineDropsSlowJobs) {
    const auto trace = energy::PowerTrace::constant(0.001, 400.0, 1.0);
    sim::SimConfig cfg = abundant_config();
    cfg.storage.initial_mj = 0.0;
    cfg.deadline_s = 20.0;
    sim::Simulator simulator(trace, cfg);
    auto model = baselines::FixedBaselineModel("m", 1.0, 100.0, 1.0);
    std::vector<sim::Event> events = {{0, 1.0}, {1, 100.0}};
    sim::GreedyAffordablePolicy policy;
    const auto r = simulator.run(events, model, policy);
    EXPECT_FALSE(r.records[0].processed);  // could never afford 1.5 mJ
    EXPECT_FALSE(r.records[1].processed);
    EXPECT_EQ(r.missed_count(), 2);
}

TEST(Simulator, CheckpointedModeCompletesAcrossPowerCycles) {
    // Square wave: 0.1 mW for 20 s, off for 20 s. A 2-MFLOP job (3 mJ+)
    // drains faster than it harvests, so it must span several power cycles.
    const auto trace = energy::PowerTrace::square_wave(0.1, 40.0, 0.5, 2000.0, 1.0);
    sim::SimConfig cfg;
    cfg.storage.capacity_mj = 1.0;
    cfg.storage.initial_mj = 0.0;
    cfg.storage.on_threshold_mj = 0.3;
    cfg.storage.efficiency_max = 1.0;
    cfg.storage.efficiency_half_power_mw = 0.0;
    cfg.mcu.mmacs_per_second = 0.2;
    sim::Simulator simulator(trace, baselines::checkpointed_sim_config(cfg));
    auto model = baselines::FixedBaselineModel("sonic", 2.0, 100.0, 1.0);
    std::vector<sim::Event> events = {{0, 1.0}};
    baselines::CommitAtPickupPolicy policy;
    const auto r = simulator.run(events, model, policy);
    ASSERT_TRUE(r.records[0].processed);
    // Must have spanned multiple power cycles: longer than one on-period.
    EXPECT_GT(r.records[0].completion_time_s, 40.0);
    EXPECT_GE(r.records[0].energy_spent_mj, 3.0);  // compute + overheads
    EXPECT_TRUE(r.energy_feasible(0.0));
}

}  // namespace
