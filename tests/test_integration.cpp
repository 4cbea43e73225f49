// End-to-end integration tests: the canonical experiment setup and the full
// paper pipeline (setup -> deploy -> simulate -> metrics), headline
// orderings and reproducibility.
#include <gtest/gtest.h>

#include "baselines/baseline_models.hpp"
#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace imx;

sim::SimResult run_ours_static(const core::ExperimentSetup& setup) {
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::GreedyAffordablePolicy policy;
    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
    return simulator.run(setup.events, model, policy);
}

sim::SimResult run_baseline(const core::ExperimentSetup& setup,
                            baselines::FixedBaselineModel model) {
    baselines::CommitAtPickupPolicy policy;
    sim::Simulator simulator(setup.trace, setup.checkpointed_sim);
    return simulator.run(setup.events, model, policy);
}

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

TEST(Integration, EventAccountingAndFeasibilityInvariants) {
    const auto setup = core::make_paper_setup();
    const auto r = run_ours_static(setup);
    EXPECT_EQ(r.total_events(), 500);
    EXPECT_EQ(r.processed_count() + r.missed_count(), 500);
    EXPECT_GE(r.correct_count(), 0);
    EXPECT_LE(r.correct_count(), r.processed_count());
    // Paper Eq. 5: cumulative consumption never exceeds harvest + buffer.
    EXPECT_TRUE(r.energy_feasible(setup.multi_exit_sim.storage.initial_mj));
    // Every processed record is self-consistent.
    for (const auto& rec : r.records) {
        if (!rec.processed) continue;
        EXPECT_GE(rec.completion_time_s, rec.arrival_time_s);
        EXPECT_GE(rec.inference_start_s, rec.arrival_time_s);
        EXPECT_GT(rec.energy_spent_mj, 0.0);
        EXPECT_GT(rec.macs, 0);
        EXPECT_GE(rec.exit_taken, 0);
        EXPECT_LT(rec.exit_taken, 3);
    }
}

TEST(Integration, HeadlineOrderingOursBeatsAllBaselines) {
    const auto setup = core::make_paper_setup();
    const auto ours = run_ours_static(setup);
    const auto sonic = run_baseline(setup, baselines::make_sonic_net());
    const auto sparse = run_baseline(setup, baselines::make_sparse_net());
    const auto lenet = run_baseline(setup, baselines::make_lenet_cifar());

    // Fig. 5 ordering: ours > LeNet-Cifar > SonicNet > SpArSeNet.
    EXPECT_GT(ours.iepmj(), lenet.iepmj());
    EXPECT_GT(lenet.iepmj(), sonic.iepmj());
    EXPECT_GT(sonic.iepmj(), sparse.iepmj());

    // Rough factors (paper: 3.6x / 18.9x / 1.28x); require at least 2x / 8x.
    EXPECT_GT(ours.iepmj() / sonic.iepmj(), 2.0);
    EXPECT_GT(ours.iepmj() / sparse.iepmj(), 8.0);

    // Sec. V-D latency ordering.
    EXPECT_LT(ours.mean_event_latency_s(), lenet.mean_event_latency_s());
    EXPECT_LT(lenet.mean_event_latency_s(), sonic.mean_event_latency_s());
    EXPECT_LT(sonic.mean_event_latency_s(), sparse.mean_event_latency_s());

    // Processed-event accuracy: baselines win per-inference (paper V-C), we
    // win on all-events accuracy.
    EXPECT_GT(ours.accuracy_all_events(), sonic.accuracy_all_events());
    EXPECT_GT(sonic.accuracy_processed(), ours.accuracy_processed());
}

TEST(Integration, QLearningImprovesOverStaticLut) {
    const auto setup = core::make_paper_setup();
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::QLearningExitPolicy policy(3, sim::RuntimeConfig{});
    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
    for (int episode = 0; episode < 12; ++episode) {
        const auto events = sim::generate_arrivals(
            "uniform", {500, setup.trace.duration(),
                        2000 + static_cast<std::uint64_t>(episode)});
        (void)simulator.run(events, model, policy);
    }
    policy.set_eval_mode(true);
    const auto learned = simulator.run(setup.events, model, policy);
    const auto lut = run_ours_static(setup);
    // Fig. 7: the learned policy processes at least as many events and is
    // at least on par on all-event accuracy.
    EXPECT_GE(learned.processed_count(), lut.processed_count() - 5);
    EXPECT_GE(learned.accuracy_all_events(),
              lut.accuracy_all_events() - 0.01);
    // And it shifts the exit mix toward the cheap first exit (Fig. 7b).
    const auto hist_learned = learned.exit_histogram(3);
    const auto hist_lut = lut.exit_histogram(3);
    EXPECT_GT(hist_learned[0], hist_lut[0]);
}

TEST(Integration, ReproducibleForFixedSeeds) {
    const auto s1 = core::make_paper_setup();
    const auto s2 = core::make_paper_setup();
    const auto r1 = run_ours_static(s1);
    const auto r2 = run_ours_static(s2);
    EXPECT_EQ(r1.processed_count(), r2.processed_count());
    EXPECT_EQ(r1.correct_count(), r2.correct_count());
    EXPECT_EQ(r1.mean_event_latency_s(), r2.mean_event_latency_s());
}

TEST(Integration, DifferentEventSeedChangesScheduleNotInvariants) {
    core::SetupConfig cfg;
    cfg.event_seed = 424242;
    const auto setup = core::make_paper_setup(cfg);
    const auto r = run_ours_static(setup);
    EXPECT_EQ(r.total_events(), 500);
    EXPECT_TRUE(r.energy_feasible(setup.multi_exit_sim.storage.initial_mj));
    EXPECT_GT(r.processed_count(), 100);  // sane under any uniform schedule
}

TEST(Integration, IncrementalInferenceRescuesLowConfidenceEvents) {
    // Force frequent continuation: threshold-free policy that always
    // continues when affordable, vs one that never does. Deeper final exits
    // must raise correctness on the continued events.
    struct AlwaysContinue final : sim::ExitPolicy {
        int select_exit(const sim::EnergyState&, const sim::InferenceModel&) override {
            return 0;
        }
        bool continue_inference(const sim::EnergyState& s,
                                const sim::InferenceModel& m, int cur,
                                double) override {
            return sim::macs_energy_mj(s, m.incremental_macs(cur, cur + 1)) <=
                   s.level_mj;
        }
    };
    struct NeverContinue final : sim::ExitPolicy {
        int select_exit(const sim::EnergyState&, const sim::InferenceModel&) override {
            return 0;
        }
        bool continue_inference(const sim::EnergyState&, const sim::InferenceModel&,
                                int, double) override {
            return false;
        }
    };
    const auto setup = core::make_paper_setup();
    core::OracleInferenceModel m1(setup.network, setup.deployed_policy,
                                  setup.exit_accuracy);
    core::OracleInferenceModel m2(setup.network, setup.deployed_policy,
                                  setup.exit_accuracy);
    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
    AlwaysContinue always;
    NeverContinue never;
    const auto with_inc = simulator.run(setup.events, m1, always);
    const auto without_inc = simulator.run(setup.events, m2, never);
    EXPECT_GT(with_inc.accuracy_processed(), without_inc.accuracy_processed());
    // Hops recorded.
    int multi_hop = 0;
    for (const auto& rec : with_inc.records) multi_hop += rec.hops > 1 ? 1 : 0;
    EXPECT_GT(multi_hop, 0);
}

}  // namespace
