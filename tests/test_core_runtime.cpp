// Runtime-phase tests: oracle inference model, Q-learning exit policy,
// incremental-inference decisions, and the static trace evaluator.
#include <gtest/gtest.h>

#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/qlearning.hpp"
#include "core/trace_eval.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace imx;

const compress::NetworkDesc& paper_desc() {
    static const compress::NetworkDesc desc = core::make_paper_network_desc();
    return desc;
}

core::OracleInferenceModel make_model(std::vector<double> acc = {60.0, 68.0,
                                                                 70.0}) {
    return core::OracleInferenceModel(
        paper_desc(), core::reference_nonuniform_policy(), std::move(acc));
}

TEST(OracleModel, DeterministicPerEventAndExit) {
    auto m1 = make_model();
    auto m2 = make_model();
    for (int ev = 0; ev < 50; ++ev) {
        for (int e = 0; e < 3; ++e) {
            const auto a = m1.evaluate(ev, e);
            const auto b = m2.evaluate(ev, e);
            EXPECT_EQ(a.correct, b.correct);
            EXPECT_EQ(a.confidence, b.confidence);
        }
    }
}

TEST(OracleModel, LongRunAccuracyMatchesTarget) {
    auto model = make_model({55.0, 65.0, 75.0});
    for (int e = 0; e < 3; ++e) {
        int correct = 0;
        const int n = 20000;
        for (int ev = 0; ev < n; ++ev) {
            correct += model.evaluate(ev, e).correct ? 1 : 0;
        }
        const double expected = model.exit_accuracy()[static_cast<std::size_t>(e)];
        EXPECT_NEAR(100.0 * correct / n, expected, 1.0) << "exit " << e;
    }
}

TEST(OracleModel, MonotoneAccuracyGivesMonotoneCorrectness) {
    auto model = make_model({50.0, 65.0, 80.0});
    for (int ev = 0; ev < 500; ++ev) {
        bool prev = model.evaluate(ev, 0).correct;
        for (int e = 1; e < 3; ++e) {
            const bool cur = model.evaluate(ev, e).correct;
            // Solved at a shallow exit implies solved at deeper exits.
            if (prev) {
                EXPECT_TRUE(cur) << "event " << ev << " exit " << e;
            }
            prev = cur;
        }
    }
}

TEST(OracleModel, ConfidenceCorrelatesWithCorrectness) {
    auto model = make_model();
    double conf_correct = 0.0;
    double conf_wrong = 0.0;
    int n_correct = 0;
    int n_wrong = 0;
    for (int ev = 0; ev < 2000; ++ev) {
        const auto out = model.evaluate(ev, 1);
        if (out.correct) {
            conf_correct += out.confidence;
            ++n_correct;
        } else {
            conf_wrong += out.confidence;
            ++n_wrong;
        }
    }
    EXPECT_GT(conf_correct / n_correct, conf_wrong / n_wrong + 0.1);
}

TEST(OracleModel, IncrementalMacsEqualPathDifference) {
    auto model = make_model();
    // exit0 -> exit1: exit1 total minus the shared Conv1 portion.
    const std::int64_t inc01 = model.incremental_macs(0, 1);
    const std::int64_t inc12 = model.incremental_macs(1, 2);
    const std::int64_t inc02 = model.incremental_macs(0, 2);
    EXPECT_GT(inc01, 0);
    EXPECT_LT(inc01, model.exit_macs(1));
    // Jumping 0->2 must cost no more than the sum of hops (it skips exit 1's
    // private branch).
    EXPECT_LE(inc02, inc01 + inc12);
    EXPECT_EQ(model.incremental_macs(-1, 0), model.exit_macs(0));
}

TEST(OracleModel, ModelBytesMatchAccounting) {
    auto model = make_model();
    EXPECT_NEAR(model.model_bytes(),
                compress::model_bytes(paper_desc(),
                                      core::reference_nonuniform_policy()),
                1e-6);
}

// --- Q-learning runtime policy ----------------------------------------------

sim::EnergyState state_with(double level, double capacity, double rate) {
    sim::EnergyState s;
    s.level_mj = level;
    s.capacity_mj = capacity;
    s.charge_rate_mw = rate;
    s.energy_per_mmac_mj = 1.5;
    return s;
}

TEST(QLearningPolicy, SelectsValidExitsAndHasSmallFootprint) {
    sim::RuntimeConfig cfg;
    sim::QLearningExitPolicy policy(3, cfg);
    auto model = make_model();
    for (int i = 0; i < 100; ++i) {
        const int e = policy.select_exit(
            state_with(i % 5 * 1.0, 5.0, 0.01 * (i % 4)), model);
        EXPECT_GE(e, 0);
        EXPECT_LT(e, 3);
        policy.observe(state_with(1.0, 5.0, 0.01), e, true, true);
    }
    // Paper: "the overhead of Q-learning is negligible" — LUT stays small.
    EXPECT_LE(policy.footprint_bytes(), 8u * 1024u);
}

TEST(QLearningPolicy, LearnsCheapExitWhenDeepExitsCauseMisses) {
    // Synthetic loop: deep exits always produce two missed events, cheap exit
    // none. Reward favors exit 0 despite equal correctness.
    sim::RuntimeConfig cfg;
    cfg.exit_q.epsilon = 0.3;
    cfg.exit_q.epsilon_decay = 0.999;
    cfg.miss_penalty = 1.0;
    sim::QLearningExitPolicy policy(3, cfg);
    auto model = make_model();
    const auto s = state_with(2.0, 5.0, 0.02);
    for (int i = 0; i < 3000; ++i) {
        const int e = policy.select_exit(s, model);
        policy.observe(s, e, true, true);  // always correct...
        if (e > 0) {                 // ...but deep exits starve followers
            policy.observe_missed();
            policy.observe_missed();
        }
    }
    policy.set_eval_mode(true);
    EXPECT_EQ(policy.select_exit(s, model), 0);
}

TEST(QLearningPolicy, EvalModeIsGreedyAndFrozen) {
    sim::RuntimeConfig cfg;
    sim::QLearningExitPolicy policy(3, cfg);
    auto model = make_model();
    policy.set_eval_mode(true);
    const auto s = state_with(3.0, 5.0, 0.02);
    const int first = policy.select_exit(s, model);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(policy.select_exit(s, model), first);
        policy.observe(s, first, i % 2 == 0, true);
    }
}

TEST(QLearningPolicy, IncrementalRefusesWhenUnaffordable) {
    sim::RuntimeConfig cfg;
    cfg.enable_incremental = true;
    sim::QLearningExitPolicy policy(3, cfg);
    auto model = make_model();
    // Level far below the incremental cost of exit0 -> exit1 (~0.35 mJ).
    EXPECT_FALSE(policy.continue_inference(state_with(0.01, 5.0, 0.0), model, 0,
                                           0.1));
    // Last exit can never continue.
    EXPECT_FALSE(policy.continue_inference(state_with(5.0, 5.0, 0.0), model, 2,
                                           0.1));
}

TEST(QLearningPolicy, IncrementalDisabledByConfig) {
    sim::RuntimeConfig cfg;
    cfg.enable_incremental = false;
    sim::QLearningExitPolicy policy(3, cfg);
    auto model = make_model();
    EXPECT_FALSE(policy.continue_inference(state_with(5.0, 5.0, 0.0), model, 0,
                                           0.0));
}

// --- Static trace evaluator ---------------------------------------------------

TEST(StaticTraceEvaluator, AbundantEnergySelectsDeepestExitAlways) {
    const auto trace = energy::PowerTrace::constant(10.0, 1000.0, 1.0);
    const auto events =
        sim::generate_arrivals("uniform", {100, 900.0, 3});
    energy::StorageConfig storage;
    storage.capacity_mj = 1000.0;
    storage.initial_mj = 500.0;
    const core::StaticTraceEvaluator eval(trace, events, storage, 1.5);
    const auto r = eval.evaluate({100000, 500000, 900000}, {60.0, 68.0, 70.0});
    EXPECT_EQ(r.processed, 100);
    EXPECT_EQ(r.missed, 0);
    EXPECT_NEAR(r.exit_probability[2], 1.0, 1e-12);
    EXPECT_NEAR(r.avg_accuracy_all, 0.70, 1e-9);
}

TEST(StaticTraceEvaluator, NoEnergyMissesEverything) {
    const auto trace = energy::PowerTrace::constant(0.0001, 100.0, 1.0);
    const auto events =
        sim::generate_arrivals("uniform", {20, 90.0, 4});
    energy::StorageConfig storage;
    storage.capacity_mj = 10.0;
    storage.initial_mj = 0.0;
    const core::StaticTraceEvaluator eval(trace, events, storage, 1.5);
    const auto r = eval.evaluate({5000000}, {80.0});
    EXPECT_EQ(r.processed, 0);
    EXPECT_NEAR(r.avg_accuracy_all, 0.0, 1e-12);
}

TEST(StaticTraceEvaluator, RaccIsExitProbabilityWeightedAccuracy) {
    // Paper Eq. 10 identity.
    const auto setup = core::make_paper_setup();
    const core::StaticTraceEvaluator eval(setup.trace, setup.events,
                                          core::paper_storage_config(), 1.5);
    const auto macs =
        compress::per_exit_macs(setup.network, setup.deployed_policy);
    const auto r = eval.evaluate(macs, setup.exit_accuracy);
    double racc = 0.0;
    for (int e = 0; e < 3; ++e) {
        racc += r.exit_probability[static_cast<std::size_t>(e)] *
                setup.exit_accuracy[static_cast<std::size_t>(e)] / 100.0;
    }
    EXPECT_NEAR(r.avg_accuracy_all, racc, 1e-9);
    EXPECT_GT(r.processed, 0);
}

TEST(StaticTraceEvaluator, CheaperExitsRaiseProcessedCount) {
    const auto setup = core::make_paper_setup();
    const core::StaticTraceEvaluator eval(setup.trace, setup.events,
                                          core::paper_storage_config(), 1.5);
    const auto expensive = eval.evaluate({1500000}, {73.0});
    const auto cheap = eval.evaluate({300000}, {62.0});
    EXPECT_GT(cheap.processed, expensive.processed);
}

}  // namespace
