// Microbenchmarks (google-benchmark) for the runtime path: the Q-learning
// step the paper calls "negligible overhead", DDPG training steps, policy
// evaluation inside the search, full trace simulations, and the arrival
// regeneration and metrics fold around each sweep replica's run.
#include <benchmark/benchmark.h>

#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "sim/policies/qlearning.hpp"
#include "core/search.hpp"
#include "core/trace_eval.hpp"
#include "exp/scenario.hpp"
#include "rl/ddpg.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace imx;

void BM_QLearningSelectAndUpdate(benchmark::State& state) {
    // The paper's claim: runtime selection is a LUT lookup plus an update.
    sim::QLearningExitPolicy policy(3, sim::RuntimeConfig{});
    const auto setup_once = [] {
        sim::EnergyState s;
        s.level_mj = 2.0;
        s.capacity_mj = 5.0;
        s.charge_rate_mw = 0.02;
        return s;
    };
    const sim::EnergyState s = setup_once();
    const auto desc = core::make_paper_network_desc();
    core::OracleInferenceModel model(desc, core::reference_nonuniform_policy(),
                                     {60.0, 68.0, 70.0});
    for (auto _ : state) {
        const int e = policy.select_exit(s, model);
        policy.observe(s, e, true, true);
        benchmark::DoNotOptimize(e);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QLearningSelectAndUpdate);

void BM_OracleEvaluate(benchmark::State& state) {
    const auto desc = core::make_paper_network_desc();
    core::OracleInferenceModel model(desc, core::reference_nonuniform_policy(),
                                     {60.0, 68.0, 70.0});
    int ev = 0;
    for (auto _ : state) {
        const int event_id = ev % 500;
        const int exit = ev % 3;
        ++ev;
        benchmark::DoNotOptimize(model.evaluate(event_id, exit));
    }
}
BENCHMARK(BM_OracleEvaluate);

void BM_PolicyEvaluatorScore(benchmark::State& state) {
    // One reward evaluation of the compression search (Eq. 4-10).
    static const auto setup = core::make_paper_setup();
    static const core::AccuracyModel oracle(
        setup.network, {core::kPaperFullPrecisionAcc.begin(),
                        core::kPaperFullPrecisionAcc.end()});
    static const core::StaticTraceEvaluator trace_eval(
        setup.trace, setup.events, core::paper_storage_config(),
        core::kEnergyPerMMacMj);
    const core::PolicyEvaluator evaluator(setup.network, oracle, trace_eval,
                                          core::paper_constraints(), true);
    const auto policy = core::reference_nonuniform_policy();
    for (auto _ : state) {
        benchmark::DoNotOptimize(evaluator.score(policy));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyEvaluatorScore);

void BM_DdpgTrainStep(benchmark::State& state) {
    rl::DdpgConfig cfg;
    cfg.state_dim = 12;
    cfg.action_dim = 1;
    cfg.batch_size = 64;
    rl::DdpgAgent agent(cfg);
    util::Rng rng(1);
    for (int i = 0; i < 256; ++i) {
        std::vector<float> s(12);
        for (auto& v : s) v = static_cast<float>(rng.uniform());
        agent.remember({s, {static_cast<float>(rng.uniform())},
                        static_cast<float>(rng.uniform(-1.0, 1.0)), s, true});
    }
    for (auto _ : state) {
        agent.train_step();
    }
}
BENCHMARK(BM_DdpgTrainStep);

void BM_FullTraceSimulation(benchmark::State& state) {
    // One 13,000-step, 500-event intermittent simulation.
    static const auto setup = core::make_paper_setup();
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::GreedyAffordablePolicy policy;
    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulator.run(setup.events, model, policy));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(setup.events.size()));
}
BENCHMARK(BM_FullTraceSimulation);

// The three kinds of energy wait the quiet-stretch drain skips, one full
// 13,000-step run each.

void BM_FullTraceRecoveryGreedy(benchmark::State& state) {
    // Dead waits: per-layer checkpointing on the bursty RF trace, whose
    // dark gaps kill stalled inferences that then recharge to reboot.
    static const auto setup = [] {
        core::SetupConfig cfg;
        cfg.trace_source = "rf-bursty";
        cfg.trace_params = {{"burst_power_mw", "0.6"},
                            {"mean_on_s", "2"},
                            {"mean_off_s", "18"}};
        return core::make_paper_setup(cfg);
    }();
    sim::SimConfig config = setup.multi_exit_sim;
    config.recovery.enabled = true;
    config.recovery.strategy = "checkpoint";
    config.recovery.granularity = sim::CheckpointGranularity::kPerLayer;
    config.recovery.active_power_mw = 0.02;
    config.storage.death_threshold_mj = 0.3;
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::GreedyAffordablePolicy policy;
    sim::Simulator simulator(setup.trace, config);
    sim::ScenarioWorkspace workspace;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator.run(setup.events, model, policy, &workspace));
    }
}
BENCHMARK(BM_FullTraceRecoveryGreedy);

void BM_FullTraceQueueSlackGreedy(benchmark::State& state) {
    // Uncommitted waits: a bounded queue under MMPP bursts and a 60 s
    // deadline; the greedy family's commit floor drains the waits.
    static const auto setup = core::make_paper_setup();
    static const auto events = sim::generate_arrivals(
        "mmpp", {static_cast<int>(setup.events.size()), setup.trace.duration(),
                 setup.config.event_seed});
    sim::SimConfig config = setup.multi_exit_sim;
    config.queue_capacity = 16;
    config.deadline_s = 60.0;
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::QueueSlackGreedyPolicy policy;
    sim::Simulator simulator(setup.trace, config);
    sim::ScenarioWorkspace workspace;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator.run(events, model, policy, &workspace));
    }
}
BENCHMARK(BM_FullTraceQueueSlackGreedy);

void BM_FullTraceQLearningEval(benchmark::State& state) {
    // Committed waits: a frozen Q-table commits as soon as an event is
    // picked up, then the device charges for the committed exit.
    static const auto setup = core::make_paper_setup();
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::QLearningExitPolicy policy(setup.network.num_exits,
                                    sim::RuntimeConfig{});
    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
    sim::ScenarioWorkspace workspace;
    for (int episode = 0; episode < 12; ++episode) {
        (void)simulator.run(setup.events, model, policy, &workspace);
    }
    policy.set_eval_mode(true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator.run(setup.events, model, policy, &workspace));
    }
}
BENCHMARK(BM_FullTraceQLearningEval);

// The two layers around every replica's simulator run but the canonical
// one: regenerating its arrival schedule, and folding its records into the
// metrics of its outcome.

void BM_GenerateArrivals(benchmark::State& state, const char* source) {
    // A replica's schedule: the paper's 500 events over its 13,000 s trace,
    // a new seed each time, into a reused buffer.
    const core::SetupConfig paper;
    const auto arrivals = sim::make_arrival_source(source);
    std::vector<sim::Event> events;
    std::uint64_t seed = paper.event_seed;
    for (auto _ : state) {
        arrivals->generate_into({paper.event_count, paper.duration_s, ++seed},
                                events);
        benchmark::DoNotOptimize(events.data());
    }
    state.SetItemsProcessed(state.iterations() * paper.event_count);
}
BENCHMARK_CAPTURE(BM_GenerateArrivals, uniform, "uniform");
BENCHMARK_CAPTURE(BM_GenerateArrivals, bursty, "bursty");
BENCHMARK_CAPTURE(BM_GenerateArrivals, mmpp, "mmpp");

void BM_SimMetrics(benchmark::State& state) {
    // The outcome metrics of one greedy run of the paper setup.
    static const auto setup = core::make_paper_setup();
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::GreedyAffordablePolicy policy;
    const sim::SimResult result =
        sim::Simulator(setup.trace, setup.multi_exit_sim)
            .run(setup.events, model, policy);
    for (auto _ : state) {
        benchmark::DoNotOptimize(exp::sim_metrics(result));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(result.records.size()));
}
BENCHMARK(BM_SimMetrics);

}  // namespace

BENCHMARK_MAIN();
