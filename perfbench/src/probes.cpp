// Probes: single-threaded timings of the public calls the workloads spend
// their time in, on the workloads' own inputs (the canonical paper setup
// and the grids' own trace, queue and recovery cells). Multiplied by the
// counts a workload reports, they reconstruct its scenario time.
#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>

#include "baselines/baseline_models.hpp"
#include "bench.hpp"
#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "core/trace_eval.hpp"
#include "energy/storage.hpp"
#include "energy/trace_registry.hpp"
#include "nn/kernels/kernels.hpp"
#include "rl/ddpg.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/policies/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/workspace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// Results are folded in here so the compiler cannot drop a probed call.
volatile double g_consumed = 0.0;

/// Median seconds per call of `call` over `batches` batches, each batch
/// sized from one calibration call so the probe lasts about `budget_s`.
template <class F>
double probe_s(Tracer& tracer, const char* name, F&& call,
               double budget_s = 0.05, int batches = 7) {
    const int span = tracer.open(name);
    auto t0 = Clock::now();
    call();
    const double one = std::max(1e-9, seconds_between(t0, Clock::now()));
    const auto iterations = static_cast<long>(
        std::max(1.0, budget_s / (one * static_cast<double>(batches))));
    std::vector<double> per_call;
    for (int b = 0; b < batches; ++b) {
        t0 = Clock::now();
        for (long i = 0; i < iterations; ++i) call();
        per_call.push_back(seconds_between(t0, Clock::now()) /
                           static_cast<double>(iterations));
    }
    tracer.close(span);
    return median(per_call);
}

std::unique_ptr<rl::DdpgAgent> make_filled_agent(int action_dim,
                                                 std::uint64_t seed) {
    // The search's agent shapes: a 12-value Eq. 9 observation, one action
    // for the pruning agent and two for the quantization agent.
    rl::DdpgConfig config;
    config.state_dim = 12;
    config.action_dim = action_dim;
    config.seed = seed;
    auto agent = std::make_unique<rl::DdpgAgent>(config);
    util::Rng rng(seed);
    const auto random_vector = [&rng](int n) {
        std::vector<float> v(static_cast<std::size_t>(n));
        for (auto& x : v) x = static_cast<float>(rng.uniform());
        return v;
    };
    for (int i = 0; i < 256; ++i) {
        agent->remember({random_vector(12), random_vector(action_dim),
                        static_cast<float>(rng.uniform() - 0.5),
                        random_vector(12), i % 11 == 10});
    }
    return agent;
}

const exp::TraceEntry& trace_named(const exp::ExperimentSpec& spec,
                                   const std::string& label) {
    for (const auto& entry : spec.traces) {
        if (entry.label == label) return entry;
    }
    throw std::runtime_error(spec.name + " has no trace " + label);
}

}  // namespace

std::map<std::string, double> run_probes(
    const std::optional<compress::Policy>& searched, Tracer& tracer) {
    std::map<std::string, double> out;
    const core::SetupConfig canonical;
    const auto setup = core::make_paper_setup(canonical);
    const auto& desc = setup.network;
    const std::vector<double> base_acc(core::kPaperFullPrecisionAcc.begin(),
                                       core::kPaperFullPrecisionAcc.end());

    // --- core: the search's evaluator stack -------------------------------
    out["core.paper_setup_s"] = probe_s(
        tracer, "probe.core.paper_setup",
        [&] { g_consumed = core::make_paper_setup(canonical).trace.duration(); },
        0.3, 5);
    out["core.accuracy_model_ms"] =
        1e3 * probe_s(tracer, "probe.core.accuracy_model", [&] {
            const core::AccuracyModel model(desc, base_acc);
            g_consumed = model.chance_accuracy();
        });
    out["core.trace_eval_ms"] =
        1e3 * probe_s(tracer, "probe.core.trace_eval", [&] {
            const core::StaticTraceEvaluator eval(
                setup.trace, setup.events, core::paper_storage_config(),
                core::kEnergyPerMMacMj);
            g_consumed = eval.total_harvestable_mj();
        });
    const core::AccuracyModel oracle(desc, base_acc);
    const core::StaticTraceEvaluator trace_eval(setup.trace, setup.events,
                                                core::paper_storage_config(),
                                                core::kEnergyPerMMacMj);
    const core::PolicyEvaluator evaluator(desc, oracle, trace_eval,
                                          core::paper_constraints(), true);
    std::vector<compress::Policy> policies = {
        core::reference_nonuniform_policy(), core::uniform_baseline_policy()};
    if (searched) policies.push_back(*searched);
    std::size_t next_policy = 0;
    out["core.score_us"] = 1e6 * probe_s(tracer, "probe.core.score", [&] {
        g_consumed = evaluator.score(policies[next_policy]).racc;
        next_policy = (next_policy + 1) % policies.size();
    });

    core::OracleInferenceModel model(desc, setup.deployed_policy,
                                     setup.exit_accuracy);
    constexpr int kEvaluateBatch = 1500;  // 500 events x 3 exits
    out["core.oracle_evaluate_ns"] =
        1e9 / kEvaluateBatch *
        probe_s(tracer, "probe.core.oracle_evaluate", [&] {
            int correct = 0;
            for (int i = 0; i < kEvaluateBatch; ++i) {
                correct += model.evaluate(i / 3, i % 3).correct ? 1 : 0;
            }
            g_consumed = correct;
        });

    // --- rl: the two DDPG agents and the Q-learning runtime ----------------
    auto prune_agent = make_filled_agent(1, 11);
    auto quant_agent = make_filled_agent(2, 12);
    out["rl.ddpg_train_step_us"] =
        1e6 / 2.0 * probe_s(tracer, "probe.rl.ddpg_train_step", [&] {
            prune_agent->train_step();
            quant_agent->train_step();
        }, 0.2);
    const std::vector<float> state(12, 0.5F);
    out["rl.ddpg_act_us"] =
        1e6 / 2.0 * probe_s(tracer, "probe.rl.ddpg_act", [&] {
            g_consumed = prune_agent->act_noisy(state)[0] +
                         quant_agent->act_noisy(state)[1];
        });

    sim::QLearningExitPolicy qpolicy(desc.num_exits, sim::RuntimeConfig{});
    std::array<sim::EnergyState, 16> states{};
    for (std::size_t i = 0; i < states.size(); ++i) {
        states[i].capacity_mj = core::paper_storage_config().capacity_mj;
        states[i].level_mj = states[i].capacity_mj * static_cast<double>(i) /
                             static_cast<double>(states.size());
        states[i].charge_rate_mw = 0.003 * static_cast<double>(i % 7);
    }
    constexpr int kQBatch = 1000;
    out["rl.qlearning_step_ns"] =
        1e9 / kQBatch * probe_s(tracer, "probe.rl.qlearning_step", [&] {
            for (int i = 0; i < kQBatch; ++i) {
                const auto& s = states[static_cast<std::size_t>(i) % states.size()];
                const int exit = qpolicy.select_exit(s, model);
                qpolicy.observe(s, std::max(exit, 0), i % 3 != 0, true);
            }
        });

    // --- nn: GEMV-shaped gemm at the DDPG layer shapes ---------------------
    struct Shape {
        int out;
        int in;
    };
    const Shape shapes[] = {{64, 12}, {64, 64}, {1, 64},  {2, 64},
                            {64, 13}, {64, 14}, {64, 64}, {1, 64}};
    std::vector<float> weights(64 * 64, 0.01F);
    std::vector<float> x(64, 0.5F);
    std::vector<float> bias(64, 0.1F);
    std::vector<float> y(64);
    double macs_per_call = 0.0;
    for (const Shape& s : shapes) macs_per_call += s.out * s.in;
    const double gemm_s = probe_s(tracer, "probe.nn.gemm", [&] {
        for (const Shape& s : shapes) {
            nn::kernels::gemm(s.out, s.in, weights.data(), x.data(),
                              bias.data(), y.data());
        }
        g_consumed = y[0];
    });
    out["nn.gemm_gmacs_per_s"] = macs_per_call / gemm_s / 1e9;

    // --- sim: one run per simulator path -----------------------------------
    sim::ScenarioWorkspace workspace;
    const double steps =
        setup.trace.duration() / setup.multi_exit_sim.dt_s;
    {
        sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
        sim::GreedyAffordablePolicy greedy;
        out["sim.run_us.greedy"] =
            1e6 * probe_s(tracer, "probe.sim.run.greedy", [&] {
                g_consumed = simulator.run(setup.events, model, greedy,
                                           &workspace).processed_count();
            }, 0.2);
        out["sim.ns_per_step"] = 1e3 * out["sim.run_us.greedy"] / steps;
    }
    {
        sim::Simulator simulator(setup.trace, setup.checkpointed_sim);
        auto sonic = imx::baselines::make_sonic_net();
        sim::GreedyAffordablePolicy greedy;
        out["sim.run_us.checkpointed"] =
            1e6 * probe_s(tracer, "probe.sim.run.checkpointed", [&] {
                g_consumed = simulator.run(setup.events, sonic, greedy,
                                           &workspace).processed_count();
            }, 0.2);
    }
    {
        sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
        sim::PolicyContext context;
        context.num_exits = desc.num_exits;
        const auto learner = sim::make_policy("qlearning", context);
        sim::SimResult result;
        out["sim.train_episode_us"] =
            1e6 * probe_s(tracer, "probe.sim.train_episode", [&] {
                simulator.run_into(setup.events, model, *learner, result,
                                   &workspace);
                g_consumed = result.processed_count();
            }, 0.2);
    }
    const auto traffic = exp::make_experiment("traffic-ablation").spec;
    const exp::ArrivalCell* mmpp = nullptr;
    for (const auto& cell : traffic.arrivals) {
        if (cell.source == "mmpp") mmpp = &cell;
    }
    if (mmpp == nullptr) throw std::runtime_error("traffic-ablation has no mmpp cell");
    const sim::ArrivalContext arrivals{canonical.event_count,
                                       setup.trace.duration(),
                                       canonical.event_seed};
    out["sim.arrivals_us"] = 1e6 * probe_s(tracer, "probe.sim.arrivals", [&] {
        g_consumed = sim::generate_arrivals(mmpp->source, arrivals,
                                            mmpp->params).size();
    });
    {
        sim::SimConfig config = setup.multi_exit_sim;
        config.queue_capacity = traffic.queue_capacity.back();
        config.deadline_s = traffic.deadline_s.front();
        const auto events =
            sim::generate_arrivals(mmpp->source, arrivals, mmpp->params);
        sim::Simulator simulator(setup.trace, config);
        sim::PolicyContext context;
        context.num_exits = desc.num_exits;
        const auto policy = sim::make_policy("queue-slack-greedy", context);
        out["sim.run_us.queue"] =
            1e6 * probe_s(tracer, "probe.sim.run.queue", [&] {
                g_consumed = simulator.run(events, model, *policy, &workspace)
                                 .processed_count();
            }, 0.2);
    }
    const auto recovery = exp::make_experiment("recovery-ablation").spec;
    const auto& rf = trace_named(recovery, "rf-bursty");
    {
        const auto rf_setup = core::make_paper_setup(rf.config);
        const exp::RecoveryCell* cell = nullptr;
        for (const auto& c : recovery.recoveries) {
            if (c.config.enabled && c.config.strategy == "checkpoint" &&
                c.config.granularity == sim::CheckpointGranularity::kPerLayer) {
                cell = &c;
            }
        }
        if (cell == nullptr) throw std::runtime_error("recovery-ablation has no per-layer checkpoint cell");
        sim::SimConfig config = rf_setup.multi_exit_sim;
        config.recovery = cell->config;
        if (cell->death_threshold_mj >= 0.0) {
            config.storage.death_threshold_mj = cell->death_threshold_mj;
        }
        core::OracleInferenceModel rf_model(rf_setup.network,
                                            rf_setup.deployed_policy,
                                            rf_setup.exit_accuracy);
        sim::Simulator simulator(rf_setup.trace, config);
        sim::GreedyAffordablePolicy greedy;
        out["sim.run_us.recovery"] =
            1e6 * probe_s(tracer, "probe.sim.run.recovery", [&] {
                g_consumed = simulator.run(rf_setup.events, rf_model, greedy,
                                           &workspace).processed_count();
            }, 0.2);
    }

    // --- energy --------------------------------------------------------------
    const auto& samples = setup.trace.samples();
    energy::EnergyStorage storage(core::paper_storage_config());
    out["energy.harvest_ns"] =
        1e9 / static_cast<double>(samples.size()) *
        probe_s(tracer, "probe.energy.harvest", [&] {
            double stored = 0.0;
            for (const double p : samples) stored += storage.harvest(p, 1.0);
            g_consumed = stored;
        });
    energy::TraceSourceContext trace_context;
    trace_context.duration_s = canonical.duration_s;
    trace_context.seed = canonical.trace_seed;
    out["energy.trace_build_ms"] =
        1e3 / 2.0 * probe_s(tracer, "probe.energy.trace_build", [&] {
            g_consumed = energy::make_trace("solar", trace_context).size() +
                         energy::make_trace(rf.config.trace_source,
                                            trace_context,
                                            rf.config.trace_params)
                             .size();
        });
    out["sim.steps_per_run"] = steps;
    return out;
}

}  // namespace perfbench
