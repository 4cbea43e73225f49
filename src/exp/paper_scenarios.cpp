#include "exp/paper_scenarios.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baseline_models.hpp"
#include "compress/fit.hpp"
#include "core/accuracy_model.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "core/trace_eval.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/registry.hpp"
#include "sim/recovery/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/workspace.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace imx::exp {

namespace {

/// Shortest-form numeric label component ("1.5", "60", "1e+04").
std::string compact_number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.4g", value);
    return buffer;
}

/// The metric name of episode `ep` of an `episodes`-long learning curve,
/// zero-padded to the curve's own width (>= 2) so that name order is
/// episode order for any episode count.
std::array<char, 32> curve_key(std::size_t ep, std::size_t episodes) {
    int width = 2;
    for (std::size_t n = episodes; n > 99; n /= 10) ++width;
    std::array<char, 32> key{};
    std::snprintf(key.data(), key.size(), "curve_ep%0*u", width,
                  static_cast<unsigned>(ep + 1));
    return key;
}

/// A learning-curve outcome's metrics: those of `sim` (the sim_metrics set)
/// plus each episode's value under its curve key, on one table built from a
/// single sort rather than by inserting name by name.
MetricMap with_learning_curve(const MetricMap& sim,
                              const std::vector<double>& curve) {
    std::vector<std::pair<std::string, double>> entries;
    entries.reserve(sim.size() + curve.size());
    for (const auto& [name, value] : sim) entries.emplace_back(name, value);
    for (std::size_t ep = 0; ep < curve.size(); ++ep) {
        entries.emplace_back(curve_key(ep, curve.size()).data(), curve[ep]);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::string> names;
    std::vector<double> values;
    names.reserve(entries.size());
    values.reserve(entries.size());
    for (auto& [name, value] : entries) {
        names.push_back(std::move(name));
        values.push_back(value);
    }
    return MetricMap(MetricNames::make(std::move(names)), std::move(values));
}

/// Training-episode event seeds: the canonical 2000+ep stream for replica 0
/// (bit-compatible with the historical bench behaviour), a scenario-seed
/// derived stream otherwise.
std::uint64_t train_seed(const ScenarioContext& ctx, int episode) {
    if (ctx.replica == 0) return 2000 + static_cast<std::uint64_t>(episode);
    std::uint64_t state = ctx.seed ^ 0x7261696eULL;  // "rain"
    (void)util::splitmix64(state);
    state += static_cast<std::uint64_t>(episode);
    return util::splitmix64(state);
}

/// The uniform source every learning policy trains on, built once and
/// read concurrently (generate_into is const).
const sim::ArrivalSource& training_arrivals() {
    static const std::unique_ptr<sim::ArrivalSource> uniform =
        sim::make_arrival_source("uniform");
    return *uniform;
}

bool is_baseline(SystemKind kind) {
    return kind == SystemKind::kSonicNet || kind == SystemKind::kSpArSeNet ||
           kind == SystemKind::kLeNetCifar;
}

/// The baseline network, cut into units of one simulation step of `config`.
baselines::FixedBaselineModel make_baseline(SystemKind kind,
                                            const sim::SimConfig& config) {
    const std::int64_t unit = baselines::step_unit_macs(config.mcu, config.dt_s);
    switch (kind) {
        case SystemKind::kSonicNet:
            return baselines::make_sonic_net(1234, unit);
        case SystemKind::kSpArSeNet:
            return baselines::make_sparse_net(1234, unit);
        default:
            return baselines::make_lenet_cifar(1234, unit);
    }
}

/// Evaluate one scenario run. Only replica 0's SimResult is read by a
/// report (canonical_sim), so only replica 0 keeps one; every other replica
/// runs into the workspace's reusable result buffer and returns its metrics.
ScenarioOutcome evaluate(sim::Simulator& simulator,
                         const std::vector<sim::Event>& events,
                         sim::InferenceModel& model, sim::ExitPolicy& policy,
                         const ScenarioContext& ctx,
                         sim::ScenarioWorkspace& ws) {
    ScenarioOutcome outcome;
    if (ctx.replica == 0) {
        auto result = std::make_shared<const sim::SimResult>(
            simulator.run(events, model, policy, &ws));
        outcome.metrics = sim_metrics(*result);
        outcome.sim = std::move(result);
    } else {
        simulator.run_into(events, model, policy, ws.result, &ws);
        outcome.metrics = sim_metrics(ws.result);
    }
    return outcome;
}

}  // namespace

SimPatch storage_patch(double capacity_mj) {
    SimPatch patch;
    const std::string value = compact_number(capacity_mj);
    patch.label = "cap" + value + "mJ";
    patch.dims = {{"storage_mj", value}};
    patch.apply = [capacity_mj](sim::SimConfig& cfg) {
        cfg.storage.capacity_mj = capacity_mj;
        cfg.storage.initial_mj =
            std::min(cfg.storage.initial_mj, capacity_mj);
    };
    return patch;
}

SimPatch deadline_patch(double deadline_s) {
    // Fail at axis construction, not deep inside the sweep: the metrics
    // layer rejects non-positive deadlines (sim/metrics.cpp).
    IMX_EXPECTS(deadline_s > 0.0);
    SimPatch patch;
    if (deadline_s == std::numeric_limits<double>::infinity()) {
        patch.label = "ddl-none";
        patch.dims = {{"deadline_s", "inf"}};
        patch.apply = [](sim::SimConfig&) {};
        return patch;
    }
    const std::string value = compact_number(deadline_s);
    patch.label = "ddl" + value + "s";
    patch.dims = {{"deadline_s", value}};
    patch.apply = [deadline_s](sim::SimConfig& cfg) {
        cfg.deadline_s = deadline_s;
    };
    return patch;
}

SimPatch policy_patch(const std::string& policy_name) {
    // Fail at axis construction, not mid-sweep on a worker thread: the name
    // must be a registered policy.
    IMX_EXPECTS(sim::has_policy(policy_name));
    SimPatch patch;
    patch.label = "pol-" + policy_name;
    patch.dims = {{"policy", policy_name}};
    patch.apply = [](sim::SimConfig&) {};
    patch.policy = policy_name;
    return patch;
}

SimPatch recovery_patch(const RecoveryCell& cell) {
    // Fail at axis construction, not mid-sweep on a worker thread: trial-
    // build the strategy so unknown names and negative costs surface here.
    if (cell.config.enabled) {
        (void)sim::make_recovery_strategy(cell.config.strategy, cell.config);
    }
    // A death-threshold override on a disabled cell could never take effect.
    IMX_EXPECTS(cell.death_threshold_mj < 0.0 || cell.config.enabled);
    std::string label = cell.label;
    if (label.empty()) {
        if (!cell.config.enabled) {
            label = "none";
        } else {
            label = cell.config.strategy;
            if (cell.config.strategy != "restart") {
                label += "-" + sim::granularity_name(cell.config.granularity);
            }
        }
    }
    SimPatch patch;
    patch.label = "rec-" + label;
    patch.dims = {{"recovery", label}};
    patch.apply = [config = cell.config,
                   death = cell.death_threshold_mj](sim::SimConfig& cfg) {
        cfg.recovery = config;
        if (death >= 0.0) cfg.storage.death_threshold_mj = death;
    };
    return patch;
}

SimPatch arrival_patch(const ArrivalCell& cell) {
    // Build the source here, once, unless the spec parser already did:
    // unknown names and bad parameters fail at axis construction, not
    // mid-sweep on a worker thread, and every cell the patch applies to
    // shares it (a "csv" log is parsed once).
    std::shared_ptr<const sim::ArrivalSource> arrivals =
        cell.built ? cell.built
                   : sim::make_arrival_source(cell.source, cell.params);
    const std::string label = cell.label.empty() ? cell.source : cell.label;
    SimPatch patch;
    patch.label = "arr-" + label;
    patch.dims = {{"arrivals", label}};
    patch.apply_setup = [source = cell.source, params = cell.params,
                         arrivals = std::move(arrivals)](
                            core::ExperimentSetup& setup) {
        setup.config.arrival_source = source;
        setup.config.arrival_params = params;
        setup.arrivals = arrivals;
        setup.events = arrivals->generate({setup.config.event_count,
                                           setup.trace.duration(),
                                           setup.config.event_seed});
    };
    return patch;
}

SimPatch queue_patch(int capacity) {
    IMX_EXPECTS(capacity >= 0);
    SimPatch patch;
    const std::string value = std::to_string(capacity);
    patch.label = "q" + value;
    patch.dims = {{"queue_capacity", value}};
    patch.apply = [capacity](sim::SimConfig& cfg) {
        cfg.queue_capacity = capacity;
    };
    return patch;
}

std::vector<SimPatch> cross_patches(const std::vector<SimPatch>& a,
                                    const std::vector<SimPatch>& b) {
    std::vector<SimPatch> product;
    product.reserve(a.size() * b.size());
    for (const auto& pa : a) {
        for (const auto& pb : b) {
            SimPatch combined;
            combined.label = pa.label.empty() || pb.label.empty()
                                 ? pa.label + pb.label
                                 : pa.label + "+" + pb.label;
            combined.dims = pa.dims;
            for (const auto& [k, v] : pb.dims) combined.dims[k] = v;
            combined.apply = [apply_a = pa.apply,
                              apply_b = pb.apply](sim::SimConfig& cfg) {
                if (apply_a) apply_a(cfg);
                if (apply_b) apply_b(cfg);
            };
            if (pa.apply_setup || pb.apply_setup) {
                combined.apply_setup =
                    [setup_a = pa.apply_setup,
                     setup_b = pb.apply_setup](core::ExperimentSetup& setup) {
                        if (setup_a) setup_a(setup);
                        if (setup_b) setup_b(setup);
                    };
            }
            combined.policy = pb.policy.empty() ? pa.policy : pb.policy;
            product.push_back(std::move(combined));
        }
    }
    return product;
}

std::vector<SystemSpec> paper_systems(int train_episodes) {
    std::vector<SystemSpec> systems;
    systems.push_back(
        {"Our Approach", SystemKind::kOursQLearning, train_episodes, {}, ""});
    systems.push_back({"SonicNet", SystemKind::kSonicNet, 0, {}, ""});
    systems.push_back({"SpArSeNet", SystemKind::kSpArSeNet, 0, {}, ""});
    systems.push_back({"LeNet-Cifar", SystemKind::kLeNetCifar, 0, {}, ""});
    return systems;
}

ScenarioOutcome run_system_scenario(const core::ExperimentSetup& setup,
                                    const SystemSpec& system,
                                    const ScenarioContext& ctx,
                                    std::vector<double>* learning_curve) {
    // Training episodes, non-canonical schedules and non-canonical
    // evaluations write into the worker's workspace (a local one when none
    // is attached), so the outcome is the same either way and a worker's
    // steady state allocates no SimResult and no schedule.
    sim::ScenarioWorkspace local_workspace;
    sim::ScenarioWorkspace& ws =
        ctx.workspace != nullptr ? *ctx.workspace : local_workspace;

    // Replica 0 evaluates on the canonical event schedule, read in place;
    // later replicas draw an independent arrival stream over the same trace.
    if (ctx.replica != 0) {
        std::uint64_t state = ctx.seed ^ 0x6576656eULL;  // "even"
        setup.arrivals->generate_into(
            {static_cast<int>(setup.events.size()), setup.trace.duration(),
             util::splitmix64(state)},
            ws.events);
    }
    const std::vector<sim::Event>& events =
        ctx.replica == 0 ? setup.events : ws.events;

    switch (system.kind) {
        case SystemKind::kOursQLearning:
        case SystemKind::kOursStatic:
        case SystemKind::kOursPolicy: {
            // Unified multi-exit path: resolve the exit policy by registry
            // name. The historical kinds are sugar for their default names,
            // so "qlearning"/"greedy" cells stay bitwise identical to the
            // pre-registry code paths.
            std::string policy_name = system.policy;
            if (policy_name.empty()) {
                IMX_EXPECTS(system.kind != SystemKind::kOursPolicy);
                policy_name = system.kind == SystemKind::kOursQLearning
                                  ? "qlearning"
                                  : "greedy";
            }
            core::OracleInferenceModel model(setup.network,
                                             setup.deployed_policy,
                                             setup.exit_accuracy);
            sim::PolicyContext policy_ctx;
            policy_ctx.num_exits = setup.network.num_exits;
            policy_ctx.runtime = system.runtime;
            if (ctx.replica != 0) {
                std::uint64_t state = ctx.seed ^ 0x71706f6cULL;  // "qpol"
                policy_ctx.runtime.seed = util::splitmix64(state);
            }
            const auto policy = sim::make_policy(policy_name, policy_ctx);
            sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
            // Learning policies train first (same canonical episode seeds as
            // the historical Q-learning path), then evaluate frozen.
            if (auto* learner =
                    dynamic_cast<sim::QLearningExitPolicy*>(policy.get())) {
                // Training episodes draw the canonical uniform stream
                // regardless of the evaluation workload (pinned: matches the
                // historical Q-learning path bitwise; the bench goldens
                // train-on-uniform / evaluate-on-cell by design).
                const sim::ArrivalSource& uniform = training_arrivals();
                for (int ep = 0; ep < system.train_episodes; ++ep) {
                    uniform.generate_into(
                        {static_cast<int>(setup.events.size()),
                         setup.trace.duration(), train_seed(ctx, ep)},
                        ws.train_events);
                    simulator.run_into(ws.train_events, model, *policy,
                                       ws.result, &ws);
                    if (learning_curve != nullptr) {
                        learning_curve->push_back(
                            100.0 * ws.result.accuracy_all_events());
                    }
                }
                learner->set_eval_mode(true);
            }
            return evaluate(simulator, events, model, *policy, ctx, ws);
        }
        default: {
            IMX_EXPECTS(system.policy.empty());
            auto model = make_baseline(system.kind, setup.checkpointed_sim);
            baselines::CommitAtPickupPolicy policy;
            sim::Simulator simulator(setup.trace, setup.checkpointed_sim);
            return evaluate(simulator, events, model, policy, ctx, ws);
        }
    }
}

std::vector<ScenarioSpec> build_paper_scenarios(const PaperSweep& sweep) {
    const auto systems =
        sweep.systems.empty() ? paper_systems() : sweep.systems;
    const auto patches =
        sweep.patches.empty() ? std::vector<SimPatch>{SimPatch{}} : sweep.patches;

    std::vector<ScenarioSpec> specs;
    specs.reserve(sweep.traces.size() * patches.size() * systems.size() *
                  static_cast<std::size_t>(std::max(sweep.replicas, 0)));
    for (const auto& trace_spec : sweep.traces) {
        // One shared, immutable setup per trace; scenarios only read it.
        auto base = trace_spec.prebuilt
                        ? trace_spec.prebuilt
                        : std::make_shared<const core::ExperimentSetup>(
                              core::make_paper_setup(trace_spec.config));
        for (const auto& patch : patches) {
            // Apply the patch once per (trace, patch) cell; scenarios share
            // the resulting immutable setup instead of copying it per run.
            auto cell = base;
            if (patch.apply || patch.apply_setup) {
                auto patched =
                    std::make_shared<core::ExperimentSetup>(*base);
                if (patch.apply) {
                    patch.apply(patched->multi_exit_sim);
                    patch.apply(patched->checkpointed_sim);
                }
                if (patch.apply_setup) patch.apply_setup(*patched);
                cell = std::move(patched);
            }
            for (const auto& base_system : systems) {
                SystemSpec system = base_system;
                if (is_baseline(system.kind)) {
                    // Crossing a checkpointed baseline with a policy axis (it
                    // has no exit choice to override) or a recovery axis (its
                    // runtime is itself a recovery configuration, which the
                    // axis would overwrite) is a grid-construction error.
                    IMX_EXPECTS(patch.policy.empty());
                    IMX_EXPECTS(patch.dims.count("recovery") == 0);
                }
                if (!patch.policy.empty()) system.policy = patch.policy;
                std::string group = trace_spec.label + "/" + system.label;
                if (!patch.label.empty()) group += "/" + patch.label;
                // What every replica of the cell shares, built once: its
                // axis labels and its run closure (which holds the setup).
                Dims::Map labels = {{"trace", trace_spec.label},
                                    {"system", system.label}};
                if (!patch.label.empty()) labels["patch"] = patch.label;
                for (const auto& [k, v] : patch.dims) labels[k] = v;
                const Dims dims(std::move(labels));
                const SharedScenarioFn run{std::make_shared<const ScenarioFn>(
                    [cell, system](const ScenarioContext& ctx) {
                        return run_system_scenario(*cell, system, ctx);
                    })};
                for (int replica = 0; replica < sweep.replicas; ++replica) {
                    ScenarioSpec spec;
                    spec.group = group;
                    spec.id = group + "#" + std::to_string(replica);
                    spec.dims = dims;
                    spec.replica = replica;
                    spec.seed = scenario_seed(sweep.base_seed, group, replica);
                    spec.run = run;
                    specs.push_back(std::move(spec));
                }
            }
        }
    }
    return specs;
}

ScenarioSpec make_learning_curve_scenario(
    std::shared_ptr<const core::ExperimentSetup> setup,
    const SystemSpec& system, const std::string& trace_label, int replica,
    std::uint64_t base_seed) {
    ScenarioSpec spec;
    spec.group = trace_label + "/" + system.label;
    spec.id = spec.group + "#" + std::to_string(replica);
    spec.dims = {{"trace", trace_label}, {"system", system.label}};
    spec.replica = replica;
    spec.seed = scenario_seed(base_seed, spec.group, replica);
    spec.run = [setup = std::move(setup),
                system](const ScenarioContext& ctx) {
        std::vector<double> curve;
        auto outcome = run_system_scenario(*setup, system, ctx, &curve);
        outcome.metrics = with_learning_curve(outcome.metrics, curve);
        return outcome;
    };
    return spec;
}

ScenarioSpec make_exit_accuracy_scenario(CompressionVariant variant,
                                         const std::string& label,
                                         int replica,
                                         std::uint64_t base_seed) {
    ScenarioSpec spec;
    spec.group = "fig1b/" + label;
    spec.id = spec.group + "#" + std::to_string(replica);
    spec.dims = {{"variant", label}};
    spec.replica = replica;
    spec.seed = scenario_seed(base_seed, spec.group, replica);
    spec.run = [variant](const ScenarioContext&) -> ScenarioOutcome {
        const auto desc = core::make_paper_network_desc();
        const core::AccuracyModel oracle(
            desc, {core::kPaperFullPrecisionAcc.begin(),
                   core::kPaperFullPrecisionAcc.end()});
        compress::Policy policy;
        switch (variant) {
            case CompressionVariant::kFullPrecision:
                policy = compress::Policy::full_precision(desc.num_layers());
                break;
            case CompressionVariant::kUniform:
                policy = core::uniform_baseline_policy();
                break;
            case CompressionVariant::kNonuniform:
                policy = core::reference_nonuniform_policy();
                break;
        }
        const auto acc = oracle.exit_accuracy(policy);
        static_assert(core::kPaperFullPrecisionAcc.size() == 3);
        IMX_ASSERT(acc.size() == 3);
        static const auto names = MetricNames::make(
            {"exit1_acc_pct", "exit2_acc_pct", "exit3_acc_pct", "model_kb",
             "total_macs_m"});
        ScenarioOutcome outcome;
        outcome.metrics = MetricMap(
            names,
            {acc[0], acc[1], acc[2],
             compress::model_bytes(desc, policy) / 1024.0,
             static_cast<double>(compress::total_macs(desc, policy)) / 1e6});
        outcome.payload = policy;
        return outcome;
    };
    return spec;
}

ScenarioSpec make_search_scenario(
    std::shared_ptr<const core::ExperimentSetup> setup, SearchAlgo algo,
    const std::string& label, const core::SearchConfig& config, int replica,
    std::uint64_t base_seed) {
    ScenarioSpec spec;
    spec.group = "search/" + label;
    spec.id = spec.group + "#" + std::to_string(replica);
    spec.dims = {{"algo", label}};
    spec.replica = replica;
    spec.seed = scenario_seed(base_seed, spec.group, replica);
    spec.run = [setup = std::move(setup), algo,
                config](const ScenarioContext& ctx) -> ScenarioOutcome {
        // The evaluator stack is rebuilt per scenario: PolicyEvaluator keeps
        // raw pointers into it, so everything must share the run's lifetime.
        const auto& desc = setup->network;
        const core::AccuracyModel oracle(
            desc, {core::kPaperFullPrecisionAcc.begin(),
                   core::kPaperFullPrecisionAcc.end()});
        const core::StaticTraceEvaluator trace_eval(
            setup->trace, setup->events, core::paper_storage_config(),
            core::kEnergyPerMMacMj);
        const core::PolicyEvaluator evaluator(desc, oracle, trace_eval,
                                              core::paper_constraints(),
                                              config.trace_aware);

        core::SearchConfig cfg = config;
        if (ctx.replica != 0) {
            std::uint64_t state = ctx.seed ^ 0x73726368ULL;  // "srch"
            cfg.seed = util::splitmix64(state);
        }
        core::CompressionSearch search(evaluator, cfg);
        core::SearchResult result;
        switch (algo) {
            case SearchAlgo::kDdpg:
                result = search.run_ddpg();
                break;
            case SearchAlgo::kDdpgRefined:
                result = search.run_ddpg_refined();
                break;
            case SearchAlgo::kRandom:
                result = search.run_random();
                break;
            case SearchAlgo::kAnnealing:
                result = search.run_annealing();
                break;
        }

        static const auto infeasible_names =
            MetricNames::make({"best_racc", "evaluations", "feasible"});
        static const auto feasible_names = MetricNames::make(
            {"best_racc", "evaluations", "feasible", "model_kb",
             "total_macs_m"});
        ScenarioOutcome outcome;
        const double evaluations = result.evaluations;
        if (result.found_feasible) {
            outcome.metrics = MetricMap(
                feasible_names,
                {result.best_reward, evaluations, 1.0,
                 compress::model_bytes(desc, result.best_policy) / 1024.0,
                 static_cast<double>(
                     compress::total_macs(desc, result.best_policy)) /
                     1e6});
        } else {
            outcome.metrics = MetricMap(
                infeasible_names, {result.best_reward, evaluations, 0.0});
        }
        outcome.payload = std::move(result);
        return outcome;
    };
    return spec;
}

}  // namespace imx::exp
