#include "exp/experiment.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "energy/trace_registry.hpp"
#include "exp/aggregate.hpp"
#include "exp/experiments_builtin.hpp"
#include "exp/journal.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/spec_parser.hpp"
#include "sim/policies/registry.hpp"
#include "util/contracts.hpp"
#include "util/registry.hpp"
#include "util/stats.hpp"

namespace imx::exp {

namespace {

/// The fixed table of built-in experiments, built once on first use by
/// direct calls into the experiments_*.cpp translation units (no
/// static-initializer registration a static-library link could drop).
const util::Registry<detail::ExperimentFactory>& registry() {
    static const util::Registry<detail::ExperimentFactory> instance(
        "experiment", [] {
            detail::ExperimentTable table;
            detail::add_fig_experiments(table);
            detail::add_ablation_experiments(table);
            return table;
        }());
    return instance;
}

}  // namespace

namespace detail {

ExperimentSpec embedded_spec(const std::string& file) {
    return parse_experiment_spec(embedded_spec_text(file),
                                 "examples/experiments/" + file);
}

void add_spec_file(ExperimentTable& into, const std::string& file,
                   std::function<int(const ExperimentRunContext&)> report) {
    ExperimentSpec spec = embedded_spec(file);
    const std::string name = spec.name;
    into[name] = [spec = std::move(spec), report = std::move(report)] {
        Experiment experiment;
        experiment.spec = spec;
        experiment.report = report;
        return experiment;
    };
}

}  // namespace detail

SystemKind parse_system_kind(const std::string& kind) {
    if (kind == "ours-qlearning") return SystemKind::kOursQLearning;
    if (kind == "ours-static") return SystemKind::kOursStatic;
    if (kind == "ours-policy") return SystemKind::kOursPolicy;
    if (kind == "sonic") return SystemKind::kSonicNet;
    if (kind == "sparse") return SystemKind::kSpArSeNet;
    if (kind == "lenet") return SystemKind::kLeNetCifar;
    throw std::invalid_argument(
        "unknown system kind '" + kind +
        "' (expected ours-qlearning, ours-static, ours-policy, sonic, "
        "sparse, lenet)");
}

core::SetupConfig quick_setup_config(core::SetupConfig config) {
    // Shrink only: a spec-file trace already below the smoke-run scale must
    // not be inflated (stretching it to 4000 s would *add* harvest energy
    // and events, making --quick heavier than the full run). File-backed
    // sources (csv) take their length from the file, not duration_s:
    // scaling their harvest budget would starve the same-length replay
    // instead of shortening it, so quick mode only caps their schedule.
    const double quick_duration_s = 4000.0;
    if (energy::trace_source_uses_context_duration(config.trace_source) &&
        config.duration_s > quick_duration_s) {
        config.total_harvest_mj *= quick_duration_s / config.duration_s;
        config.duration_s = quick_duration_s;
    }
    config.event_count = std::min(config.event_count, 150);
    return config;
}

core::SetupConfig sweep_setup_config(const SweepCli& options) {
    core::SetupConfig config;
    if (options.quick) config = quick_setup_config(config);
    return config;
}

int sweep_episodes(const SweepCli& options, int full_default) {
    return options.quick ? 4 : full_default;
}

SweepCli resolve_options(const ExperimentSpec& spec, const SweepCli& options) {
    SweepCli resolved = options;
    if (!resolved.replicas_given) resolved.replicas = spec.replicas;
    IMX_EXPECTS(resolved.replicas >= 1);
    if (!resolved.base_seed_given) resolved.base_seed = spec.base_seed;
    return resolved;
}

PaperSweep make_sweep(const ExperimentSpec& spec, const SweepCli& options) {
    const SweepCli resolved = resolve_options(spec, options);
    if (spec.systems.empty()) {
        throw std::invalid_argument("experiment '" + spec.name +
                                    "' declares no [system]");
    }
    const bool has_policy_axis = !spec.policies.empty();
    const bool has_recovery_axis = !spec.recoveries.empty();

    PaperSweep sweep;
    sweep.replicas = resolved.replicas;
    sweep.base_seed = resolved.base_seed;

    sweep.traces.clear();
    for (const auto& trace : spec.traces) {
        if (trace.label.empty()) {
            throw std::invalid_argument("experiment '" + spec.name +
                                        "': trace with empty label");
        }
        // A repeated label would expand to colliding scenario ids/groups:
        // aggregation would silently fold distinct cells together and
        // canonical lookups would only ever see the first.
        for (const auto& existing : sweep.traces) {
            if (existing.label == trace.label) {
                throw std::invalid_argument("experiment '" + spec.name +
                                            "': duplicate trace label '" +
                                            trace.label + "'");
            }
        }
        core::SetupConfig config = trace.config;
        if (resolved.quick) config = quick_setup_config(config);
        sweep.traces.emplace_back(trace.label, config);
    }

    sweep.systems.clear();
    for (const auto& entry : spec.systems) {
        if (entry.label.empty()) {
            throw std::invalid_argument("experiment '" + spec.name +
                                        "': system with empty label");
        }
        for (const auto& existing : sweep.systems) {
            if (existing.label == entry.label) {
                throw std::invalid_argument("experiment '" + spec.name +
                                            "': duplicate system label '" +
                                            entry.label + "'");
            }
        }
        const SystemKind kind = parse_system_kind(entry.kind);
        const bool multi_exit = kind == SystemKind::kOursQLearning ||
                                kind == SystemKind::kOursStatic ||
                                kind == SystemKind::kOursPolicy;
        if (!multi_exit && !entry.policy.empty()) {
            throw std::invalid_argument(
                "system '" + entry.label + "': baseline kind '" + entry.kind +
                "' cannot name an exit policy");
        }
        if (!multi_exit && has_policy_axis) {
            throw std::invalid_argument(
                "system '" + entry.label + "': a [patch.policy] axis cannot "
                "cross a checkpointed baseline (no exit choice to override)");
        }
        if (!multi_exit && has_recovery_axis) {
            throw std::invalid_argument(
                "system '" + entry.label + "': a [recovery.*] axis cannot "
                "cross a checkpointed baseline (its runtime is itself a "
                "recovery configuration)");
        }
        if (kind == SystemKind::kOursPolicy && entry.policy.empty() &&
            !has_policy_axis) {
            throw std::invalid_argument(
                "system '" + entry.label +
                "': kind ours-policy needs a policy name (or a "
                "[patch.policy] axis)");
        }
        if (!entry.policy.empty() && !sim::has_policy(entry.policy)) {
            throw std::invalid_argument("system '" + entry.label +
                                        "': unknown exit policy '" +
                                        entry.policy + "'");
        }
        SystemSpec system;
        system.label = entry.label;
        system.kind = kind;
        system.policy = entry.policy;
        system.train_episodes = resolved.quick ? entry.quick_train_episodes
                                               : entry.train_episodes;
        sweep.systems.push_back(std::move(system));
    }

    // Axis values must be unique: like a duplicate trace label, a repeated
    // value would register two identical grid cells under one group and
    // silently skew the aggregation's replica counts.
    const auto push_unique = [&](std::vector<SimPatch>& axis,
                                 SimPatch patch) {
        for (const auto& existing : axis) {
            if (existing.label == patch.label) {
                throw std::invalid_argument(
                    "duplicate value '" + patch.label +
                    "' on a patch axis of experiment '" + spec.name + "'");
            }
        }
        axis.push_back(std::move(patch));
    };
    std::vector<std::vector<SimPatch>> axes;
    if (!spec.arrivals.empty()) {
        std::vector<SimPatch> axis;
        for (const auto& cell : spec.arrivals) {
            // arrival_patch() trial-builds the source, so unknown names and
            // bad parameters throw here with the axis context.
            push_unique(axis, arrival_patch(cell));
        }
        axes.push_back(std::move(axis));
    }
    if (!spec.storage_mj.empty()) {
        std::vector<SimPatch> axis;
        for (const double capacity : spec.storage_mj) {
            if (!(capacity > 0.0)) {
                throw std::invalid_argument(
                    "storage capacity must be positive, got " +
                    std::to_string(capacity));
            }
            push_unique(axis, storage_patch(capacity));
        }
        axes.push_back(std::move(axis));
    }
    if (!spec.deadline_s.empty()) {
        std::vector<SimPatch> axis;
        for (const double deadline : spec.deadline_s) {
            if (!(deadline > 0.0)) {
                throw std::invalid_argument(
                    "deadline must be positive (or inf), got " +
                    std::to_string(deadline));
            }
            push_unique(axis, deadline_patch(deadline));
        }
        axes.push_back(std::move(axis));
    }
    if (!spec.queue_capacity.empty()) {
        std::vector<SimPatch> axis;
        for (const int capacity : spec.queue_capacity) {
            if (capacity < 0) {
                throw std::invalid_argument(
                    "queue capacity must be >= 0, got " +
                    std::to_string(capacity));
            }
            push_unique(axis, queue_patch(capacity));
        }
        axes.push_back(std::move(axis));
    }
    if (has_policy_axis) {
        std::vector<SimPatch> axis;
        for (const auto& policy : spec.policies) {
            if (!sim::has_policy(policy)) {
                throw std::invalid_argument("unknown exit policy '" + policy +
                                            "' on the [patch.policy] axis");
            }
            push_unique(axis, policy_patch(policy));
        }
        axes.push_back(std::move(axis));
    }
    if (has_recovery_axis) {
        std::vector<SimPatch> axis;
        for (const auto& cell : spec.recoveries) {
            // recovery_patch() trial-builds the strategy, so unknown names
            // and bad cost parameters throw here with the axis context.
            push_unique(axis, recovery_patch(cell));
        }
        axes.push_back(std::move(axis));
    }
    if (!axes.empty()) {
        std::vector<SimPatch> grid = axes.front();
        for (std::size_t i = 1; i < axes.size(); ++i) {
            grid = cross_patches(grid, axes[i]);
        }
        sweep.patches = std::move(grid);
    }
    return sweep;
}

std::vector<ScenarioSpec> expand_experiment(const ExperimentSpec& spec,
                                            const SweepCli& options) {
    return build_paper_scenarios(make_sweep(spec, options));
}

Experiment make_experiment(const std::string& name) {
    Experiment experiment = registry().get(name)();
    IMX_EXPECTS(!experiment.spec.name.empty());
    return experiment;
}

std::vector<std::string> experiment_names() { return registry().names(); }

std::string experiment_description(const std::string& name) {
    return make_experiment(name).spec.description;
}

std::vector<ScenarioSpec> build_experiment_scenarios(
    const Experiment& experiment, const SweepCli& options) {
    const SweepCli resolved = resolve_options(experiment.spec, options);
    if (!experiment.allow_positional) require_no_positional(resolved);
    if (experiment.build) return experiment.build(experiment.spec, resolved);
    return expand_experiment(experiment.spec, resolved);
}

namespace {

void write_csv_if_requested(const SweepCli& resolved,
                            const std::vector<ScenarioSpec>& specs,
                            const std::vector<ScenarioOutcome>& outcomes) {
    if (resolved.csv.empty()) return;
    // A bad path must not lose the sweep results that follow.
    try {
        write_aggregate_csv(resolved.csv, aggregate(specs, outcomes));
        std::printf("aggregate CSV written to %s\n", resolved.csv.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "warning: %s\n", e.what());
    }
}

/// The --profile epilogue, printed after the report so the report itself
/// is byte-identical with and without the flag. Format: docs/profiling.md.
void emit_profile(SweepProfile profile) {
    const sim::SimCounters& c = profile.counters;
    std::printf("\n");
    // A grid that ran no simulator (the compression searches) has no
    // counter table to show.
    if (c.runs > 0) {
        const std::pair<const char*, std::uint64_t> rows[] = {
            {"runs", c.runs},
            {"full_steps", c.full_steps},
            {"drained_steps", c.drained_steps},
            {"decisions", c.decisions},
            {"unit_starts", c.unit_starts},
            {"evaluations", c.evaluations},
            {"queue_pushes", c.queue_pushes},
            {"queue_pops", c.queue_pops},
        };
        std::printf("simulator work counters (docs/profiling.md):\n");
        std::printf("%-14s %16s %12s\n", "counter", "total", "per run");
        for (const auto& [name, total] : rows) {
            std::printf("%-14s %16" PRIu64 " %12.2f\n", name, total,
                        static_cast<double>(total) /
                            static_cast<double>(c.runs));
        }
    }
    std::vector<double>& times = profile.scenario_s;
    std::sort(times.begin(), times.end());
    std::printf("%zu scenario(s), wall time total %.3f s", times.size(),
                std::accumulate(times.begin(), times.end(), 0.0));
    if (!times.empty()) {
        std::printf(", p50 %.3f ms, p99 %.3f ms, max %.3f ms",
                    1e3 * util::percentile(times, 0.50),
                    1e3 * util::percentile(times, 0.99), 1e3 * times.back());
    }
    std::printf("\n");
}

}  // namespace

int run_experiment(const Experiment& experiment, const SweepCli& options) {
    const SweepCli resolved = resolve_options(experiment.spec, options);
    const auto specs = build_experiment_scenarios(experiment, resolved);

    JournalHeader header;
    header.experiment = experiment.spec.name;
    header.total_specs = specs.size();
    header.shard = resolved.shard;
    header.base_seed = resolved.base_seed;
    header.quick = resolved.quick;
    header.replicas = resolved.replicas;

    if (!resolved.merge.empty()) {
        if (resolved.profile) {
            std::fprintf(stderr,
                         "warning: --profile ignored with --merge (no "
                         "scenarios execute)\n");
        }
        const auto outcomes =
            merge_journal_outcomes(header, specs, resolved.merge);
        write_csv_if_requested(resolved, specs, outcomes);
        const ExperimentRunContext context{experiment.spec, resolved, specs,
                                           outcomes};
        // Journals carry scalar metrics only (no SimResults), so merged runs
        // report through the generic aggregate path — which is exactly what
        // makes the merged table/CSV byte-identical to a single-process run
        // of a spec-file grid.
        return generic_report(context);
    }

    RunnerConfig runner;
    runner.threads = resolved.threads;
    SweepProfile profile;
    if (resolved.profile) runner.profile = &profile;
    const ShardRunResult shard_run =
        run_shard(specs, header, runner, resolved.journal, resolved.resume);
    if (shard_run.reused > 0) {
        std::fprintf(stderr, "resumed %zu of %zu scenario(s) from %s\n",
                     shard_run.reused, shard_run.specs.size(),
                     resolved.journal.c_str());
    }
    write_csv_if_requested(resolved, shard_run.specs, shard_run.outcomes);
    const ExperimentRunContext context{experiment.spec, resolved,
                                       shard_run.specs, shard_run.outcomes};
    // Custom reports may read per-event SimResults and expect the full grid;
    // a sharded slice or a resume (whose replayed outcomes are metrics-only)
    // falls back to the generic aggregate table. The default unsharded,
    // non-resumed path is bit-for-bit the historical behaviour.
    const bool full_grid =
        resolved.shard.count == 1 && shard_run.reused == 0;
    const int code = full_grid && experiment.report
                         ? experiment.report(context)
                         : generic_report(context);
    if (resolved.profile) emit_profile(std::move(profile));
    return code;
}

}  // namespace imx::exp
