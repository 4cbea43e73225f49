/// \file
/// \brief Declarative experiment API: a value type that fully describes a
/// sweep, a string -> factory experiment registry, and the shared driver
/// the `imx_sweep` binary runs every experiment through.
///
/// An ExperimentSpec names everything a factorial paper sweep needs —
/// traces, systems (label + kind + exit policy + train episodes), the
/// storage / deadline / policy patch axes, replicas, and the metrics the
/// generic report prints. expand_experiment() turns one into ScenarioSpecs
/// via the existing PaperSweep machinery, so a spec-file grid and a
/// hand-written PaperSweep expand through identical code paths.
///
/// The registry mirrors sim/policies/registry.hpp: a fixed
/// util::Registry table of string -> factory, built on first use. The
/// declarative built-in grids are the shipped examples/experiments/*.ini
/// files, compiled into the library and listed with a C++ report; grids
/// the declarative spec cannot express (custom traces, search scenarios,
/// learning curves) carry a custom `build` function instead.
#ifndef IMX_EXP_EXPERIMENT_HPP
#define IMX_EXP_EXPERIMENT_HPP

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/experiment_setup.hpp"
#include "exp/cli.hpp"
#include "exp/paper_scenarios.hpp"

namespace imx::exp {

/// One entry on the trace axis: a label plus the SetupConfig it is built
/// from (the spec parser applies per-key overrides to the canonical
/// defaults). Quick mode shrinks the config at expansion time.
struct TraceEntry {
    std::string label = "paper-solar";
    core::SetupConfig config = {};
};

/// One entry on the system axis. `kind` is a string so spec files and
/// registry descriptions stay self-describing; parse_system_kind() maps it
/// onto exp::SystemKind.
struct SystemEntry {
    std::string label;
    /// "ours-qlearning" | "ours-static" | "ours-policy" | "sonic" |
    /// "sparse" | "lenet".
    std::string kind = "ours-qlearning";
    /// sim::policies registry name; required for "ours-policy" (unless a
    /// policy patch axis supplies one), must be empty for the baselines.
    std::string policy;
    int train_episodes = 16;       ///< learning policies, full runs
    int quick_train_episodes = 4;  ///< learning policies under --quick
};

/// A fully declarative sweep description: everything `imx_sweep` needs to
/// expand and run a trace x system x storage x deadline x policy x replica
/// grid, whether it came from a spec file or a registered built-in.
struct ExperimentSpec {
    std::string name;
    std::string description;  ///< one-line "when to use", shown by --list
    std::string title;        ///< generic report table title; default: name
    std::vector<TraceEntry> traces = {TraceEntry{}};
    std::vector<SystemEntry> systems;
    /// Patch axes (empty = axis absent). Non-empty axes cross into a full
    /// factorial grid in arrivals -> storage -> deadline -> queue -> policy
    /// -> recovery order via cross_patches(), exactly like the hand-written
    /// ablation benches.
    /// Request-workload axis ([arrivals.<label>] spec sections or
    /// arrival_patch() cells): each cell regenerates the event schedule
    /// through a named arrival source.
    std::vector<ArrivalCell> arrivals;
    std::vector<double> storage_mj;
    std::vector<double> deadline_s;  ///< infinity = explicit ddl-none cell
    /// Bounded-request-queue axis: sim::SimConfig::queue_capacity values
    /// (0 = the historical no-queue cell).
    std::vector<int> queue_capacity;
    std::vector<std::string> policies;
    /// Power-failure/recovery axis ([recovery.<label>] spec sections or
    /// recovery_patch() cells); multi-exit systems only.
    std::vector<RecoveryCell> recoveries;
    int replicas = 1;  ///< default; `--replicas` on the CLI overrides
    /// Metric columns of the generic aggregate-table report.
    std::vector<std::string> metrics = {"iepmj", "acc_all_pct", "processed"};
    std::uint64_t base_seed = kDefaultBaseSeed;
};

/// \brief Map a spec kind string onto the scenario-layer enum.
/// \throws std::invalid_argument for unknown kinds (message lists them all).
SystemKind parse_system_kind(const std::string& kind);

/// \brief Quick-mode shrink: compress the trace to at most 4000 s at the
/// same harvest-per-second density and cap the schedule at 150 events —
/// the benches' historical `--quick` behaviour. Configs already below the
/// smoke scale are left alone (shrink only, never inflate).
core::SetupConfig quick_setup_config(core::SetupConfig config);

/// The canonical paper setup config (shrunk when options.quick).
core::SetupConfig sweep_setup_config(const SweepCli& options);

/// Q-learning training episodes for a full run (4 under --quick).
int sweep_episodes(const SweepCli& options, int full_default);

/// \brief Resolve CLI options against a spec's defaults: flags that were
/// given on the command line win, otherwise the spec's replicas/base_seed
/// apply.
SweepCli resolve_options(const ExperimentSpec& spec, const SweepCli& options);

/// \brief Expand a declarative spec into the PaperSweep it denotes.
/// \throws std::invalid_argument on contract violations the spec text can
///   express (unknown kind, unknown policy, non-positive axis value,
///   duplicate system label, policy on a baseline system).
PaperSweep make_sweep(const ExperimentSpec& spec, const SweepCli& options);

/// expand_experiment(spec, options) == build_paper_scenarios(make_sweep()).
std::vector<ScenarioSpec> expand_experiment(const ExperimentSpec& spec,
                                            const SweepCli& options);

/// Everything a custom report may read: the resolved options, the expanded
/// grid, and the (specs-parallel) outcomes. Custom reports only ever see a
/// full, freshly-run grid — sharded, resumed, and merged runs report
/// through the generic aggregate path because journaled outcomes carry
/// scalar metrics only.
struct ExperimentRunContext {
    const ExperimentSpec& spec;
    const SweepCli& options;
    const std::vector<ScenarioSpec>& specs;
    const std::vector<ScenarioOutcome>& outcomes;
};

/// A runnable experiment: the declarative spec plus optional custom hooks.
struct Experiment {
    ExperimentSpec spec;
    /// Accept positional CLI arguments (e.g. an episode count)? When false
    /// build_experiment_scenarios() rejects strays via
    /// require_no_positional().
    bool allow_positional = false;
    /// Custom grid builder; empty = expand_experiment(spec, options).
    std::function<std::vector<ScenarioSpec>(const ExperimentSpec&,
                                            const SweepCli&)>
        build;
    /// Custom report over the outcomes, returning the process exit code;
    /// empty = the generic aggregate table over spec.metrics.
    std::function<int(const ExperimentRunContext&)> report;
};

/// \brief Construct a registered experiment by name.
/// \throws std::invalid_argument for unknown names (the message lists every
///   registered name, so CLI typos are self-explaining).
Experiment make_experiment(const std::string& name);

/// \brief Every registered name, sorted.
[[nodiscard]] std::vector<std::string> experiment_names();

/// \brief One-line description of a registered experiment (for --list).
[[nodiscard]] std::string experiment_description(const std::string& name);

/// \brief Expand an experiment's grid without running it (used by the
/// driver's --dry-run and by run_experiment). Resolves options first.
/// \throws std::invalid_argument on a stray or malformed positional
///   argument, or on a spec the expansion rejects.
std::vector<ScenarioSpec> build_experiment_scenarios(
    const Experiment& experiment, const SweepCli& options);

/// \brief The shared driver: resolve options, build the grid, then either
/// fold shard journals (--merge) or run the selected shard of the parallel
/// sweep (optionally journaling / resuming), write the optional aggregate
/// CSV, and report. The default unsharded run uses the experiment's custom
/// report hook when it has one; sharded slices, resumed runs, and merges
/// report through the generic aggregate table (see ExperimentRunContext).
/// \return the process exit code.
int run_experiment(const Experiment& experiment, const SweepCli& options);

}  // namespace imx::exp

#endif  // IMX_EXP_EXPERIMENT_HPP
