/// \file
/// \brief Declarative scenario registry for the paper's evaluation grid:
/// power trace x system (ours vs SONIC-style checkpointed baselines) x
/// sim-config patch (storage capacity, deadline, ...) x seed replica,
/// anchored on the canonical setups from core/experiment_setup.
/// build_paper_scenarios() expands the grid into self-contained
/// ScenarioSpecs for the parallel runner; the make_*_scenario factories
/// wrap the search, learning-curve, and exit-accuracy experiments the
/// remaining benches need.
///
/// Replica semantics: replica 0 reproduces the canonical single-run numbers
/// the fig* benches have always printed (event seed 99, Q-learning training
/// schedules 2000+ep, runtime seed from RuntimeConfig); replicas >= 1 derive
/// fresh event-arrival and learning streams from the scenario seed, giving
/// independent samples for the mean/CI aggregation.
#ifndef IMX_EXP_PAPER_SCENARIOS_HPP
#define IMX_EXP_PAPER_SCENARIOS_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment_setup.hpp"
#include "core/search.hpp"
#include "exp/cli.hpp"  // kDefaultBaseSeed
#include "exp/scenario.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/recovery/strategy.hpp"

namespace imx::exp {

enum class SystemKind {
    kOursQLearning,  ///< multi-exit runtime, learned exit policy
    kOursStatic,     ///< multi-exit runtime, static greedy LUT
    kOursPolicy,     ///< multi-exit runtime, policy named by SystemSpec /
                     ///< policy_patch via the sim::policies registry
    kSonicNet,       ///< checkpointed baselines [Gobieski et al.]
    kSpArSeNet,
    kLeNetCifar,
};

struct SystemSpec {
    std::string label;
    SystemKind kind = SystemKind::kOursQLearning;
    int train_episodes = 16;            ///< learning policies only
    sim::RuntimeConfig runtime = {};    ///< learning policies only
    /// Registry name of the exit policy to run (sim::make_policy). Resolved
    /// per scenario: an explicit name (or one injected by policy_patch) wins;
    /// otherwise kOursQLearning implies "qlearning" and kOursStatic implies
    /// "greedy". Must be empty for the checkpointed baseline kinds, and
    /// non-empty (or patched in) for kOursPolicy.
    std::string policy;
};

struct TraceSpec {
    TraceSpec() = default;
    /// `prebuilt` is an optional already-constructed setup; when set,
    /// build_paper_scenarios() shares it instead of building one from
    /// `config` (which is then ignored).
    TraceSpec(std::string label_, core::SetupConfig config_,
              std::shared_ptr<const core::ExperimentSetup> prebuilt_ = nullptr)
        : label(std::move(label_)),
          config(config_),
          prebuilt(std::move(prebuilt_)) {}

    std::string label = "paper-solar";
    core::SetupConfig config = {};
    std::shared_ptr<const core::ExperimentSetup> prebuilt;
};

/// Optional sim-config axis (e.g. storage capacity, deadline sweeps). The
/// patch is applied to copies of both the multi-exit and checkpointed
/// SimConfig before the scenario runs. An empty label means "no patch" and
/// is omitted from scenario ids.
struct SimPatch {
    std::string label;
    std::function<void(sim::SimConfig&)> apply;
    /// Optional setup-level hook, applied once to the cell's copied setup
    /// (after `apply` patched both SimConfigs). Axes that change the
    /// workload itself — e.g. arrival_patch() regenerating the event
    /// schedule — live here; sim-config-only axes leave it empty.
    std::function<void(core::ExperimentSetup&)> apply_setup;
    /// Extra axis labels merged into every member spec's dims (and therefore
    /// into aggregate CSV columns), e.g. {"storage_mj", "3.0"}.
    std::map<std::string, std::string> dims;
    /// Optional exit-policy override (a sim::policies registry name): every
    /// multi-exit "ours" system in the patched cell runs this policy instead
    /// of its kind's default. Empty = no override. Crossing a policy patch
    /// with a checkpointed baseline system is a contract violation (the
    /// baselines have no exit choice to override).
    std::string policy;
};

// --- Patch-axis factories -------------------------------------------------

/// Energy-storage capacity axis (wired through energy::StorageConfig): sets
/// storage.capacity_mj, clamping initial_mj to the new capacity. Labels the
/// cell "capXmJ" with dims {"storage_mj": "X"}.
SimPatch storage_patch(double capacity_mj);

/// Inference-deadline axis: sets sim::SimConfig::deadline_s so the sweep
/// reports a deadline_miss_pct metric and the simulator drops hopelessly
/// late waiting jobs. Labels the cell "ddlXs" with dims {"deadline_s": "X"};
/// an infinite deadline yields the explicit no-deadline cell "ddl-none".
/// \pre deadline_s > 0 (infinity allowed).
SimPatch deadline_patch(double deadline_s);

/// Exit-policy axis: names a sim::policies registry policy (validated at
/// patch construction, so typos fail before the sweep runs) that every
/// "ours" system in the cell must run. Labels the cell "pol-<name>" with
/// dims {"policy": name}. The SimConfig itself is untouched.
SimPatch policy_patch(const std::string& policy_name);

/// One cell of the power-failure/recovery axis: a failure-model
/// configuration plus an optional death-threshold override.
struct RecoveryCell {
    /// Cell label (the axis value, without the "rec-" prefix). Empty derives
    /// one: "none" when the model is disabled, otherwise the strategy name
    /// with a "-layer"/"-exit" granularity suffix (omitted for "restart",
    /// whose granularity is irrelevant).
    std::string label;
    sim::RecoveryConfig config;
    /// Override for energy::StorageConfig::death_threshold_mj; negative
    /// (the default) keeps the storage config's own threshold. Setting it on
    /// a disabled cell is a contract violation (it could never take effect).
    double death_threshold_mj = -1.0;
};

/// Power-failure/recovery axis: patches sim::SimConfig::recovery (and
/// optionally the storage death threshold) onto the multi-exit runtime.
/// The strategy name and cost parameters are validated at patch
/// construction by trial-building the strategy. Labels the cell
/// "rec-<label>" with dims {"recovery", <label>}; build_paper_scenarios()
/// rejects a cell with that dim crossed with a checkpointed baseline, whose
/// runtime is itself a recovery configuration
/// (baselines::checkpointed_sim_config).
SimPatch recovery_patch(const RecoveryCell& cell);

/// One cell of the request-workload axis: an arrival registry source plus
/// its parameters.
struct ArrivalCell {
    /// Cell label (the axis value, without the "arr-" prefix). Empty
    /// derives the source name.
    std::string label;
    std::string source = "uniform";  ///< sim arrival-registry name
    sim::ArrivalParams params;
    /// The source already built from `source` and `params` (the spec parser
    /// builds it to check them), which arrival_patch() then uses instead of
    /// building it again; null builds it there.
    std::shared_ptr<const sim::ArrivalSource> built;
};

/// Request-workload axis: regenerates the cell's event schedule through the
/// named arrival source (sim/arrivals/registry.hpp) over the setup's own
/// trace duration, event count, and event seed, and stores the source in
/// the setup (ExperimentSetup::arrivals) so replicas >= 1 draw independent
/// streams from the same process. The source (the cell's `built` one when
/// set) is built, and its name and parameters validated, once at patch
/// construction; every cell the patch applies to shares it. Labels the cell
/// "arr-<label>" with dims {"arrivals", <label>}.
SimPatch arrival_patch(const ArrivalCell& cell);

/// Bounded-request-queue axis: sets sim::SimConfig::queue_capacity (0 = the
/// historical no-queue model). Labels the cell "qN" with dims
/// {"queue_capacity", "N"}.
/// \pre capacity >= 0.
SimPatch queue_patch(int capacity);

/// Cross product of two patch axes, in a-major order: each combination
/// applies both patches (a's then b's), joins non-empty labels with "+",
/// and merges dims (b wins on key collision; likewise a non-empty policy
/// override in b wins over a's). Use to register e.g. a storage x deadline
/// x policy grid as one PaperSweep patch axis.
std::vector<SimPatch> cross_patches(const std::vector<SimPatch>& a,
                                    const std::vector<SimPatch>& b);

struct PaperSweep {
    std::vector<TraceSpec> traces = {TraceSpec{}};
    std::vector<SystemSpec> systems;  ///< default: paper_systems()
    std::vector<SimPatch> patches = {SimPatch{}};
    int replicas = 1;
    std::uint64_t base_seed = kDefaultBaseSeed;
};

/// The Fig. 5 comparison set: ours (Q-learning) plus the three baselines.
std::vector<SystemSpec> paper_systems(int train_episodes = 16);

/// Expand the grid. Scenario ids are "trace/system[/patch]#replica"; the
/// group (aggregation key) is the id minus the replica suffix.
std::vector<ScenarioSpec> build_paper_scenarios(const PaperSweep& sweep);

/// Run one system on a prebuilt setup under the replica semantics above.
/// Multi-exit systems resolve their exit policy through the sim::policies
/// registry (SystemSpec::policy, with kOursQLearning defaulting to
/// "qlearning" and kOursStatic to "greedy"); trainable policies get
/// system.train_episodes training episodes first. Exposed for the
/// learning-curve scenarios and targeted tests.
ScenarioOutcome run_system_scenario(const core::ExperimentSetup& setup,
                                    const SystemSpec& system,
                                    const ScenarioContext& ctx,
                                    std::vector<double>* learning_curve = nullptr);

// --- Learning-curve scenarios (fig7a) -------------------------------------

/// A system scenario that additionally records the per-training-episode
/// all-event accuracy (%) as metrics "curve_ep01", "curve_ep02", ... —
/// 1-based and zero-padded, so MetricMap order is episode order — alongside
/// the standard sim metrics. With --replicas N the aggregation therefore
/// yields a mean/CI learning curve per episode. Replica semantics match
/// run_system_scenario(); only Q-learning systems produce curve points.
ScenarioSpec make_learning_curve_scenario(
    std::shared_ptr<const core::ExperimentSetup> setup,
    const SystemSpec& system, const std::string& trace_label = "paper-solar",
    int replica = 0, std::uint64_t base_seed = kDefaultBaseSeed);

// --- Exit-accuracy scenarios (fig1b) --------------------------------------

/// The Fig. 1b compression variants of the deployed multi-exit network.
enum class CompressionVariant { kFullPrecision, kUniform, kNonuniform };

/// A deterministic, simulation-free scenario computing the per-exit oracle
/// accuracy of one compression variant on the paper network, plus its
/// footprint. Metrics: exit1_acc_pct..exit3_acc_pct, total_macs_m, model_kb.
/// Being RNG-free, every replica returns identical numbers.
ScenarioSpec make_exit_accuracy_scenario(CompressionVariant variant,
                                         const std::string& label,
                                         int replica = 0,
                                         std::uint64_t base_seed = kDefaultBaseSeed);

// --- Compression-search scenarios (fig4 / ablation-search) ----------------

enum class SearchAlgo { kDdpg, kDdpgRefined, kRandom, kAnnealing };

/// A search scenario: builds its own evaluator stack over the shared setup,
/// runs the algorithm, and returns metrics (best_racc, evaluations,
/// feasible, total_macs_m, model_kb) with the full core::SearchResult in the
/// outcome payload. Replica 0 keeps the canonical SearchConfig seed.
ScenarioSpec make_search_scenario(
    std::shared_ptr<const core::ExperimentSetup> setup, SearchAlgo algo,
    const std::string& label, const core::SearchConfig& config,
    int replica = 0, std::uint64_t base_seed = kDefaultBaseSeed);

}  // namespace imx::exp

#endif  // IMX_EXP_PAPER_SCENARIOS_HPP
