/// \file
/// \brief Power-failure and recovery model of the intermittent runtime.
///
/// The simulator executes every committed exit (and every hop) as a sequence
/// of pre-paid atomic *units* (plan_units_into). Each unit starts only once
/// its full energy cost is buffered, so execution itself never browns out.
/// Without the failure model the plan is a single unit: the paper's
/// pre-buffered runtime. With it, units are per-layer or per-exit
/// checkpoints of the exit's path. Between units the powered device idles,
/// drawing leakage plus RecoveryConfig::active_power_mw; when the buffer sags
/// below energy::StorageConfig::death_threshold_mj the run *dies*: committed
/// progress survives (or not) according to the RecoveryStrategy, the device
/// charges back to the turn-on threshold, pays the reboot/restore cost, and
/// resumes from the last surviving unit.
///
/// Built-in strategies (registry.hpp):
///  * "restart"         — SONIC's null hypothesis: all progress lost, free.
///  * "checkpoint"      — NVM checkpoint per unit (write cost per commit,
///                        flat restore cost at reboot) [arxiv 1810.07751].
///  * "checkpoint-free" — state held in retentive memory: zero write cost,
///                        per-surviving-unit restore penalty
///                        [arxiv 2503.06663].
#ifndef IMX_SIM_RECOVERY_STRATEGY_HPP
#define IMX_SIM_RECOVERY_STRATEGY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/inference_model.hpp"

namespace imx::sim {

/// \brief How densely the execution plan is cut into commit units.
enum class CheckpointGranularity {
    kPerLayer,  ///< one unit per network layer on the exit's path
    kPerExit,   ///< one unit per intermediate-exit trunk junction
};

/// \brief Parse "layer" / "exit".
/// \throws std::invalid_argument on anything else.
CheckpointGranularity parse_granularity(const std::string& text);

/// \brief The inverse of parse_granularity().
std::string granularity_name(CheckpointGranularity granularity);

/// \brief All knobs of the failure/recovery model (sim::SimConfig::recovery).
/// The death threshold itself lives with the other power thresholds in
/// energy::StorageConfig::death_threshold_mj.
struct RecoveryConfig {
    /// Master switch. Off (the default), every commit and hop is one
    /// pre-paid unit with a free commit: the paper's pre-buffered runtime,
    /// which never stalls mid-inference and so never dies.
    bool enabled = false;
    /// Recovery-strategy registry name (sim/recovery/registry.hpp).
    std::string strategy = "restart";
    CheckpointGranularity granularity = CheckpointGranularity::kPerLayer;
    /// "checkpoint": NVM write cost charged as each unit commits.
    double checkpoint_energy_mj = 0.02;
    /// "checkpoint": flat restore cost charged at reboot.
    double restore_energy_mj = 0.01;
    /// "checkpoint-free": restore penalty per surviving unit at reboot.
    double restore_penalty_mj = 0.002;
    /// Static draw of the powered device while it is stalled mid-inference
    /// waiting to afford its next unit. This is what drags the buffer below
    /// the death threshold when harvesting pauses; 0 leaves leakage as the
    /// only downward force.
    double active_power_mw = 0.0;
};

/// \brief Per-death decisions of one recovery strategy. Implementations must
/// be deterministic and thread-safe-by-confinement (one instance per run).
class RecoveryStrategy {
public:
    virtual ~RecoveryStrategy() = default;
    RecoveryStrategy() = default;
    RecoveryStrategy(const RecoveryStrategy&) = delete;
    RecoveryStrategy& operator=(const RecoveryStrategy&) = delete;

    /// \brief Energy charged as one execution unit commits (the NVM
    /// checkpoint write), mJ. Charged per unit, alongside its compute cost.
    [[nodiscard]] virtual double commit_cost_mj() const = 0;

    /// \brief How many of `committed` finished units survive a power
    /// failure. Must be in [0, committed].
    [[nodiscard]] virtual int surviving_units(int committed) const = 0;

    /// \brief Energy charged at reboot (on top of the MCU wakeup cost)
    /// before execution resumes, mJ, given the surviving unit count.
    [[nodiscard]] virtual double restore_cost_mj(int surviving) const = 0;
};

/// \brief Cut the work to advance from `from_exit` (-1 = from scratch) to
/// `to_exit` into commit units under the given granularity.
///
/// kPerLayer delegates to InferenceModel::segment_macs(); kPerExit places a
/// boundary where the target's path passes each intermediate exit's trunk
/// junction, derived from incremental_macs() alone so any model supports it.
/// Zero-MAC segments are dropped; the result is non-empty and sums to
/// incremental_macs(from_exit, to_exit).
std::vector<std::int64_t> recovery_units(const InferenceModel& model,
                                         int from_exit, int to_exit,
                                         CheckpointGranularity granularity);

/// \brief recovery_units() into a caller-owned buffer (replaced, capacity
/// reused) — the allocation-free path the simulator takes through
/// sim::ScenarioWorkspace. Produces exactly the values recovery_units()
/// would.
void recovery_units_into(const InferenceModel& model, int from_exit,
                         int to_exit, CheckpointGranularity granularity,
                         std::vector<std::int64_t>& units);

/// \brief The simulator's execution plan for advancing from `from_exit` (-1
/// = from scratch) to `to_exit`, written into `units` (capacity reused).
///
/// With the failure model on, the plan is recovery_units_into() under
/// `recovery.granularity`. Off, it is a single unit of
/// incremental_macs(from_exit, to_exit): the paper's pre-buffered runtime,
/// which starts an exit (or hop) only once all of it is affordable.
void plan_units_into(const InferenceModel& model, int from_exit, int to_exit,
                     const RecoveryConfig& recovery,
                     std::vector<std::int64_t>& units);

}  // namespace imx::sim

#endif  // IMX_SIM_RECOVERY_STRATEGY_HPP
