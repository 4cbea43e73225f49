// Event-driven intermittent-inference simulator.
//
// One execution model: when an event is picked up the policy commits to an
// exit, which then runs as a plan of pre-paid atomic units
// (sim::plan_units_into); afterwards the policy may hop to deeper exits,
// each hop a plan of its own. Without the power-failure model
// (SimConfig::recovery) a plan is one unit: the paper's runtime, which
// completes an exit *within one power cycle*. With it, plans are cut into
// checkpoint units, and a device stalled between units can brown out and
// resume under a recovery strategy. The SONIC-style baselines [Gobieski et
// al.] are a configuration of it (baselines::checkpointed_sim_config):
// step-sized units, each committing an NVM checkpoint, across as many power
// cycles as needed (docs/recovery.md).
//
// Missed-event model: the sensor is single-context; by default an event
// arriving while the device is busy (waiting-to-run or running a previous
// event) is lost. This is what bounds the baselines' throughput: expensive
// inferences make the device busy for long stretches and most arrivals are
// dropped, which is exactly the paper's "N2 events are missed due to
// insufficient energy". SimConfig::queue_capacity > 0 relaxes this to a
// bounded FIFO request queue (drop-on-full) for the traffic-serving
// experiments; capacity 0 keeps the historical model bitwise.
//
// Stepping: the run advances in fixed dt steps over the whole trace, and
// most steps only harvest. Those — idle, a unit mid-flight, a dead device
// recharging to reboot, a job charging for its first unit, a stall between
// units without a stall draw, an uncommitted job below its policy's
// ExitPolicy::commit_floor_mj() — run in one drain
// loop on the trace's per-step income table (energy/income.hpp): a load,
// the level clamp and, for a policy that reads it
// (ExitPolicy::reads_charge_rate()), the charge-rate EMA per step. Every
// output is bitwise what running each step in full gives (docs/profiling.md
// lists the wake levels).
#ifndef IMX_SIM_SIMULATOR_HPP
#define IMX_SIM_SIMULATOR_HPP

#include <limits>
#include <memory>
#include <vector>

#include "energy/income.hpp"
#include "energy/power_trace.hpp"
#include "energy/storage.hpp"
#include "mcu/device.hpp"
#include "sim/event_gen.hpp"
#include "sim/inference_model.hpp"
#include "sim/metrics.hpp"
#include "sim/policy.hpp"
#include "sim/recovery/strategy.hpp"
#include "sim/workspace.hpp"

namespace imx::sim {

struct SimConfig {
    double dt_s = 1.0;  ///< simulation step (paper latency unit: 1 s)
    energy::StorageConfig storage{};
    mcu::McuConfig mcu{};
    /// Optional *completion* deadline (the deadline sweep axis): an event
    /// whose result is not produced within deadline_s of arrival counts as a
    /// deadline miss (SimResult::deadline_miss_rate()). A job still waiting
    /// for energy when its deadline passes is hopeless and is dropped, which
    /// frees the device for later arrivals. Policies see the remaining slack
    /// as EnergyState::deadline_slack_s. Default: no deadline.
    double deadline_s = std::numeric_limits<double>::infinity();
    /// Bounded request queue. 0 (default) reproduces the historical
    /// single-context model bitwise: an arrival while the device is busy is
    /// simply lost. With capacity N > 0, up to N arrivals wait FIFO while a
    /// request is in flight; an arrival finding the queue full is rejected
    /// (SimResult::dropped), and a queued request whose wait/completion
    /// deadline passes before it reaches the head is dropped as hopeless,
    /// like the historical waiting job. Policies observe the backlog as
    /// EnergyState::queue_depth / queue_backlog.
    int queue_capacity = 0;
    /// Power-failure model (sim/recovery/). Disabled by default: each commit
    /// or hop is then one pre-paid unit with a free commit, so the device
    /// never stalls mid-inference and cannot die. When enabled, the work is
    /// cut into per-layer or per-exit checkpoint units, the run can die
    /// below StorageConfig::death_threshold_mj while stalled between units,
    /// and the named recovery strategy decides what survives a reboot. The
    /// checkpointed baselines run with it on (baselines::
    /// checkpointed_sim_config).
    RecoveryConfig recovery{};
};

class Simulator {
public:
    /// Fetches the trace's income table for config.dt_s and the storage's
    /// efficiency curve (PowerTrace::income() builds it on first use and
    /// shares it with every later Simulator on that trace and key).
    Simulator(const energy::PowerTrace& trace, const SimConfig& config);

    /// Run the event schedule through the model under the policy.
    /// The policy may be learning (its observe() hooks fire); run() does not
    /// reset policy state, so successive runs implement learning episodes.
    ///
    /// `workspace`, when non-null, provides reusable per-worker buffers
    /// (queue ring, unit plan) and sums the run's SimCounters; null runs on
    /// a local ScenarioWorkspace. Either way the results are the same.
    SimResult run(const std::vector<Event>& events, InferenceModel& model,
                  ExitPolicy& policy, ScenarioWorkspace* workspace = nullptr);

    /// run() into a caller-owned result (record capacity reused) — the
    /// allocation-free path for training episodes whose SimResult is
    /// consumed immediately. Produces exactly the values run() would.
    void run_into(const std::vector<Event>& events, InferenceModel& model,
                  ExitPolicy& policy, SimResult& out,
                  ScenarioWorkspace* workspace = nullptr);

    [[nodiscard]] const SimConfig& config() const { return config_; }

private:
    SimConfig config_;
    /// The trace's per-step income under this config's dt and storage
    /// efficiency (energy/income.hpp), shared read-only with every other
    /// Simulator on the same trace and key; the Simulator does not refer to
    /// the trace itself after construction.
    std::shared_ptr<const energy::IncomeTable> income_;
    /// Read at construction; PowerTrace caches its total energy, so this
    /// costs no pass over the samples.
    double trace_duration_s_ = 0.0;
    double trace_total_energy_mj_ = 0.0;
};

}  // namespace imx::sim

#endif  // IMX_SIM_SIMULATOR_HPP
