// Canonical experiment configuration shared by every figure bench:
// the solar trace, the 500-event schedule, the storage/MCU models, and the
// deployed (compressed) network. Calibration notes (also in
// docs/reproducing-figures.md, Calibration):
// the paper's Fig. 5 numbers imply E_total ~= 281.5 mJ of harvested energy
// across the 500-event run (IEpmJ 0.89 at 50.1 % all-event accuracy), with
// SonicNet saturating at ~93 processed events of ~3 mJ each. We reproduce
// those operating conditions with a one-day solar profile compressed to
// ~13,000 s, rescaled to that energy total.
#ifndef IMX_CORE_EXPERIMENT_SETUP_HPP
#define IMX_CORE_EXPERIMENT_SETUP_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "compress/network_desc.hpp"
#include "core/accuracy_model.hpp"
#include "energy/power_trace.hpp"
#include "energy/trace_registry.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/event_gen.hpp"
#include "sim/simulator.hpp"

namespace imx::core {

struct SetupConfig {
    int event_count = 500;
    double duration_s = 13000.0;
    double total_harvest_mj = 281.5;
    std::uint64_t trace_seed = 7;
    std::uint64_t event_seed = 99;
    /// Request workload, resolved through the arrival registry
    /// (sim/arrivals/registry.hpp). The default — "uniform" with an empty
    /// parameter map — is the paper's Sec. V-A stream, bitwise identical to
    /// the pre-registry uniform schedule.
    std::string arrival_source = "uniform";
    sim::ArrivalParams arrival_params;
    /// Harvesting environment, resolved through the energy trace registry
    /// (energy/trace_registry.hpp). The default — "solar" with an empty
    /// parameter map — is the canonical paper trace, bitwise identical to
    /// the pre-registry hard-coded solar path. Every trace is rescaled to
    /// total_harvest_mj so environments compare at the same energy budget;
    /// file-backed sources ("csv") take their duration/grid from the file.
    std::string trace_source = "solar";
    energy::TraceParams trace_params;
};

/// Everything a bench needs to run the paper's evaluation.
struct ExperimentSetup {
    energy::PowerTrace trace;
    std::vector<sim::Event> events;
    sim::SimConfig multi_exit_sim;    ///< config for our runtime
    sim::SimConfig checkpointed_sim;  ///< baselines::checkpointed_sim_config
    compress::NetworkDesc network;
    compress::Policy deployed_policy;       ///< reference nonuniform policy
    std::vector<double> exit_accuracy;      ///< oracle accuracy (%) per exit
    /// The config this setup was built from (arrival patches keep its
    /// arrival_source / arrival_params in step with `arrivals`).
    SetupConfig config;
    /// The arrival source `events` was drawn from, built once and shared by
    /// every copy of the setup: non-canonical replicas draw their streams
    /// from it, so they stay on replica 0's workload process and a file-
    /// backed source is parsed once per cell, not once per replica.
    std::shared_ptr<const sim::ArrivalSource> arrivals;

    [[nodiscard]] sim::Simulator make_multi_exit_simulator() const {
        return sim::Simulator(trace, multi_exit_sim);
    }
    [[nodiscard]] sim::Simulator make_checkpointed_simulator() const {
        return sim::Simulator(trace, checkpointed_sim);
    }
};

/// Build the canonical setup (deterministic for a given config).
ExperimentSetup make_paper_setup(const SetupConfig& config = {});

/// The shared storage model used by the paper setup.
energy::StorageConfig paper_storage_config();

/// The shared MCU model used by the paper setup.
mcu::McuConfig paper_mcu_config();

}  // namespace imx::core

#endif  // IMX_CORE_EXPERIMENT_SETUP_HPP
