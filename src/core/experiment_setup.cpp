#include "core/experiment_setup.hpp"

#include "baselines/baseline_models.hpp"
#include "core/multi_exit_spec.hpp"
#include "energy/trace_registry.hpp"

namespace imx::core {

energy::StorageConfig paper_storage_config() {
    energy::StorageConfig s;
    s.capacity_mj = 3.0;
    s.initial_mj = 0.5;
    s.leakage_mw = 0.0003;
    // The paper's energy model books harvested energy 1:1 (no converter
    // loss); keep the efficiency machinery but make it near-lossless here.
    s.efficiency_max = 0.99;
    s.efficiency_half_power_mw = 0.0005;
    s.on_threshold_mj = 0.30;
    return s;
}

mcu::McuConfig paper_mcu_config() {
    mcu::McuConfig m;
    m.energy_per_mmac_mj = kEnergyPerMMacMj;  // paper: 1.5 mJ / MFLOP
    m.mmacs_per_second = 0.2;                 // ~10 s for SonicNet's 2 MFLOPs
    m.checkpoint_energy_mj = 0.008;
    m.macs_per_task = 50000;
    m.wakeup_energy_mj = 0.005;
    m.wakeup_time_s = 0.01;
    return m;
}

ExperimentSetup make_paper_setup(const SetupConfig& config) {
    // The harvesting environment comes from the trace registry; the default
    // "solar" source reproduces the historical hard-coded daylight profile
    // (sunrise..sunset window compressed into the experiment duration)
    // bitwise. Every environment is rescaled to the Fig. 5-implied energy
    // budget so sources compare at the same income.
    energy::TraceSourceContext trace_ctx;
    trace_ctx.duration_s = config.duration_s;
    trace_ctx.dt_s = 1.0;
    trace_ctx.seed = config.trace_seed;
    energy::PowerTrace trace =
        energy::make_trace(config.trace_source, trace_ctx,
                           config.trace_params);
    trace.rescale_total_energy(config.total_harvest_mj);

    // The request workload comes from the arrival registry; the default
    // "uniform" source is the paper's Sec. V-A schedule, bitwise identical
    // to the pre-registry generator.
    sim::ArrivalContext events_ctx;
    events_ctx.count = config.event_count;
    events_ctx.duration_s = trace.duration();
    events_ctx.seed = config.event_seed;
    std::shared_ptr<const sim::ArrivalSource> arrivals =
        sim::make_arrival_source(config.arrival_source, config.arrival_params);
    std::vector<sim::Event> events = arrivals->generate(events_ctx);

    ExperimentSetup setup{
        std::move(trace),
        std::move(events),
        sim::SimConfig{},
        sim::SimConfig{},
        make_paper_network_desc(),
        reference_nonuniform_policy(),
        {},
        config,
        std::move(arrivals),
    };

    setup.multi_exit_sim.dt_s = 1.0;
    setup.multi_exit_sim.storage = paper_storage_config();
    setup.multi_exit_sim.mcu = paper_mcu_config();

    setup.checkpointed_sim =
        baselines::checkpointed_sim_config(setup.multi_exit_sim);

    const AccuracyModel oracle(setup.network,
                               {kPaperFullPrecisionAcc.begin(),
                                kPaperFullPrecisionAcc.end()});
    setup.exit_accuracy = oracle.exit_accuracy(setup.deployed_policy);
    return setup;
}

}  // namespace imx::core
