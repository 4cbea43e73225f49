// Quickstart: the full pipeline in ~60 lines.
//
//  1. Describe the multi-exit network (the paper's LeNet-4conv + 2 exits).
//  2. Compress it nonuniformly for the 1.15 MFLOP / 16 KB MCU budget.
//  3. Deploy it on a solar-harvesting sensor node and run 500 events
//     through the intermittent runtime with Q-learning exit selection.
//  4. Read out the paper's figure of merit: IEpmJ.
#include <cstdio>

#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/simulator.hpp"

using namespace imx;

int main() {
    // 1. The network: per-exit cost table + calibrated accuracy oracle.
    const compress::NetworkDesc network = core::make_paper_network_desc();
    const core::AccuracyModel oracle(
        network, {core::kPaperFullPrecisionAcc.begin(),
                  core::kPaperFullPrecisionAcc.end()});

    // 2. A deployable nonuniform compression policy (Fig. 4 shape).
    const compress::Policy policy = core::reference_nonuniform_policy();
    std::printf("deployed model: %.3f MFLOPs total, %.1f KB weights\n",
                static_cast<double>(compress::total_macs(network, policy)) / 1e6,
                compress::model_bytes(network, policy) / 1024.0);

    // 3. The EH environment: solar trace + 500 events + MCU/storage models.
    const core::ExperimentSetup setup = core::make_paper_setup();
    core::OracleInferenceModel deployed(network, policy,
                                        oracle.exit_accuracy(policy));
    sim::QLearningExitPolicy runtime(network.num_exits, sim::RuntimeConfig{});
    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);

    // Learn for a few episodes, then evaluate greedily.
    for (int episode = 0; episode < 8; ++episode) {
        const auto events = sim::generate_arrivals(
            "uniform", {500, setup.trace.duration(),
                        100 + static_cast<std::uint64_t>(episode)});
        (void)simulator.run(events, deployed, runtime);
    }
    runtime.set_eval_mode(true);
    const sim::SimResult result = simulator.run(setup.events, deployed, runtime);

    // 4. Results.
    std::printf("events: %d processed, %d missed, %d correct\n",
                result.processed_count(), result.missed_count(),
                result.correct_count());
    std::printf("IEpmJ: %.3f interesting events per harvested mJ\n",
                result.iepmj());
    std::printf("average accuracy over all events: %.1f %%\n",
                100.0 * result.accuracy_all_events());
    std::printf("mean per-event latency: %.1f s\n",
                result.mean_event_latency_s());
    return 0;
}
