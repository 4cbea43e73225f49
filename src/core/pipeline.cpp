#include "core/pipeline.hpp"

#include "core/accuracy_model.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "core/trace_eval.hpp"
#include "mcu/device.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/simulator.hpp"

namespace imx::core {

PipelineReport run_pipeline(const PipelineConfig& config) {
    ExperimentSetup setup = make_paper_setup(config.setup);
    const AccuracyModel oracle(setup.network,
                               {kPaperFullPrecisionAcc.begin(),
                                kPaperFullPrecisionAcc.end()});

    PipelineReport report;
    report.deployed_policy = setup.deployed_policy;

    if (config.run_search) {
        const StaticTraceEvaluator trace_eval(setup.trace, setup.events,
                                              paper_storage_config(),
                                              kEnergyPerMMacMj);
        const PolicyEvaluator evaluator(setup.network, oracle, trace_eval,
                                        paper_constraints(),
                                        /*trace_aware=*/true);
        CompressionSearch search(evaluator, config.search);
        const SearchResult result = search.run_ddpg_refined();
        if (result.found_feasible) report.deployed_policy = result.best_policy;
    }

    report.exit_accuracy = oracle.exit_accuracy(report.deployed_policy);
    report.exit_macs =
        compress::per_exit_macs(setup.network, report.deployed_policy);
    report.model_bytes =
        compress::model_bytes(setup.network, report.deployed_policy);
    report.fits_flash =
        mcu::McuModel(setup.multi_exit_sim.mcu).fits_flash(report.model_bytes);

    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);

    // Static LUT baseline.
    {
        OracleInferenceModel model(setup.network, report.deployed_policy,
                                   report.exit_accuracy);
        sim::GreedyAffordablePolicy policy;
        report.static_lut = simulator.run(setup.events, model, policy);
    }

    // Learned runtime: episodes over fresh event schedules, then greedy eval
    // on the canonical schedule.
    {
        OracleInferenceModel model(setup.network, report.deployed_policy,
                                   report.exit_accuracy);
        sim::QLearningExitPolicy policy(setup.network.num_exits,
                                        config.runtime);
        for (int ep = 0; ep < config.learning_episodes; ++ep) {
            const auto events = sim::generate_arrivals(
                "uniform", {static_cast<int>(setup.events.size()),
                            setup.trace.duration(),
                            2000 + static_cast<std::uint64_t>(ep)});
            const auto r = simulator.run(events, model, policy);
            report.learning_curve.push_back(100.0 * r.accuracy_all_events());
        }
        policy.set_eval_mode(true);
        report.learned = simulator.run(setup.events, model, policy);
    }
    return report;
}

}  // namespace imx::core
