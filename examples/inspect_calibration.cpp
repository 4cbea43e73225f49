// Developer utility: prints the calibrated oracle, the deployed policy's
// cost profile, and end-to-end simulation metrics for ours + all baselines.
// Useful for sanity-checking the experiment calibration against the paper.
#include <algorithm>
#include <cstdio>

#include "baselines/baseline_models.hpp"
#include "compress/fit.hpp"
#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/simulator.hpp"

using namespace imx;

int main() {
    const auto desc = core::make_paper_network_desc();
    const core::AccuracyModel oracle(
        desc, {core::kPaperFullPrecisionAcc.begin(),
               core::kPaperFullPrecisionAcc.end()});
    std::printf("calibration residual: %.3f pp\n", oracle.calibration_residual());

    const auto uniform = core::uniform_baseline_policy();
    std::printf("uniform baseline: alpha=%.2f bits=%d\n",
                uniform[0].preserve_ratio, uniform[0].weight_bits);
    const auto ref = core::reference_nonuniform_policy();

    auto print_acc = [&](const char* tag, const compress::Policy& p) {
        const auto acc = oracle.exit_accuracy(p);
        std::printf("%-12s acc: %.1f %.1f %.1f | macs total %.3fM bytes %.1fKB\n",
                    tag, acc[0], acc[1], acc[2],
                    static_cast<double>(compress::total_macs(desc, p)) / 1e6,
                    compress::model_bytes(desc, p) / 1024.0);
    };
    print_acc("full", compress::Policy::full_precision(desc.num_layers()));
    print_acc("uniform", uniform);
    print_acc("nonuniform", ref);

    const auto macs_full = compress::per_exit_macs(
        desc, compress::Policy::full_precision(desc.num_layers()));
    const auto macs_ref = compress::per_exit_macs(desc, ref);
    for (int e = 0; e < 3; ++e) {
        std::printf("exit%d macs: %.4fM -> %.4fM (x%.2f)\n", e + 1,
                    static_cast<double>(macs_full[(size_t)e]) / 1e6,
                    static_cast<double>(macs_ref[(size_t)e]) / 1e6,
                    static_cast<double>(macs_ref[(size_t)e]) /
                        static_cast<double>(macs_full[(size_t)e]));
    }

    // --- End-to-end simulation ---
    const auto setup = core::make_paper_setup();
    std::printf("\ntrace: duration %.0fs total %.1fmJ mean %.4fmW peak %.4fmW\n",
                setup.trace.duration(), setup.trace.total_energy(),
                setup.trace.mean_power(),
                *std::max_element(setup.trace.samples().begin(),
                                  setup.trace.samples().end()));
    std::printf("deployed exit acc: %.1f %.1f %.1f ; exit costs %.3f %.3f %.3f mJ\n",
                setup.exit_accuracy[0], setup.exit_accuracy[1],
                setup.exit_accuracy[2],
                static_cast<double>(macs_ref[0]) * 1.5e-6,
                static_cast<double>(macs_ref[1]) * 1.5e-6,
                static_cast<double>(macs_ref[2]) * 1.5e-6);

    auto report = [&](const char* tag, const sim::SimResult& r, int m) {
        const auto hist = r.exit_histogram(m);
        std::printf(
            "%-12s IEpmJ %.3f | acc_all %.1f%% acc_proc %.1f%% | proc %d/%d | "
            "lat %.1fs inf_lat %.1fs | macs/inf %.3fM | exits",
            tag, r.iepmj(), 100 * r.accuracy_all_events(),
            100 * r.accuracy_processed(), r.processed_count(), r.total_events(),
            r.mean_event_latency_s(), r.mean_inference_latency_s(),
            r.mean_inference_macs() / 1e6);
        for (int e = 0; e < m; ++e) std::printf(" %d", hist[(size_t)e]);
        std::printf("\n");
    };

    // Ours, static LUT policy.
    {
        core::OracleInferenceModel model(desc, ref, setup.exit_accuracy);
        sim::GreedyAffordablePolicy policy;
        auto s = setup.make_multi_exit_simulator();
        report("ours/LUT", s.run(setup.events, model, policy), 3);
    }
    // Ours, Q-learning (10 learning episodes, then eval).
    {
        core::OracleInferenceModel model(desc, ref, setup.exit_accuracy);
        sim::QLearningExitPolicy policy(3, sim::RuntimeConfig{});
        auto s = setup.make_multi_exit_simulator();
        for (int ep = 0; ep < 16; ++ep) {
            core::SetupConfig ec;
            ec.event_seed = 1000 + static_cast<std::uint64_t>(ep);
            auto events = sim::generate_arrivals(
                "uniform", {500, setup.trace.duration(), ec.event_seed});
            auto r = s.run(events, model, policy);
            std::printf("  QL ep%02d acc_all %.1f%%\n", ep,
                        100 * r.accuracy_all_events());
        }
        policy.set_eval_mode(true);
        report("ours/QL", s.run(setup.events, model, policy), 3);
    }
    // Baselines (checkpointed runtime).
    {
        auto sonic = baselines::make_sonic_net();
        baselines::CommitAtPickupPolicy policy;
        auto s = setup.make_checkpointed_simulator();
        report("SonicNet", s.run(setup.events, sonic, policy), 1);
        auto sparse = baselines::make_sparse_net();
        report("SpArSeNet", s.run(setup.events, sparse, policy), 1);
        auto lenet = baselines::make_lenet_cifar();
        report("LeNet-Cifar", s.run(setup.events, lenet, policy), 1);
    }
    return 0;
}
