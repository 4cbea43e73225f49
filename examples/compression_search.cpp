// Example: phase-1 of the paper — power-trace-aware, exit-guided nonuniform
// compression search with two DDPG agents, compared against random search
// and simulated annealing under the same evaluation budget. The four
// algorithms run concurrently as one sweep through the exp:: engine; each
// scenario rebuilds its own evaluator stack, so results are identical to
// the old serial runs regardless of thread count.
//
// Usage: example_compression_search [episodes] [--quick] [--threads N]
#include <any>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/search.hpp"
#include "core/trace_eval.hpp"
#include "exp/cli.hpp"
#include "exp/paper_scenarios.hpp"
#include "exp/runner.hpp"
#include "util/table.hpp"

using namespace imx;

int main(int argc, char** argv) {
    const auto cli = exp::parse_sweep_cli(argc, argv);
    if (cli.replicas != 1 || !cli.csv.empty() || cli.base_seed_given) {
        // This example only runs the canonical replica-0 searches, whose
        // SearchConfig seed is fixed by design — a re-rolled base seed
        // would be silently ignored, so reject it like the other flags.
        std::fprintf(stderr,
                     "error: --replicas/--csv/--base-seed are not supported "
                     "by this example (see `imx_sweep ablation-search`)\n");
        return 2;
    }
    int episodes = 0;
    try {
        episodes = exp::positional_int(cli, 0, cli.quick ? 60 : 300);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    const auto setup = std::make_shared<const core::ExperimentSetup>(
        core::make_paper_setup());
    const auto& desc = setup->network;
    const core::AccuracyModel oracle(
        desc, {core::kPaperFullPrecisionAcc.begin(),
               core::kPaperFullPrecisionAcc.end()});

    core::SearchConfig cfg;
    cfg.episodes = episodes;

    const std::vector<std::pair<const char*, exp::SearchAlgo>> algos = {
        {"DDPG", exp::SearchAlgo::kDdpg},
        {"DDPG+ref", exp::SearchAlgo::kDdpgRefined},
        {"random", exp::SearchAlgo::kRandom},
        {"annealing", exp::SearchAlgo::kAnnealing},
    };
    std::vector<exp::ScenarioSpec> specs;
    specs.reserve(algos.size());
    for (const auto& [label, algo] : algos) {
        specs.push_back(exp::make_search_scenario(setup, algo, label, cfg));
    }

    auto report = [&](const char* tag, const core::SearchResult& r) {
        std::printf("%-10s evals %4d feasible %s best Racc %.4f\n", tag,
                    r.evaluations, r.found_feasible ? "yes" : "no ",
                    r.best_reward);
        if (!r.found_feasible) return;
        const auto acc = oracle.exit_accuracy(r.best_policy);
        std::printf("  exits acc: %.1f / %.1f / %.1f ; total %.3fM MACs, %.1f KB\n",
                    acc[0], acc[1], acc[2],
                    static_cast<double>(compress::total_macs(desc, r.best_policy)) / 1e6,
                    compress::model_bytes(desc, r.best_policy) / 1024.0);
        util::Table t("layer policy (" + std::string(tag) + ")");
        t.header({"layer", "preserve", "w bits", "a bits"});
        for (std::size_t l = 0; l < desc.num_layers(); ++l) {
            t.row({desc.layers[l].name,
                   util::fixed(r.best_policy[l].preserve_ratio, 2),
                   std::to_string(r.best_policy[l].weight_bits),
                   std::to_string(r.best_policy[l].activation_bits)});
        }
        std::printf("%s", t.to_string().c_str());
    };

    // Reference points (evaluated inline; cheap relative to the searches).
    const core::StaticTraceEvaluator trace_eval(
        setup->trace, setup->events, core::paper_storage_config(),
        core::kEnergyPerMMacMj);
    const core::PolicyEvaluator evaluator(desc, oracle, trace_eval,
                                          core::paper_constraints(),
                                          /*trace_aware=*/true);
    const auto uniform_score = evaluator.score(core::uniform_baseline_policy());
    const auto ref_score = evaluator.score(core::reference_nonuniform_policy());
    std::printf("uniform baseline Racc %.4f | reference nonuniform Racc %.4f\n",
                uniform_score.racc, ref_score.racc);

    exp::RunnerConfig runner;
    runner.threads = cli.threads;
    const auto outcomes = exp::run_sweep(specs, runner);
    for (std::size_t i = 0; i < algos.size(); ++i) {
        report(algos[i].first,
               std::any_cast<const core::SearchResult&>(outcomes[i].payload));
    }
    return 0;
}
