/// \file
/// \brief Built-in figure experiments. Fig. 5 and the Sec. V-D latency
/// table both run the grid of the embedded
/// examples/experiments/paper_baselines.ini, and Fig. 7b that of
/// exit_distribution.ini; the other figures build their grids in C++. Every
/// table stays byte-identical to the pinned --quick goldens and the
/// replica-0 pins in tests/test_exp_axes.cpp.
#include "exp/experiments_builtin.hpp"

#include <any>
#include <cstdio>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "compress/fit.hpp"
#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/search.hpp"
#include "exp/aggregate.hpp"
#include "exp/report.hpp"
#include "util/table.hpp"

namespace imx::exp::detail {

namespace {

/// The trace entry the Fig. 5 grid sweeps (canonical setup; quick mode
/// shrinks it at expansion time).
core::SetupConfig report_setup_config(const ExperimentRunContext& ctx) {
    core::SetupConfig config = ctx.spec.traces.front().config;
    if (ctx.options.quick) config = quick_setup_config(config);
    return config;
}

// --- fig5 -----------------------------------------------------------------

int fig5_report(const ExperimentRunContext& ctx) {
    const std::string prefix = ctx.spec.traces.front().label + "/";
    const auto config = report_setup_config(ctx);

    struct Row {
        const char* name;
        double paper_iepmj;
        double paper_acc_all;
        double paper_acc_proc;
    };
    const Row rows[] = {
        {"Our Approach", 0.89, 50.1, 65.4},
        {"SonicNet", 0.25, 14.0, 75.4},
        {"SpArSeNet", 0.05, 2.6, 82.7},
        {"LeNet-Cifar", 0.70, 39.2, 74.7},
    };

    util::Table table("Fig. 5 — IEpmJ and Sec. V-C accuracy, measured (paper)");
    table.header({"system", "IEpmJ", "acc all events %", "acc processed %",
                  "processed/" + std::to_string(config.event_count)});
    for (const Row& row : rows) {
        const auto& r = canonical_sim(ctx.specs, ctx.outcomes,
                                      prefix + row.name);
        table.row({row.name,
                   vs_paper(r.iepmj(), row.paper_iepmj),
                   vs_paper(100.0 * r.accuracy_all_events(),
                            row.paper_acc_all, 1),
                   vs_paper(100.0 * r.accuracy_processed(),
                            row.paper_acc_proc, 1),
                   std::to_string(r.processed_count())});
    }
    table.print(std::cout);

    std::cout << "\nIEpmJ bars:\n";
    for (const Row& row : rows) {
        const auto& r = canonical_sim(ctx.specs, ctx.outcomes,
                                      prefix + row.name);
        std::printf("%-12s |%s| %.3f\n", row.name,
                    util::bar(r.iepmj(), 1.0, 40).c_str(), r.iepmj());
    }

    const auto& ours = canonical_sim(ctx.specs, ctx.outcomes,
                                     prefix + "Our Approach");
    const auto& sonic = canonical_sim(ctx.specs, ctx.outcomes,
                                      prefix + "SonicNet");
    const auto& sparse = canonical_sim(ctx.specs, ctx.outcomes,
                                       prefix + "SpArSeNet");
    const auto& lenet = canonical_sim(ctx.specs, ctx.outcomes,
                                      prefix + "LeNet-Cifar");
    std::printf(
        "\nimprovement factors (IEpmJ): ours/Sonic %.1fx (paper 3.6x), "
        "ours/SpArSe %.1fx (paper 18.9x), ours/LeNet %.2fx (paper 1.28x)\n",
        ours.iepmj() / sonic.iepmj(), ours.iepmj() / sparse.iepmj(),
        ours.iepmj() / lenet.iepmj());
    std::printf("harvested energy over the run: %.1f mJ across %d events\n",
                ours.total_harvested_mj, ours.total_events());

    print_replica_aggregate(
        ctx.specs, ctx.outcomes,
        {"iepmj", "acc_all_pct", "acc_processed_pct", "processed"},
        ctx.options);
    return 0;
}

// --- latency-table --------------------------------------------------------

int latency_report(const ExperimentRunContext& ctx) {
    const std::string prefix = ctx.spec.traces.front().label + "/";

    struct Row {
        const char* name;
        double paper_event_latency;
    };
    const Row rows[] = {
        {"Our Approach", 18.0},
        {"SonicNet", 139.9},
        {"SpArSeNet", 183.4},
        {"LeNet-Cifar", 56.7},
    };

    util::Table table("Sec. V-D — latency (time units of 1 s), measured (paper)");
    table.header({"system", "per-event latency", "per-inference latency",
                  "mean MACs/inference (M)"});
    for (const Row& row : rows) {
        const auto& r = canonical_sim(ctx.specs, ctx.outcomes,
                                      prefix + row.name);
        table.row({row.name,
                   vs_paper(r.mean_event_latency_s(),
                            row.paper_event_latency, 1),
                   util::fixed(r.mean_inference_latency_s(), 1),
                   util::fixed(r.mean_inference_macs() / 1e6, 3)});
    }
    table.print(std::cout);

    const auto& ours = canonical_sim(ctx.specs, ctx.outcomes,
                                     prefix + "Our Approach");
    const auto& sonic = canonical_sim(ctx.specs, ctx.outcomes,
                                      prefix + "SonicNet");
    const auto& sparse = canonical_sim(ctx.specs, ctx.outcomes,
                                       prefix + "SpArSeNet");
    const auto& lenet = canonical_sim(ctx.specs, ctx.outcomes,
                                      prefix + "LeNet-Cifar");
    std::printf(
        "\nper-event latency improvement: vs SonicNet %.1fx (paper 7.8x), "
        "vs SpArSeNet %.1fx (paper 10.2x), vs LeNet-Cifar %.2fx (paper 3.15x)\n",
        sonic.mean_event_latency_s() / ours.mean_event_latency_s(),
        sparse.mean_event_latency_s() / ours.mean_event_latency_s(),
        lenet.mean_event_latency_s() / ours.mean_event_latency_s());
    std::printf(
        "note: SpArSeNet's absolute latency exceeds the paper's 183.4 in this "
        "calibration (its 17.1 mJ inferences only complete near solar noon); "
        "the ordering and all other factors match. See "
        "docs/reproducing-figures.md.\n");

    print_replica_aggregate(
        ctx.specs, ctx.outcomes,
        {"event_latency_s", "inference_latency_s", "inference_macs_m"},
        ctx.options);
    return 0;
}

/// The Fig. 5 grid under its own name, description and metrics.
Experiment latency_experiment() {
    Experiment e;
    e.spec = embedded_spec("paper_baselines.ini");
    e.spec.name = "latency-table";
    e.spec.description =
        "Sec. V-D per-event / per-inference latency comparison: ours vs the "
        "three checkpointed baselines";
    e.spec.metrics = {"event_latency_s", "inference_latency_s",
                      "inference_macs_m"};
    e.report = latency_report;
    return e;
}

// --- fig7b ----------------------------------------------------------------

int fig7b_report(const ExperimentRunContext& ctx) {
    const std::string prefix = ctx.spec.traces.front().label + "/";

    const auto& learned = canonical_sim(ctx.specs, ctx.outcomes,
                                        prefix + "Q-learning");
    const auto& lut = canonical_sim(ctx.specs, ctx.outcomes,
                                    prefix + "static LUT");
    const int n = learned.total_events();

    const auto hist_q = learned.exit_histogram(3);
    const auto hist_lut = lut.exit_histogram(3);

    const double paper_q[3] = {71.0, 2.8, 11.4};
    const double paper_lut[3] = {57.6, 3.8, 15.2};

    util::Table table("Fig. 7b — processed events per exit, measured (paper %)");
    table.header({"exit", "Q-learning", "Q %", "static LUT", "LUT %"});
    for (int e = 0; e < 3; ++e) {
        const auto i = static_cast<std::size_t>(e);
        table.row({"exit " + std::to_string(e + 1),
                   std::to_string(hist_q[i]),
                   vs_paper(100.0 * hist_q[i] / n, paper_q[e], 1),
                   std::to_string(hist_lut[i]),
                   vs_paper(100.0 * hist_lut[i] / n, paper_lut[e], 1)});
    }
    table.row({"total processed", std::to_string(learned.processed_count()), "",
               std::to_string(lut.processed_count()), ""});
    table.print(std::cout);

    std::printf(
        "\nQ-learning processes %+.1f%% events vs static LUT (paper: +11.2%%)\n",
        100.0 *
            (learned.processed_count() - lut.processed_count()) /
            static_cast<double>(lut.processed_count()));
    std::printf(
        "exit-1 share of processed events: Q %.1f%% vs LUT %.1f%% — the "
        "learned policy shifts toward the cheap exit (paper Fig. 7b)\n",
        100.0 * hist_q[0] / learned.processed_count(),
        100.0 * hist_lut[0] / lut.processed_count());

    print_replica_aggregate(ctx.specs, ctx.outcomes,
                            {"processed", "acc_all_pct", "iepmj"},
                            ctx.options);
    return 0;
}

// --- fig1b ----------------------------------------------------------------

int fig1b_report(const ExperimentRunContext& ctx) {
    const auto& full =
        canonical_metrics(ctx.specs, ctx.outcomes, "fig1b/full-precision");
    const auto& uni = canonical_metrics(ctx.specs, ctx.outcomes,
                                        "fig1b/uniform");
    const auto& non = canonical_metrics(ctx.specs, ctx.outcomes,
                                        "fig1b/nonuniform");
    const auto exit_acc = [](const MetricMap& m, int e) {
        return m.at("exit" + std::to_string(e + 1) + "_acc_pct");
    };

    util::Table table(
        "Fig. 1b — per-exit accuracy (%), measured (paper)");
    table.header({"exit", "full precision", "uniform", "nonuniform"});
    for (int e = 0; e < 3; ++e) {
        const auto i = static_cast<std::size_t>(e);
        table.row({"exit " + std::to_string(e + 1),
                   vs_paper(exit_acc(full, e),
                            core::kPaperFullPrecisionAcc[i], 1),
                   vs_paper(exit_acc(uni, e), core::kPaperUniformAcc[i],
                            1),
                   vs_paper(exit_acc(non, e),
                            core::kPaperNonuniformAcc[i], 1)});
    }
    table.print(std::cout);

    std::cout << "\nbars (55..75 %):\n";
    for (int e = 0; e < 3; ++e) {
        auto bar_of = [](double v) { return util::bar(v - 55.0, 20.0, 36); };
        std::printf("exit %d full    |%s| %.1f\n", e + 1,
                    bar_of(exit_acc(full, e)).c_str(), exit_acc(full, e));
        std::printf("exit %d uniform |%s| %.1f\n", e + 1,
                    bar_of(exit_acc(uni, e)).c_str(), exit_acc(uni, e));
        std::printf("exit %d nonunif |%s| %.1f\n\n", e + 1,
                    bar_of(exit_acc(non, e)).c_str(), exit_acc(non, e));
    }

    std::printf("constraints: FLOPs %.3fM (uniform) / %.3fM (nonuniform) "
                "<= %.2fM target; size %.1f / %.1f <= %.1f KB target\n",
                uni.at("total_macs_m"), non.at("total_macs_m"),
                core::kFlopsTargetMacs / 1e6, uni.at("model_kb"),
                non.at("model_kb"), core::kSizeTargetBytes / 1024.0);
    return 0;
}

Experiment fig1b_experiment() {
    Experiment e;
    e.spec.name = "fig1b-exit-accuracy";
    e.spec.description =
        "Fig. 1b per-exit accuracy under full-precision / uniform / "
        "nonuniform compression (RNG-free)";
    e.spec.metrics = {"exit1_acc_pct", "exit2_acc_pct", "exit3_acc_pct",
                      "total_macs_m", "model_kb"};
    e.build = [](const ExperimentSpec&, const SweepCli& options) {
        struct Variant {
            CompressionVariant kind;
            const char* label;
        };
        const Variant variants[] = {
            {CompressionVariant::kFullPrecision, "full-precision"},
            {CompressionVariant::kUniform, "uniform"},
            {CompressionVariant::kNonuniform, "nonuniform"},
        };
        std::vector<ScenarioSpec> specs;
        for (const auto& variant : variants) {
            for (int replica = 0; replica < options.replicas; ++replica) {
                specs.push_back(make_exit_accuracy_scenario(
                    variant.kind, variant.label, replica, options.base_seed));
            }
        }
        return specs;
    };
    e.report = fig1b_report;
    return e;
}

// --- fig4 -----------------------------------------------------------------

Experiment fig4_experiment() {
    Experiment e;
    e.spec.name = "fig4-compression-policy";
    e.spec.description =
        "Fig. 4 layer-wise compression policy from the trace-aware DDPG "
        "search (optional positional: episode count)";
    e.spec.metrics = {"best_racc", "evaluations", "feasible", "total_macs_m",
                      "model_kb"};
    e.allow_positional = true;
    // The search setup is built once in `build` and shared with `report`
    // (the Fig. 4 tables need the layer table the searched policy indexes).
    auto setup = std::make_shared<
        std::shared_ptr<const core::ExperimentSetup>>();
    e.build = [setup](const ExperimentSpec&, const SweepCli& options) {
        // An explicit positional episode count always wins over --quick.
        const int episodes =
            positional_episodes(options, options.quick ? 60 : 300);
        *setup = std::make_shared<const core::ExperimentSetup>(
            core::make_paper_setup(sweep_setup_config(options)));
        core::SearchConfig cfg;
        cfg.episodes = episodes;
        std::vector<ScenarioSpec> specs;
        for (int replica = 0; replica < options.replicas; ++replica) {
            specs.push_back(make_search_scenario(*setup,
                                                 SearchAlgo::kDdpgRefined,
                                                 "ddpg-refined", cfg, replica,
                                                 options.base_seed));
        }
        return specs;
    };
    e.report = [setup](const ExperimentRunContext& ctx) -> int {
        const auto& desc = (*setup)->network;
        // The canonical (replica 0) policy feeds the Fig. 4 tables below.
        const auto result =
            std::any_cast<core::SearchResult>(ctx.outcomes.front().payload);

        if (!result.found_feasible) {
            std::printf("search found no feasible policy (unexpected)\n");
            return 1;
        }
        const auto& policy = result.best_policy;

        util::Table table(
            "Fig. 4 — layer-wise compression policy at 1.15 MFLOP / 16 KB");
        table.header({"layer", "preserve ratio", "", "w bits", "a bits"});
        for (std::size_t l = 0; l < desc.num_layers(); ++l) {
            table.row({desc.layers[l].name,
                       util::fixed(policy[l].preserve_ratio, 2),
                       util::bar(policy[l].preserve_ratio, 1.0, 20),
                       std::to_string(policy[l].weight_bits),
                       std::to_string(policy[l].activation_bits)});
        }
        table.print(std::cout);

        const core::AccuracyModel oracle(
            desc, {core::kPaperFullPrecisionAcc.begin(),
                   core::kPaperFullPrecisionAcc.end()});
        const auto acc = oracle.exit_accuracy(policy);
        std::printf(
            "\nsearched policy: Racc %.4f | exits %.1f / %.1f / %.1f %% | "
            "%.3fM MACs (target %.2fM) | %.1f KB (target %.1f KB)\n",
            result.best_reward, acc[0], acc[1], acc[2],
            static_cast<double>(compress::total_macs(desc, policy)) / 1e6,
            core::kFlopsTargetMacs / 1e6,
            compress::model_bytes(desc, policy) / 1024.0,
            core::kSizeTargetBytes / 1024.0);

        // Qualitative Fig. 4 shape checks the paper reports in prose.
        double conv_bits = 0.0;
        int conv_count = 0;
        for (std::size_t l = 0; l < desc.num_layers(); ++l) {
            if (desc.layers[l].kind == compress::LayerKind::kConv) {
                conv_bits += policy[l].weight_bits;
                ++conv_count;
            }
        }
        const int fc_b21_bits =
            policy[static_cast<std::size_t>(desc.layer_index("FC-B21"))]
                .weight_bits;
        const int fc_b31_bits =
            policy[static_cast<std::size_t>(desc.layer_index("FC-B31"))]
                .weight_bits;
        std::printf(
            "shape: mean conv weight bits %.1f (paper: 8); large FCs FC-B21=%d, "
            "FC-B31=%d bits (paper: 1)\n",
            conv_bits / conv_count, fc_b21_bits, fc_b31_bits);
        std::printf("search evaluations: %d\n", result.evaluations);

        print_replica_aggregate(ctx.specs, ctx.outcomes,
                                {"best_racc", "evaluations", "feasible",
                                 "total_macs_m", "model_kb"},
                                ctx.options);
        return 0;
    };
    return e;
}

// --- fig6 -----------------------------------------------------------------

Experiment fig6_experiment() {
    Experiment e;
    e.spec.name = "fig6-flops";
    e.spec.description =
        "Fig. 6 per-exit FLOPs before/after nonuniform compression plus the "
        "per-inference average under the learned runtime";
    e.spec.metrics = {"inference_macs_m", "iepmj", "processed"};
    auto setup = std::make_shared<
        std::shared_ptr<const core::ExperimentSetup>>();
    e.build = [setup](const ExperimentSpec&, const SweepCli& options) {
        // Built once, shared with the report via TraceSpec::prebuilt.
        *setup = std::make_shared<const core::ExperimentSetup>(
            core::make_paper_setup(sweep_setup_config(options)));
        PaperSweep sweep;
        sweep.traces = {{"paper-solar", {}, *setup}};
        sweep.systems = {{"Our Approach", SystemKind::kOursQLearning,
                          sweep_episodes(options, 16), {}, ""}};
        sweep.replicas = options.replicas;
        sweep.base_seed = options.base_seed;
        return build_paper_scenarios(sweep);
    };
    e.report = [setup](const ExperimentRunContext& ctx) -> int {
        const auto& desc = (*setup)->network;
        const auto full = compress::Policy::full_precision(desc.num_layers());
        const auto before = compress::per_exit_macs(desc, full);
        const auto after =
            compress::per_exit_macs(desc, (*setup)->deployed_policy);

        const double paper_ratio[3] = {0.67, 0.44, 0.31};

        util::Table table("Fig. 6 — per-exit FLOPs before/after compression");
        table.header({"exit", "before (MFLOPs)", "after (MFLOPs)",
                      "ratio, measured (paper)"});
        for (int e2 = 0; e2 < 3; ++e2) {
            const auto i = static_cast<std::size_t>(e2);
            const double ratio = static_cast<double>(after[i]) /
                                 static_cast<double>(before[i]);
            table.row({"exit " + std::to_string(e2 + 1),
                       util::fixed(static_cast<double>(before[i]) / 1e6, 4),
                       util::fixed(static_cast<double>(after[i]) / 1e6, 4),
                       vs_paper(ratio, paper_ratio[e2])});
        }
        table.row({"SonicNet", "2.0000", "-", "-"});
        table.row({"SpArSeNet", "11.4000", "-", "-"});
        table.row({"LeNet-Cifar", "0.7200", "-", "-"});
        table.print(std::cout);

        // Per-inference FLOPs average under the learned runtime (the paper's
        // "Aver." bar and the 4.1x / 23.2x / 0.46x annotations).
        const auto groups = aggregate(ctx.specs, ctx.outcomes);
        const double avg_macs =
            groups.front().metrics.at("inference_macs_m").mean * 1e6;
        std::printf(
            "\nmean per-inference FLOPs (ours, learned runtime): %.3fM\n",
            avg_macs / 1e6);
        std::printf(
            "per-inference improvement: vs SonicNet %.1fx (paper 4.1x), "
            "vs SpArSeNet %.1fx (paper 23.2x), vs LeNet-Cifar %.2fx (paper 0.46x"
            " — i.e. LeNet-Cifar is cheaper per inference)\n",
            2.0e6 / avg_macs, 11.4e6 / avg_macs, 0.72e6 / avg_macs);

        std::cout << "\nFLOPs bars (MFLOPs, 0..2):\n";
        for (int e2 = 0; e2 < 3; ++e2) {
            const auto i = static_cast<std::size_t>(e2);
            std::printf(
                "exit %d before |%s| %.3f\n", e2 + 1,
                util::bar(static_cast<double>(before[i]) / 1e6, 2.0, 40)
                    .c_str(),
                static_cast<double>(before[i]) / 1e6);
            std::printf(
                "exit %d after  |%s| %.3f\n", e2 + 1,
                util::bar(static_cast<double>(after[i]) / 1e6, 2.0, 40)
                    .c_str(),
                static_cast<double>(after[i]) / 1e6);
        }
        return 0;
    };
    return e;
}

// --- fig7a ----------------------------------------------------------------

int fig7a_report(const ExperimentRunContext& ctx) {
    const auto& lut_sim =
        canonical_sim(ctx.specs, ctx.outcomes, "paper-solar/static LUT");
    const double lut_acc = 100.0 * lut_sim.accuracy_all_events();

    const auto& learned_sim =
        canonical_sim(ctx.specs, ctx.outcomes, "paper-solar/Q-learning");
    const double final_acc = 100.0 * learned_sim.accuracy_all_events();
    const auto& learned_metrics =
        canonical_metrics(ctx.specs, ctx.outcomes, "paper-solar/Q-learning");
    std::vector<double> curve;
    for (const auto& [name, value] : learned_metrics) {
        // MetricMap is ordered and the keys are zero-padded, so this walks
        // the episodes in training order.
        if (name.rfind("curve_ep", 0) == 0) curve.push_back(value);
    }

    util::Table table("Fig. 7a — runtime learning curve (avg accuracy, %)");
    table.header({"episode", "Q-learning", "", "static LUT"});
    for (std::size_t ep = 0; ep < curve.size(); ++ep) {
        table.row({std::to_string(ep + 1), util::fixed(curve[ep], 1),
                   util::bar(curve[ep] - 30.0, 30.0, 30),
                   util::fixed(lut_acc, 1)});
    }
    table.row({"eval (greedy)", util::fixed(final_acc, 1),
               util::bar(final_acc - 30.0, 30.0, 30), util::fixed(lut_acc, 1)});
    table.print(std::cout);

    std::printf(
        "\nQ-learning final vs static LUT: %.1f%% vs %.1f%% -> %+.1f%% "
        "relative (paper: +10.2%%)\n",
        final_acc, lut_acc, 100.0 * (final_acc - lut_acc) / lut_acc);
    std::printf("learning curve start -> end: %.1f%% -> %.1f%%\n",
                curve.front(), curve.back());

    print_replica_aggregate(ctx.specs, ctx.outcomes,
                            {"acc_all_pct", "iepmj", "processed"},
                            ctx.options);
    return 0;
}

Experiment fig7a_experiment() {
    Experiment e;
    e.spec.name = "fig7a-runtime-learning";
    e.spec.description =
        "Fig. 7a runtime adaptation learning curve: Q-learning exit "
        "selection vs the static LUT";
    e.spec.metrics = {"acc_all_pct", "iepmj", "processed"};
    e.build = [](const ExperimentSpec&, const SweepCli& options) {
        const auto setup = std::make_shared<const core::ExperimentSetup>(
            core::make_paper_setup(sweep_setup_config(options)));
        const SystemSpec lut{"static LUT", SystemKind::kOursStatic, 0, {}, ""};
        const SystemSpec learned{"Q-learning", SystemKind::kOursQLearning,
                                 sweep_episodes(options, 16), {}, ""};

        std::vector<ScenarioSpec> specs;
        for (int replica = 0; replica < options.replicas; ++replica) {
            specs.push_back(make_learning_curve_scenario(
                setup, lut, "paper-solar", replica, options.base_seed));
            specs.push_back(make_learning_curve_scenario(
                setup, learned, "paper-solar", replica, options.base_seed));
        }
        return specs;
    };
    e.report = fig7a_report;
    return e;
}

}  // namespace

void add_fig_experiments(ExperimentTable& into) {
    into["fig1b-exit-accuracy"] = fig1b_experiment;
    into["fig4-compression-policy"] = fig4_experiment;
    add_spec_file(into, "paper_baselines.ini", fig5_report);
    into["fig6-flops"] = fig6_experiment;
    into["fig7a-runtime-learning"] = fig7a_experiment;
    add_spec_file(into, "exit_distribution.ini", fig7b_report);
    into["latency-table"] = latency_experiment;
}

}  // namespace imx::exp::detail
