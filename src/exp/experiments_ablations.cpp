/// \file
/// \brief Built-in ablation experiments. The harvester, recovery, traffic
/// and storage-deadline grids are the embedded examples/experiments/*.ini
/// files registered with the reports below; runtime, search, trace and
/// deadline-policy build their grids in C++. Every table stays
/// byte-identical to the pinned --quick goldens.
#include "exp/experiments_builtin.hpp"

#include <algorithm>
#include <any>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
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
#include "energy/solar.hpp"
#include "exp/aggregate.hpp"
#include "exp/report.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/policies/registry.hpp"
#include "util/table.hpp"

namespace imx::exp::detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The policy zoo for the queueless grids. They run with
/// queue_capacity == 0, where queue-slack-greedy *is* slack-greedy by
/// construction (docs/workloads.md) — including it would duplicate every
/// slack-greedy cell under a second label.
std::vector<std::string> queueless_policy_names() {
    auto names = sim::policy_names();
    names.erase(std::remove(names.begin(), names.end(),
                            std::string("queue-slack-greedy")),
                names.end());
    return names;
}

// --- ablation-storage-deadline --------------------------------------------

int storage_deadline_report(const ExperimentRunContext& ctx) {
    aggregate_table(
        aggregate(ctx.specs, ctx.outcomes),
        {"iepmj", "processed", "deadline_miss_pct", "acc_all_pct",
         "event_latency_s"},
        "Storage x deadline x policy sweep (" +
            std::to_string(ctx.options.replicas) +
            " replica(s); mean ± 95% CI when > 1)")
        .print(std::cout);

    std::printf(
        "\nnotes: a tight deadline turns slow waiting into explicit misses "
        "(deadline_miss_pct) but frees the device for the next arrival; "
        "larger storage buffers more night/cloud energy, which lifts "
        "processed counts until capacity stops binding; the slack-aware "
        "policies (pol-slack-*) trade exit depth for timeliness when the "
        "deadline bites. Groups are trace/ours/capXmJ+ddlYs+pol-NAME; use "
        "--csv for the full per-cell statistics.\n");
    return 0;
}

// --- ablation-deadline-policy ---------------------------------------------

std::vector<std::string> parse_policy_list(const SweepCli& options) {
    if (options.positional.empty()) return queueless_policy_names();
    if (options.positional.size() > 1) {
        throw std::invalid_argument("unexpected argument '" +
                                    options.positional[1] + "'");
    }
    std::vector<std::string> names;
    const std::string& list = options.positional[0];
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string name =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!name.empty()) names.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        // A duplicate would register two identical grid cells under one
        // group label and silently skew the aggregation's replica counts.
        for (std::size_t j = 0; j < i; ++j) {
            if (names[i] == names[j]) {
                throw std::invalid_argument("duplicate policy '" + names[i] +
                                            "'");
            }
        }
        // An unknown name throws the registry's own diagnostic (it lists
        // every registered name).
        if (!sim::has_policy(names[i])) (void)sim::make_policy(names[i]);
    }
    if (names.empty()) throw std::invalid_argument("empty policy list");
    return names;
}

/// The deadline axis both the build and the report walk — one constant so
/// the slack-aware-vs-blind comparison can never look up cells the sweep
/// did not register.
constexpr double kPolicyAblationDeadlines[] = {30.0, 60.0, 120.0, 240.0,
                                               kInf};

Experiment deadline_policy_experiment() {
    Experiment e;
    e.spec.name = "ablation-deadline-policy";
    e.spec.description =
        "Deadline x exit-policy ablation: slack-aware vs slack-blind miss "
        "rate and accuracy (optional positional: policy,policy,...)";
    e.spec.metrics = {"deadline_miss_pct", "acc_all_pct", "iepmj",
                      "processed", "event_latency_s"};
    e.allow_positional = true;
    const auto policies = std::make_shared<std::vector<std::string>>();
    e.build = [policies](const ExperimentSpec&, const SweepCli& options) {
        *policies = parse_policy_list(options);

        PaperSweep sweep;
        sweep.traces = {{"paper-solar", sweep_setup_config(options)}};
        sweep.systems = {{"ours", SystemKind::kOursPolicy,
                          sweep_episodes(options, 12), {}, ""}};
        std::vector<SimPatch> deadline_axis;
        for (const double d : kPolicyAblationDeadlines) {
            deadline_axis.push_back(deadline_patch(d));
        }
        std::vector<SimPatch> policy_axis;
        for (const auto& name : *policies) {
            policy_axis.push_back(policy_patch(name));
        }
        sweep.patches = cross_patches(deadline_axis, policy_axis);
        sweep.replicas = options.replicas;
        sweep.base_seed = options.base_seed;
        return build_paper_scenarios(sweep);
    };
    e.report = [policies](const ExperimentRunContext& ctx) -> int {
        aggregate_table(
            aggregate(ctx.specs, ctx.outcomes),
            {"deadline_miss_pct", "acc_all_pct", "iepmj", "processed",
             "event_latency_s"},
            "Deadline x policy ablation (" +
                std::to_string(ctx.options.replicas) +
                " replica(s); mean ± 95% CI when > 1)")
            .print(std::cout);

        // Canonical (replica-0) slack-aware vs slack-blind comparison per
        // finite-deadline cell: the pairs share everything but slack
        // awareness.
        std::vector<SimPatch> deadline_axis;
        for (const double d : kPolicyAblationDeadlines) {
            deadline_axis.push_back(deadline_patch(d));
        }
        const auto group_for = [&](const std::string& policy,
                                   const SimPatch& ddl) {
            return "paper-solar/ours/" + ddl.label + "+pol-" + policy;
        };
        const auto have = [&](const std::string& name) {
            for (const auto& p : *policies) {
                if (p == name) return true;
            }
            return false;
        };
        const struct {
            const char* blind;
            const char* aware;
        } pairs[] = {{"greedy", "slack-greedy"},
                     {"qlearning", "slack-qlearning"}};
        std::printf("\nslack-aware vs slack-blind, canonical run:\n");
        for (const auto& pair : pairs) {
            if (!have(pair.blind) || !have(pair.aware)) continue;
            for (const auto& ddl : deadline_axis) {
                if (ddl.label == "ddl-none") continue;
                const auto& blind = canonical_metrics(
                    ctx.specs, ctx.outcomes, group_for(pair.blind, ddl));
                const auto& aware = canonical_metrics(
                    ctx.specs, ctx.outcomes, group_for(pair.aware, ddl));
                const double blind_miss = blind.at("deadline_miss_pct");
                const double aware_miss = aware.at("deadline_miss_pct");
                std::printf(
                    "  %-8s %-15s -> %-15s miss %6.1f%% -> %6.1f%%  "
                    "acc(all) %5.1f%% -> %5.1f%%  %s\n",
                    ddl.label.c_str(), pair.blind, pair.aware, blind_miss,
                    aware_miss, blind.at("acc_all_pct"),
                    aware.at("acc_all_pct"),
                    aware_miss < blind_miss   ? "(miss rate down)"
                    : aware_miss > blind_miss ? "(miss rate up)"
                                              : "(tied)");
            }
        }

        std::printf(
            "\nnotes: with no deadline (ddl-none) the slack-aware policies "
            "collapse onto their slack-blind counterparts (infinite slack caps "
            "nothing). Under tight deadlines they commit to shallower exits, "
            "which finishes sooner, spends less per event, and frees the device "
            "for the next arrival — fewer deadline misses at some accuracy "
            "cost.\n");
        return 0;
    };
    return e;
}

// --- harvester-ablation ---------------------------------------------------

int harvester_report(const ExperimentRunContext& ctx) {
    const int code = generic_report(ctx);
    std::printf(
        "\nnotes: every environment is rescaled to the same %.1f mJ harvest "
        "budget, so the comparison isolates income *shape*: rf-bursty "
        "delivers it in short random dwells with dead gaps, ou-wind as a "
        "wandering trickle, duty-cycle as a fixed on/off schedule, and "
        "paper-solar as the diurnal envelope. Sources are spec-level config "
        "(docs/energy-sources.md) — add a [trace.<label>] section to a copy "
        "of examples/experiments/harvester_ablation.ini to test a new "
        "environment without recompiling.\n",
        sweep_setup_config(ctx.options).total_harvest_mj);
    return code;
}

// --- recovery-ablation ----------------------------------------------------

int recovery_report(const ExperimentRunContext& ctx) {
    const int code = generic_report(ctx);
    std::printf(
        "\nnotes: rec-none is the historical failure-free runtime (deaths "
        "is 0 by construction). The other cells run the same grid under the "
        "power-failure model: while an inference stalls waiting to afford "
        "its next execution unit the powered device drains active_power_mw, "
        "and a sag below death_threshold_mj kills the run. rec-restart then "
        "recomputes everything (wasted_macs_m), rec-ckpt-* persist committed "
        "units to NVM at a per-commit write cost (recovery_mj), and "
        "rec-ckpt-free restores for a small per-unit penalty. Strategies are "
        "spec-level config (docs/recovery.md) — edit the [recovery.*] "
        "sections of a copy of examples/experiments/recovery_ablation.ini to "
        "try other strategy settings without recompiling.\n");
    return code;
}

// --- traffic-ablation -----------------------------------------------------

int traffic_report(const ExperimentRunContext& ctx) {
    const int code = generic_report(ctx);

    // Canonical (replica-0) queue-aware vs queue-blind comparison per
    // arrival cell and bounded capacity: the pairs share everything but the
    // policy's backlog awareness (q0 is the historical unbuffered model,
    // where the two policies coincide by construction).
    std::printf("\nqueue-aware vs queue-blind (ddl60s, canonical run):\n");
    for (const auto& arrival : ctx.spec.arrivals) {
        for (const int capacity : ctx.spec.queue_capacity) {
            if (capacity == 0) continue;
            const std::string prefix = "paper-solar/ours/arr-" + arrival.label +
                                       "+ddl60s+q" + std::to_string(capacity);
            const auto& blind = canonical_metrics(ctx.specs, ctx.outcomes,
                                                  prefix +
                                                      "+pol-slack-greedy");
            const auto& aware = canonical_metrics(
                ctx.specs, ctx.outcomes, prefix + "+pol-queue-slack-greedy");
            const double blind_p95 = blind.at("p95_latency_s");
            const double aware_p95 = aware.at("p95_latency_s");
            const double blind_drop = blind.at("dropped");
            const double aware_drop = aware.at("dropped");
            std::printf(
                "  %-12s q%-3d miss %5.1f%% -> %5.1f%%  p95 %6.1fs -> "
                "%6.1fs  dropped %3.0f -> %3.0f  %s\n",
                arrival.label.c_str(), capacity, blind.at("deadline_miss_pct"),
                aware.at("deadline_miss_pct"), blind_p95, aware_p95,
                blind_drop, aware_drop,
                aware_p95 < blind_p95 || aware_drop < blind_drop
                    ? "(queue-aware better)"
                : aware_p95 > blind_p95 || aware_drop > blind_drop
                    ? "(queue-aware worse)"
                    : "(tied)");
        }
    }

    std::printf(
        "\nnotes: q0 is the historical unbuffered model (an arrival during a "
        "busy inference is missed outright; dropped stays 0 and the two "
        "policies coincide). A bounded queue converts those misses into "
        "waiting time — p95_latency_s — until it fills, then into explicit "
        "drops. queue-slack-greedy sheds exit depth as the backlog grows, "
        "finishing each inference sooner to drain the queue; under bursty "
        "traffic that lowers tail latency and drop counts at some accuracy "
        "cost. Workloads are spec-level config (docs/workloads.md) — edit "
        "the [arrivals.*] sections of a copy of "
        "examples/experiments/traffic_ablation.ini to try other arrival "
        "patterns without recompiling.\n");
    return code;
}

// --- ablation-runtime -----------------------------------------------------

constexpr double kPenalties[] = {0.0, 0.5, 1.0, 2.0};
constexpr double kCapacities[] = {1.5, 3.0, 6.0, 12.0};

Experiment runtime_experiment() {
    Experiment e;
    e.spec.name = "ablation-runtime";
    e.spec.description =
        "Runtime ablations: incremental inference on/off, miss-penalty "
        "sweep, storage-capacity sensitivity";
    e.spec.metrics = {"iepmj", "acc_all_pct", "processed"};
    e.build = [](const ExperimentSpec&, const SweepCli& options) {
        const auto setup_cfg = sweep_setup_config(options);
        const auto setup = std::make_shared<const core::ExperimentSetup>(
            core::make_paper_setup(setup_cfg));
        const TraceSpec trace{"paper-solar", setup_cfg, setup};
        const int eps_full = sweep_episodes(options, 16);
        const int eps_capacity = sweep_episodes(options, 12);

        // Grid 1: incremental inference (the second Q-table) on/off.
        PaperSweep incremental_sweep;
        incremental_sweep.traces = {trace};
        sim::RuntimeConfig no_incremental;
        no_incremental.enable_incremental = false;
        incremental_sweep.systems = {
            {"with incremental (paper)", SystemKind::kOursQLearning,
             eps_full, {}, ""},
            {"without", SystemKind::kOursQLearning, eps_full,
             no_incremental, ""}};
        incremental_sweep.replicas = options.replicas;
        incremental_sweep.base_seed = options.base_seed;
        auto specs = build_paper_scenarios(incremental_sweep);

        // Grid 2: miss-penalty (energy-reservation signal) sweep.
        PaperSweep penalty_sweep;
        penalty_sweep.traces = {trace};
        for (const double penalty : kPenalties) {
            sim::RuntimeConfig cfg;
            cfg.miss_penalty = penalty;
            penalty_sweep.systems.push_back(
                {"penalty " + util::fixed(penalty, 1),
                 SystemKind::kOursQLearning, eps_full, cfg, ""});
        }
        penalty_sweep.replicas = options.replicas;
        penalty_sweep.base_seed = options.base_seed;
        for (auto& spec : build_paper_scenarios(penalty_sweep)) {
            specs.push_back(std::move(spec));
        }

        // Grid 3: storage-capacity axis (QL vs static LUT per capacity).
        PaperSweep capacity_sweep;
        capacity_sweep.traces = {trace};
        capacity_sweep.systems = {
            {"Q-learning", SystemKind::kOursQLearning, eps_capacity, {}, ""},
            {"static LUT", SystemKind::kOursStatic, 0, {}, ""}};
        capacity_sweep.patches.clear();  // only the explicit capacities run
        for (const double capacity : kCapacities) {
            capacity_sweep.patches.push_back(storage_patch(capacity));
        }
        capacity_sweep.replicas = options.replicas;
        capacity_sweep.base_seed = options.base_seed;
        for (auto& spec : build_paper_scenarios(capacity_sweep)) {
            specs.push_back(std::move(spec));
        }
        return specs;
    };
    e.report = [](const ExperimentRunContext& ctx) -> int {
        util::Table t1("Ablation — incremental inference (second Q-table)");
        t1.header(
            {"variant", "IEpmJ", "acc all %", "acc processed %", "processed"});
        for (const char* variant : {"with incremental (paper)", "without"}) {
            const auto& r = canonical_sim(ctx.specs, ctx.outcomes,
                                          std::string("paper-solar/") +
                                              variant);
            t1.row({variant, util::fixed(r.iepmj(), 3),
                    util::fixed(100.0 * r.accuracy_all_events(), 1),
                    util::fixed(100.0 * r.accuracy_processed(), 1),
                    std::to_string(r.processed_count())});
        }
        t1.print(std::cout);

        util::Table t2("Ablation — miss penalty (energy-reservation signal)");
        t2.header({"miss penalty", "IEpmJ", "acc all %", "exit-1 share %"});
        for (const double penalty : kPenalties) {
            const auto& r = canonical_sim(
                ctx.specs, ctx.outcomes,
                "paper-solar/penalty " + util::fixed(penalty, 1));
            const auto hist = r.exit_histogram(3);
            t2.row({util::fixed(penalty, 1), util::fixed(r.iepmj(), 3),
                    util::fixed(100.0 * r.accuracy_all_events(), 1),
                    util::fixed(100.0 * hist[0] /
                                    std::max(r.processed_count(), 1),
                                1)});
        }
        t2.print(std::cout);

        util::Table t3("Ablation — storage capacity (mJ)");
        t3.header(
            {"capacity", "IEpmJ (QL)", "IEpmJ (LUT)", "processed QL/LUT"});
        for (const double capacity : kCapacities) {
            const std::string suffix = "/" + storage_patch(capacity).label;
            const auto& ql = canonical_sim(ctx.specs, ctx.outcomes,
                                           "paper-solar/Q-learning" + suffix);
            const auto& lut = canonical_sim(ctx.specs, ctx.outcomes,
                                            "paper-solar/static LUT" + suffix);
            t3.row({util::fixed(capacity, 1), util::fixed(ql.iepmj(), 3),
                    util::fixed(lut.iepmj(), 3),
                    std::to_string(ql.processed_count()) + "/" +
                        std::to_string(lut.processed_count())});
        }
        t3.print(std::cout);

        std::printf(
            "\nnotes: the reservation signal (miss penalty) is what teaches "
            "the runtime to favor cheap exits; with penalty 0 the learner "
            "chases per-event accuracy like the static LUT does.\n");

        print_replica_aggregate(ctx.specs, ctx.outcomes,
                                {"iepmj", "acc_all_pct", "processed"},
                                ctx.options);
        return 0;
    };
    return e;
}

// --- ablation-search ------------------------------------------------------

Experiment search_experiment() {
    Experiment e;
    e.spec.name = "ablation-search";
    e.spec.description =
        "Compression-search algorithm comparison plus the trace-aware-reward "
        "ablation (optional positional: episode count)";
    e.spec.metrics = {"best_racc", "evaluations", "feasible"};
    e.allow_positional = true;
    auto setup = std::make_shared<
        std::shared_ptr<const core::ExperimentSetup>>();
    e.build = [setup](const ExperimentSpec&, const SweepCli& options) {
        // An explicit positional episode count always wins over --quick.
        const int episodes =
            positional_episodes(options, options.quick ? 40 : 240);

        *setup = std::make_shared<const core::ExperimentSetup>(
            core::make_paper_setup(sweep_setup_config(options)));
        core::SearchConfig cfg;
        cfg.episodes = episodes;
        core::SearchConfig blind_cfg = cfg;
        blind_cfg.trace_aware = false;

        const struct {
            SearchAlgo algo;
            const char* label;
            const core::SearchConfig* config;
        } searches[] = {
            {SearchAlgo::kDdpg, "DDPG (paper)", &cfg},
            {SearchAlgo::kDdpgRefined, "DDPG + refine", &cfg},
            {SearchAlgo::kRandom, "random", &cfg},
            {SearchAlgo::kAnnealing, "annealing", &cfg},
            {SearchAlgo::kDdpgRefined, "DDPG + refine (trace-blind)",
             &blind_cfg},
        };
        std::vector<ScenarioSpec> specs;
        for (const auto& search : searches) {
            for (int replica = 0; replica < options.replicas; ++replica) {
                specs.push_back(make_search_scenario(*setup, search.algo,
                                                     search.label,
                                                     *search.config, replica,
                                                     options.base_seed));
            }
        }
        return specs;
    };
    e.report = [setup](const ExperimentRunContext& ctx) -> int {
        const auto canonical_result = [&](const char* label) {
            for (std::size_t i = 0; i < ctx.specs.size(); ++i) {
                if (ctx.specs[i].group == std::string("search/") + label &&
                    ctx.specs[i].replica == 0) {
                    return std::any_cast<core::SearchResult>(
                        ctx.outcomes[i].payload);
                }
            }
            std::fprintf(stderr, "no search result for %s\n", label);
            std::abort();
        };

        // The deployed evaluation stack (trace-aware reward) for the
        // reference rows and the trace-awareness comparison below.
        const auto& desc = (*setup)->network;
        const core::AccuracyModel oracle(
            desc, {core::kPaperFullPrecisionAcc.begin(),
                   core::kPaperFullPrecisionAcc.end()});
        const core::StaticTraceEvaluator trace_eval(
            (*setup)->trace, (*setup)->events, core::paper_storage_config(),
            core::kEnergyPerMMacMj);
        const core::PolicyEvaluator evaluator(desc, oracle, trace_eval,
                                              core::paper_constraints(),
                                              true);

        util::Table table(
            "Ablation — search algorithms, equal evaluation budget");
        table.header({"algorithm", "evals", "feasible", "best Racc"});
        for (const char* label :
             {"DDPG (paper)", "DDPG + refine", "random", "annealing"}) {
            const auto r = canonical_result(label);
            table.row({label, std::to_string(r.evaluations),
                       r.found_feasible ? "yes" : "no",
                       util::fixed(r.best_reward, 4)});
        }
        table.row(
            {"uniform fit", "1", "yes",
             util::fixed(evaluator.score(core::uniform_baseline_policy()).racc,
                         4)});
        table.row({"reference nonuniform", "1", "yes",
                   util::fixed(
                       evaluator.score(core::reference_nonuniform_policy())
                           .racc,
                       4)});
        table.print(std::cout);

        // --- Trace-awareness ablation ---
        // Search with the plain mean-accuracy reward, then evaluate BOTH
        // winners under the trace objective: ignoring the power trace picks
        // policies whose expensive exits miss events.
        const auto blind_best =
            canonical_result("DDPG + refine (trace-blind)");
        const auto aware_best = canonical_result("DDPG + refine");

        const double blind_under_trace =
            evaluator.score(blind_best.best_policy).racc;
        const double aware_under_trace =
            evaluator.score(aware_best.best_policy).racc;

        util::Table t2(
            "Ablation — power-trace-aware reward (Eq. 10) vs plain mean");
        t2.header({"search reward", "Racc under trace objective"});
        t2.row({"trace-aware (paper)", util::fixed(aware_under_trace, 4)});
        t2.row({"plain mean accuracy", util::fixed(blind_under_trace, 4)});
        t2.print(std::cout);
        std::printf(
            "\ntrace-aware search wins by %+.1f%% on the deployed objective\n",
            100.0 * (aware_under_trace - blind_under_trace) /
                std::max(blind_under_trace, 1e-9));

        print_replica_aggregate(ctx.specs, ctx.outcomes,
                                {"best_racc", "evaluations", "feasible"},
                                ctx.options);
        return 0;
    };
    return e;
}

// --- ablation-trace -------------------------------------------------------

/// Swap the power trace under the deployed system: rescale to the canonical
/// harvest budget and regenerate the canonical event schedule over the new
/// trace's duration.
std::shared_ptr<const core::ExperimentSetup> with_trace(
    const core::ExperimentSetup& base, const core::SetupConfig& cfg,
    energy::PowerTrace trace, const std::string& arrivals,
    std::uint64_t event_seed) {
    auto setup = std::make_shared<core::ExperimentSetup>(base);
    trace.rescale_total_energy(cfg.total_harvest_mj);
    setup->arrivals = sim::make_arrival_source(arrivals);
    setup->events = setup->arrivals->generate(
        {cfg.event_count, trace.duration(), event_seed});
    setup->trace = std::move(trace);
    setup->config.arrival_source = arrivals;
    setup->config.arrival_params.clear();
    return setup;
}

const char* const kTraceLabels[] = {"daylight solar (paper setup)",
                                    "full day incl. night",
                                    "square wave 60s/50%", "constant power"};

const struct ArrivalCase {
    const char* source;  ///< arrival registry name
    const char* label;
} kArrivalCases[] = {{"uniform", "uniform (paper)"},
                     {"poisson", "Poisson"},
                     {"bursty", "bursty 2-5"}};

Experiment trace_experiment() {
    Experiment e;
    e.spec.name = "ablation-trace";
    e.spec.description =
        "Environment robustness: power-trace shapes (solar / night gap / "
        "square / constant) and arrival processes";
    e.spec.metrics = {"iepmj", "processed", "event_latency_s"};
    e.build = [](const ExperimentSpec&, const SweepCli& options) {
        const auto setup_cfg = sweep_setup_config(options);
        const auto base = std::make_shared<const core::ExperimentSetup>(
            core::make_paper_setup(setup_cfg));
        const int episodes = sweep_episodes(options, 12);

        // Trace-shape axis (same harvest budget for every shape).
        energy::SolarConfig full_day;
        full_day.dt_s = 1.0;
        full_day.peak_power_mw = 0.08;
        full_day.time_compression =
            86400.0 / setup_cfg.duration_s;  // night gap
        PaperSweep shape_sweep;
        shape_sweep.traces = {
            {kTraceLabels[0],
             setup_cfg,
             with_trace(*base, setup_cfg, base->trace,
                        "uniform", setup_cfg.event_seed)},
            {kTraceLabels[1],
             setup_cfg,
             with_trace(*base, setup_cfg, energy::make_solar_trace(full_day),
                        "uniform", setup_cfg.event_seed)},
            {kTraceLabels[2],
             setup_cfg,
             with_trace(*base, setup_cfg,
                        energy::PowerTrace::square_wave(
                            0.05, 60.0, 0.5, setup_cfg.duration_s, 1.0),
                        "uniform", setup_cfg.event_seed)},
            {kTraceLabels[3],
             setup_cfg,
             with_trace(*base, setup_cfg,
                        energy::PowerTrace::constant(
                            0.0217, setup_cfg.duration_s, 1.0),
                        "uniform", setup_cfg.event_seed)},
        };
        shape_sweep.systems = {
            {"Q-learning", SystemKind::kOursQLearning, episodes, {}, ""},
            {"static LUT", SystemKind::kOursStatic, 0, {}, ""}};
        shape_sweep.replicas = options.replicas;
        shape_sweep.base_seed = options.base_seed;
        auto specs = build_paper_scenarios(shape_sweep);

        // Arrival-process axis (daylight solar, fresh arrival seed 321).
        PaperSweep arrival_sweep;
        arrival_sweep.traces.clear();  // drop the default paper-solar spec
        for (const auto& c : kArrivalCases) {
            auto setup = std::make_shared<core::ExperimentSetup>(*base);
            setup->arrivals = sim::make_arrival_source(c.source);
            setup->events = setup->arrivals->generate(
                {setup_cfg.event_count, base->trace.duration(), 321});
            setup->config.arrival_source = c.source;
            arrival_sweep.traces.push_back(
                {c.label, setup_cfg, std::move(setup)});
        }
        arrival_sweep.systems = shape_sweep.systems;
        arrival_sweep.replicas = options.replicas;
        arrival_sweep.base_seed = options.base_seed;
        for (auto& spec : build_paper_scenarios(arrival_sweep)) {
            specs.push_back(std::move(spec));
        }
        return specs;
    };
    e.report = [](const ExperimentRunContext& ctx) -> int {
        const auto setup_cfg = sweep_setup_config(ctx.options);
        util::Table t1("Ablation — power trace shape (same " +
                       util::fixed(setup_cfg.total_harvest_mj, 1) +
                       " mJ budget)");
        t1.header(
            {"trace", "IEpmJ (QL)", "IEpmJ (LUT)", "processed QL", "lat QL"});
        for (const char* label : kTraceLabels) {
            const auto& ql = canonical_sim(ctx.specs, ctx.outcomes,
                                           std::string(label) + "/Q-learning");
            const auto& lut = canonical_sim(ctx.specs, ctx.outcomes,
                                            std::string(label) +
                                                "/static LUT");
            t1.row({label, util::fixed(ql.iepmj(), 3),
                    util::fixed(lut.iepmj(), 3),
                    std::to_string(ql.processed_count()),
                    util::fixed(ql.mean_event_latency_s(), 1) + " s"});
        }
        t1.print(std::cout);

        util::Table t2("Ablation — event arrival process (daylight solar)");
        t2.header(
            {"arrivals", "IEpmJ (QL)", "IEpmJ (LUT)", "processed QL/LUT"});
        for (const auto& c : kArrivalCases) {
            const auto& ql = canonical_sim(ctx.specs, ctx.outcomes,
                                           std::string(c.label) +
                                               "/Q-learning");
            const auto& lut = canonical_sim(ctx.specs, ctx.outcomes,
                                            std::string(c.label) +
                                                "/static LUT");
            t2.row({c.label, util::fixed(ql.iepmj(), 3),
                    util::fixed(lut.iepmj(), 3),
                    std::to_string(ql.processed_count()) + "/" +
                        std::to_string(lut.processed_count())});
        }
        t2.print(std::cout);

        std::printf(
            "\nnotes: the night gap roughly halves IEpmJ for every policy "
            "(half the events arrive with no income and a small buffer); "
            "burstiness favors the learned policy, which holds reserve for "
            "followers.\n");

        print_replica_aggregate(ctx.specs, ctx.outcomes,
                                {"iepmj", "processed", "event_latency_s"},
                                ctx.options);
        return 0;
    };
    return e;
}

}  // namespace

void add_ablation_experiments(ExperimentTable& into) {
    add_spec_file(into, "harvester_ablation.ini", harvester_report);
    add_spec_file(into, "recovery_ablation.ini", recovery_report);
    add_spec_file(into, "storage_deadline_policy.ini",
                  storage_deadline_report);
    add_spec_file(into, "traffic_ablation.ini", traffic_report);
    into["ablation-deadline-policy"] = deadline_policy_experiment;
    into["ablation-runtime"] = runtime_experiment;
    into["ablation-search"] = search_experiment;
    into["ablation-trace"] = trace_experiment;
}

}  // namespace imx::exp::detail
