// imx_perfbench: the in-process benchmark of the search and sweep paths.
//
//   imx_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --workdir DIR --reference FILE [--capture]
//
// A run first makes one untimed pass at the reference seed whose per-group
// digests must match FILE, then times a fixed number of passes of the grid
// at the workload seed (S seconds over the workload's nominal pass length).
// Before each pass the grid is rebuilt a few times: setup_s is the fastest
// of those builds, run_s and cpu_s come from the fastest pass.
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced passes, runs the probes, writes the spans to DIR, and prints
// the per-layer metrics. The last stdout line is the JSON result.
// --capture runs only the reference pass and prints its reference lines.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "nn/kernels/dispatch.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Grid construction takes milliseconds, so setup_s is the fastest of many
// builds spread over the whole run: before each timed pass the grid is
// built until kSetupBudgetS / passes has been spent (at least
// kMinSetupsPerPass times). Like run_s it takes the fastest sample because
// interference only adds time: over six interleaved runs on the reference
// host the fastest build ranged 11-17% per workload, the median build
// 19-33%.
constexpr int kMinSetupsPerPass = 2;
constexpr double kSetupBudgetS = 2.0;

/// Timed passes in a run, fixed before the clock starts; a traced run
/// needs one untraced and one traced pass at least.
int pass_count(const WorkloadDef& def, double seconds, bool trace) {
    const int passes = static_cast<int>(std::lround(seconds / def.pass_s));
    return std::max(passes, trace ? 2 : 1);
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".";
    std::string reference;
    bool capture = false;
};

[[noreturn]] void usage(const std::string& problem) {
    std::fprintf(stderr,
                 "imx_perfbench: %s\nusage: imx_perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "--reference FILE [--capture]\n",
                 problem.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--capture") {
            options.capture = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                options.trace = value == "1";
            } else if (flag == "--workdir") {
                options.workdir = value;
            } else if (flag == "--reference") {
                options.reference = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (options.reference.empty()) usage("--reference is required");
    return options;
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

/// Probe time x count over a sweep grid: what the probes say its scenarios
/// should have cost, in seconds. The sweeps run only non-learning
/// multi-exit scenarios: one simulator run each, on the queue, recovery or
/// plain path.
double sweep_explained_s(const Grid& grid,
                         const std::map<std::string, double>& probe) {
    const auto us = [&](const char* key) { return 1e-6 * probe.at(key); };
    double total = 0.0;
    for (const ScenarioInfo& info : grid.info) {
        if (info.queue) {
            total += us("sim.run_us.queue");
        } else if (info.recovery) {
            total += us("sim.run_us.recovery");
        } else {
            total += us("sim.run_us.greedy");
        }
        if (info.fresh_arrivals) total += us("sim.arrivals_us");
    }
    return total;
}

/// The pass with the least wall time. Interference from other load on a
/// shared host only ever adds time, and on the reference host the fastest
/// of a run's passes varied about half as much from run to run as the
/// median pass did.
const PassResult& fastest_pass(const std::vector<PassResult>& passes) {
    return *std::min_element(passes.begin(), passes.end(),
                             [](const PassResult& a, const PassResult& b) {
                                 return a.run_s < b.run_s;
                             });
}

template <class F>
double median_of(const std::vector<PassResult>& passes, F&& field) {
    std::vector<double> values;
    for (const auto& pass : passes) values.push_back(field(pass));
    return median(values);
}

std::vector<Metric> layer_metrics(const Grid& grid, double build_s,
                                  const std::vector<PassResult>& untraced,
                                  const std::vector<PassResult>& traced,
                                  const std::map<std::string, double>& probe) {
    const PassResult& first = traced.front();
    const double run_traced = fastest_pass(traced).run_s;
    const double run_untraced = fastest_pass(untraced).run_s;
    const auto busy = [](const PassResult& p) {
        return std::accumulate(p.scenario_s.begin(), p.scenario_s.end(), 0.0);
    };
    const double busy_s = median_of(traced, busy);
    const double threads = grid.threads;
    const double searches =
        grid.def->search ? static_cast<double>(grid.specs.size()) : 0.0;
    const double search_episodes =
        searches * (grid.search.episodes - grid.search.warmup_episodes);
    const double train_steps =
        2.0 * search_episodes * grid.search.train_steps_per_episode;
    const double act_calls = 2.0 * search_episodes * grid.search_layers;
    const double score_calls = first.evaluations;
    const auto p = [&](const char* key) { return probe.at(key); };
    const double explained_s =
        grid.def->search
            ? 1e-6 * (score_calls * p("core.score_us") +
                      train_steps * p("rl.ddpg_train_step_us") +
                      act_calls * p("rl.ddpg_act_us")) +
                  1e-3 * searches *
                      (p("core.accuracy_model_ms") + p("core.trace_eval_ms"))
            : sweep_explained_s(grid, probe);
    double sim_runs = 0.0;
    for (const ScenarioInfo& info : grid.info) {
        if (info.simulated) sim_runs += 1;
    }
    const double gemm_calls = static_cast<double>(first.kernels.gemm_calls);
    const double gemm_macs = static_cast<double>(first.kernels.gemm_macs);
    const auto share = [&](double seconds) {
        return busy_s > 0.0 ? seconds / busy_s : 0.0;
    };
    std::vector<PassResult> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());

    return {
        {"exp.build_s", build_s, "s"},
        {"exp.scenarios", static_cast<double>(grid.specs.size()), "count"},
        {"exp.scenario_busy_s", busy_s, "s"},
        {"exp.scenario_ms_p50",
         1e3 * median_of(traced, [](auto& x) { return percentile(x.scenario_s, 0.5); }),
         "ms"},
        {"exp.scenario_ms_p99",
         1e3 * median_of(traced, [](auto& x) { return percentile(x.scenario_s, 0.99); }),
         "ms"},
        {"exp.scenario_ms_max",
         1e3 * median_of(traced, [](auto& x) { return percentile(x.scenario_s, 1.0); }),
         "ms"},
        {"exp.worker_idle_frac",
         median_of(traced,
                   [&](auto& x) { return 1.0 - busy(x) / (threads * x.run_s); }),
         "ratio"},
        {"exp.sink_calls", static_cast<double>(first.sink_calls), "count"},
        {"exp.sink_s", median_of(traced, [](auto& x) { return x.sink_s; }), "s"},
        {"exp.journal_bytes", first.journal_bytes, "bytes"},
        {"exp.merge_s", median_of(all, [](auto& x) { return x.merge_s; }), "s"},
        {"exp.aggregate_s", median_of(all, [](auto& x) { return x.aggregate_s; }),
         "s"},
        {"exp.retained_event_records", first.retained_records, "count"},
        {"core.paper_setup_s", p("core.paper_setup_s"), "s"},
        {"core.accuracy_model_ms", p("core.accuracy_model_ms"), "ms"},
        {"core.trace_eval_ms", p("core.trace_eval_ms"), "ms"},
        {"core.score_calls", score_calls, "count"},
        {"core.score_us", p("core.score_us"), "us"},
        {"core.score_share", share(score_calls * 1e-6 * p("core.score_us")),
         "ratio"},
        {"core.oracle_evaluate_ns", p("core.oracle_evaluate_ns"), "ns"},
        {"rl.ddpg_train_steps", train_steps, "count"},
        {"rl.ddpg_train_step_us", p("rl.ddpg_train_step_us"), "us"},
        {"rl.ddpg_train_share",
         share(train_steps * 1e-6 * p("rl.ddpg_train_step_us")), "ratio"},
        {"rl.ddpg_act_calls", act_calls, "count"},
        {"rl.ddpg_act_us", p("rl.ddpg_act_us"), "us"},
        {"rl.qlearning_step_ns", p("rl.qlearning_step_ns"), "ns"},
        {"nn.gemm_calls", gemm_calls, "count"},
        {"nn.gemm_macs", gemm_macs, "count"},
        {"nn.macs_per_gemm_call", gemm_calls > 0.0 ? gemm_macs / gemm_calls : 0.0,
         "count"},
        {"nn.bias_act_calls", static_cast<double>(first.kernels.bias_act_calls),
         "count"},
        {"nn.gemm_gmacs_per_s", p("nn.gemm_gmacs_per_s"), "GMAC/s"},
        {"sim.runs", sim_runs, "count"},
        {"sim.steps_per_run", p("sim.steps_per_run"), "count"},
        {"sim.run_us.greedy", p("sim.run_us.greedy"), "us"},
        {"sim.ns_per_step", p("sim.ns_per_step"), "ns"},
        {"sim.run_us.checkpointed", p("sim.run_us.checkpointed"), "us"},
        {"sim.train_episode_us", p("sim.train_episode_us"), "us"},
        {"sim.run_us.queue", p("sim.run_us.queue"), "us"},
        {"sim.run_us.recovery", p("sim.run_us.recovery"), "us"},
        {"sim.arrivals_us", p("sim.arrivals_us"), "us"},
        {"energy.harvest_ns", p("energy.harvest_ns"), "ns"},
        {"energy.trace_build_ms", p("energy.trace_build_ms"), "ms"},
        {"sim.events", first.events, "count"},
        {"sim.processed_frac",
         first.events > 0.0 ? first.processed / first.events : 0.0, "ratio"},
        {"sim.dropped", first.dropped, "count"},
        {"sim.deaths", first.deaths, "count"},
        {"sim.wasted_macs_m", first.wasted_macs_m, "MMAC"},
        {"unattributed_frac",
         busy_s > 0.0 ? 1.0 - explained_s / busy_s : 0.0,
         "ratio"},
        {"trace_overhead_frac", run_traced / run_untraced - 1.0, "ratio"},
    };
}

std::string json_escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

int run(const Options& options) {
    const WorkloadDef* def = find_workload(options.workload);
    if (def == nullptr) {
        std::string known;
        for (const auto& name : workload_names()) known += " " + name;
        usage("unknown workload '" + options.workload + "' (known:" + known + ")");
    }
    const int nproc = available_cpus();
    // Runner workers: every CPU for the sweeps, one per search.
    const int threads = def->search ? std::min(nproc, def->replicas) : nproc;
    const std::string backend =
        nn::kernels::to_string(nn::kernels::active_backend());
    std::printf(
        "env {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"seconds\": %g, \"nproc\": %d, \"threads\": %d, \"backend\": "
        "\"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
        def->name, static_cast<unsigned long long>(options.seed),
        options.trace ? 1 : 0, options.seconds, nproc, threads,
        backend.c_str(), json_escape(__VERSION__).c_str(),
        PERFBENCH_BUILD_TYPE);

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    const auto tally = [&](const PassResult& pass) {
        attempted += pass.attempted;
        failed += pass.failed;
        problems.insert(problems.end(), pass.problems.begin(),
                        pass.problems.end());
    };
    const auto compare = [&](const PassResult& pass,
                             const std::map<std::string, std::uint64_t>& expected,
                             const char* against) {
        for (const auto& [group, digest] : pass.digests) {
            const auto it = expected.find(group);
            if (it == expected.end() || it->second != digest) {
                problems.push_back("group " + group + " differs from the " +
                                   against);
                failed += pass.group_sizes.at(group);
            }
        }
    };

    // The reference pass doubles as the warm-up: untimed, at the seed the
    // reference digests were captured at. For search it is the canonical
    // fig4 search alone (replica 0), which warms the same code in a third
    // of the time four parallel searches take.
    Grid reference_grid = build_grid(*def, reference_seed(*def), threads);
    if (def->search) {
        reference_grid.specs.resize(1);
        reference_grid.info.resize(1);
    }
    if (options.capture) {
        const PassResult pass = run_pass(reference_grid, options.workdir, nullptr);
        for (const auto& problem : pass.problems) {
            std::fprintf(stderr, "problem: %s\n", problem.c_str());
        }
        std::fputs(reference_lines(def->name, def->search ? backend : "any",
                                   pass).c_str(),
                   stdout);
        return pass.failed == 0 ? 0 : 1;
    }

    const Reference reference =
        load_reference(options.reference, def->name, backend);
    {
        const PassResult warm =
            run_pass(reference_grid, options.workdir, nullptr);
        tally(warm);
        if (reference.empty()) {
            problems.push_back("no reference digests for " +
                               std::string(def->name) + " on backend " +
                               backend);
            failed += warm.attempted;
        } else {
            compare(warm, reference, "reference");
        }
    }
    reference_grid = Grid{};

    Tracer tracer;
    const int passes = pass_count(*def, options.seconds, options.trace);
    std::vector<double> setup_times;
    Grid grid;
    const auto rebuild = [&] {
        double spent_s = 0.0;
        for (int n = 0; n < kMinSetupsPerPass || spent_s < kSetupBudgetS / passes;
             ++n) {
            const int span = options.trace ? tracer.open("exp.build") : -1;
            const auto start = Clock::now();
            Grid built = build_grid(*def, options.seed, threads);
            setup_times.push_back(seconds_between(start, Clock::now()));
            spent_s += setup_times.back();
            if (options.trace) tracer.close(span);
            grid = std::move(built);  // frees the previous build, untimed
        }
    };

    // Every pass runs the same grid at the workload seed and must reproduce
    // the first pass bit for bit; traced and untraced passes alternate.
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    for (int i = 0; i < passes; ++i) {
        rebuild();
        const bool traced_pass = options.trace && i % 2 == 1;
        PassResult pass =
            run_pass(grid, options.workdir, traced_pass ? &tracer : nullptr);
        tally(pass);
        if (!untraced.empty()) {
            compare(pass, untraced.front().digests, "first timed pass");
        }
        if (!def->search && grid.seed == reference_seed(*def)) {
            compare(pass, reference, "reference");
        }
        std::printf("pass %d traced=%d run_s=%.6f cpu_s=%.6f\n", i,
                    traced_pass ? 1 : 0, pass.run_s, pass.cpu_s);
        (traced_pass ? traced : untraced).push_back(std::move(pass));
    }
    const double setup_s =
        *std::min_element(setup_times.begin(), setup_times.end());

    std::vector<Metric> metrics;
    if (options.trace) {
        const auto probe = run_probes(traced.front().best_policy, tracer);
        metrics = layer_metrics(grid, setup_s, untraced, traced, probe);
        const std::string path = options.workdir + "/trace-" + def->name +
                                 "-seed" + std::to_string(options.seed) +
                                 ".jsonl";
        tracer.write_jsonl(path);
        std::fprintf(stderr, "spans written to %s\n", path.c_str());
    } else {
        // The result format needs every end-to-end metric on every
        // workload; a sweep searches nothing, so its best_racc is that of
        // the policy it deploys.
        const double racc = def->search ? untraced.front().best_racc
                                        : deployed_policy_racc();
        const PassResult& fastest = fastest_pass(untraced);
        metrics = {
            {"setup_s", setup_s, "s"},
            {"run_s", fastest.run_s, "s"},
            {"cpu_s", fastest.cpu_s, "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"best_racc", racc, "ratio"},
        };
    }

    for (const auto& problem : problems) {
        std::fprintf(stderr, "problem: %s\n", problem.c_str());
    }
    // failed_frac reads 0 on a correct run, which an end-to-end metric may
    // not, so the JSON result carries it only with the per-layer metrics.
    const double failed_frac =
        static_cast<double>(failed) / static_cast<double>(attempted);
    if (options.trace) metrics.push_back({"failed_frac", failed_frac, "ratio"});
    std::printf("passes untraced=%zu traced=%zu scenarios/pass=%zu\n",
                untraced.size(), traced.size(), grid.specs.size());
    if (!options.trace) std::printf("metric failed_frac %.6g ratio\n", failed_frac);
    for (const Metric& m : metrics) {
        std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    const perfbench::Options options = perfbench::parse(argc, argv);
    try {
        return perfbench::run(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "imx_perfbench: %s\n", e.what());
        return 1;
    }
}
