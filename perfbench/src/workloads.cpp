// The workloads: grid construction through the library's public
// experiment API, one timed pass through exp::run_sweep, and the
// correctness checks every pass gets.
#include <any>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/trace_eval.hpp"
#include "exp/aggregate.hpp"
#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "nn/kernels/counters.hpp"

namespace perfbench {

namespace {

// Replica counts put each sweep pass at roughly a second of wall time on a
// 4-core host, long enough that the runner's pool start-up and tail are a
// small part of it. The search runs four full-size searches side by side:
// on the reference host a single-threaded search varied by 22% from run to
// run with the load of neighbouring machines, four in parallel by 8%.
const WorkloadDef kWorkloads[] = {
    {"search", "fig4-compression-policy", 4, SinkKind::kCollect, true, 10.0},
    {"sweep-serving", "traffic-ablation", 256, SinkKind::kJournalAggregate,
     false, 0.6},
    {"sweep-recovery", "recovery-ablation", 512, SinkKind::kCollectAggregate,
     false, 1.0},
};

constexpr std::size_t kMaxProblems = 8;

void note(PassResult& pass, const std::string& problem) {
    if (pass.problems.size() < kMaxProblems) pass.problems.push_back(problem);
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::string metrics_text(const exp::ScenarioSpec& spec,
                         const exp::MetricMap& metrics) {
    std::string text = spec.id + "\n";
    char buffer[64];
    for (const auto& [name, value] : metrics) {
        std::snprintf(buffer, sizeof(buffer), "=%.17g\n", value);
        text += name;
        text += buffer;
    }
    return text;
}

/// Every field of a group aggregate at full precision: two folds are
/// byte-identical iff these strings are equal.
std::string aggregate_text(const exp::GroupAggregate& group) {
    std::ostringstream out;
    out << group.group << '|' << group.replicas << '|';
    for (const auto& [key, value] : group.dims) out << key << '=' << value << ';';
    char buffer[192];
    for (const auto& [name, s] : group.metrics) {
        std::snprintf(buffer, sizeof(buffer), "|%s:%zu:%a:%a:%a:%a:%a",
                      name.c_str(), s.count, s.mean, s.stddev, s.ci95, s.min,
                      s.max);
        out << buffer;
    }
    return out.str();
}

std::string dim(const exp::ScenarioSpec& spec, const char* key) {
    const auto it = spec.dims.find(key);
    return it == spec.dims.end() ? std::string() : it->second;
}

/// What the benchmark needs to know about one sweep scenario, read from
/// the experiment definition and the scenario's axis labels.
ScenarioInfo classify(const exp::ExperimentSpec& spec,
                      const exp::ScenarioSpec& scenario) {
    ScenarioInfo info;
    info.simulated = true;
    info.fresh_arrivals = scenario.replica != 0;
    const std::string trace = dim(scenario, "trace");
    info.events = core::SetupConfig{}.event_count;
    for (const auto& entry : spec.traces) {
        if (entry.label == trace) info.events = entry.config.event_count;
    }
    const std::string queue = dim(scenario, "queue_capacity");
    info.queue = !queue.empty() && queue != "0";
    const std::string recovery = dim(scenario, "recovery");
    info.recovery = !recovery.empty() && recovery != "none";
    return info;
}

/// Forwards to another sink and records each delivery as a span.
class TracedSink final : public exp::ResultSink {
public:
    TracedSink(exp::ResultSink& inner, Tracer& tracer, int parent)
        : inner_(inner), tracer_(tracer), parent_(parent) {}
    void on_outcome(std::size_t spec_index,
                    exp::ScenarioOutcome outcome) override {
        const auto start = Clock::now();
        inner_.on_outcome(spec_index, std::move(outcome));
        tracer_.record("exp.sink", parent_, start, Clock::now());
    }
    void finish() override { inner_.finish(); }

private:
    exp::ResultSink& inner_;
    Tracer& tracer_;
    int parent_;
};

/// Per-outcome checks, digests and sentinel sums (outside the timed part).
void check_outcomes(const Grid& grid,
                    const std::vector<exp::ScenarioOutcome>& outcomes,
                    PassResult& pass) {
    if (outcomes.size() != grid.specs.size()) {
        note(pass, "sink delivered " + std::to_string(outcomes.size()) +
                       " of " + std::to_string(grid.specs.size()) +
                       " outcomes");
        pass.failed = pass.attempted;
        return;
    }
    std::vector<double> raccs;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const exp::ScenarioSpec& spec = grid.specs[i];
        const exp::ScenarioOutcome& outcome = outcomes[i];
        const ScenarioInfo& info = grid.info[i];
        auto& digest = pass.digests.try_emplace(spec.group, kFnvBasis).first->second;
        digest = fnv1a(digest, metrics_text(spec, outcome.metrics));
        ++pass.group_sizes[spec.group];

        const auto metric = [&](const char* key) {
            const auto it = outcome.metrics.find(key);
            return it == outcome.metrics.end() ? -1.0 : it->second;
        };
        bool ok = true;
        if (!info.simulated) {
            raccs.push_back(metric("best_racc"));
            pass.evaluations += static_cast<int>(metric("evaluations"));
            if (metric("feasible") != 1.0 || !(raccs.back() > 0.0)) {
                note(pass, spec.id + ": no feasible policy under the paper "
                                     "constraints");
                ok = false;
            }
            if (const auto* result =
                    std::any_cast<core::SearchResult>(&outcome.payload)) {
                pass.best_policy = result->best_policy;
            }
        } else {
            const double processed = metric("processed");
            const double missed = metric("missed");
            if (processed < 0.0 || missed < 0.0 ||
                processed + missed != static_cast<double>(info.events)) {
                note(pass, spec.id + ": processed + missed != " +
                               std::to_string(info.events) + " events");
                ok = false;
            }
            if (outcome.sim && outcome.sim->total_events() != info.events) {
                note(pass, spec.id + ": SimResult holds " +
                               std::to_string(outcome.sim->total_events()) +
                               " event records");
                ok = false;
            }
            if (outcome.sim) {
                pass.retained_records +=
                    static_cast<double>(outcome.sim->records.size());
            }
            pass.events += processed + missed;
            pass.processed += processed;
            pass.dropped += metric("dropped");
            pass.deaths += metric("deaths");
            pass.wasted_macs_m += metric("wasted_macs_m");
        }
        if (!ok) ++pass.failed;
    }
    if (!raccs.empty()) pass.best_racc = median(raccs);
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
    for (const WorkloadDef& def : kWorkloads) {
        if (name == def.name) return &def;
    }
    return nullptr;
}

std::vector<std::string> workload_names() {
    std::vector<std::string> names;
    for (const WorkloadDef& def : kWorkloads) names.emplace_back(def.name);
    return names;
}

std::uint64_t reference_seed(const WorkloadDef& def) {
    return def.search ? core::SearchConfig{}.seed : exp::kDefaultBaseSeed;
}

Grid build_grid(const WorkloadDef& def, std::uint64_t seed, int threads) {
    Grid grid;
    grid.def = &def;
    grid.seed = seed;
    grid.threads = threads;
    grid.experiment = exp::make_experiment(def.experiment);
    if (def.search) {
        // fig4's own grid keeps the canonical SearchConfig seed for replica
        // 0, so the searches are built directly: the same setup and config
        // as the registered experiment, with the workload seed reaching
        // SearchConfig::seed (replica 0) and the base seed (the others).
        auto setup = std::make_shared<const core::ExperimentSetup>(
            core::make_paper_setup(exp::sweep_setup_config(grid.options)));
        grid.search.seed = seed;
        grid.search_layers = static_cast<int>(setup->network.num_layers());
        for (int replica = 0; replica < def.replicas; ++replica) {
            grid.specs.push_back(exp::make_search_scenario(
                setup, exp::SearchAlgo::kDdpgRefined, "ddpg-refined",
                grid.search, replica, seed));
            grid.info.emplace_back();
        }
        return grid;
    }
    grid.options.threads = threads;
    grid.options.replicas = def.replicas;
    grid.options.replicas_given = true;
    grid.options.base_seed = seed;
    grid.options.base_seed_given = true;
    grid.specs = exp::build_experiment_scenarios(grid.experiment, grid.options);
    grid.info.reserve(grid.specs.size());
    for (const auto& spec : grid.specs) {
        grid.info.push_back(classify(grid.experiment.spec, spec));
    }
    return grid;
}

PassResult run_pass(const Grid& grid, const std::string& workdir,
                    Tracer* tracer) {
    PassResult pass;
    pass.attempted = grid.specs.size();

    // A traced pass runs a copy of the grid whose closures record a span
    // around each scenario; the copy is made before the clock starts.
    int pass_span = -1;
    std::vector<exp::ScenarioSpec> traced;
    if (tracer != nullptr) {
        pass_span = tracer->open("exp.pass");
        traced = grid.specs;
        for (auto& spec : traced) {
            spec.run = [inner = std::move(spec.run), tracer,
                        pass_span](const exp::ScenarioContext& ctx) {
                const auto start = Clock::now();
                auto outcome = inner(ctx);
                tracer->record("exp.scenario", pass_span, start, Clock::now());
                return outcome;
            };
        }
    }
    const std::vector<exp::ScenarioSpec>& specs =
        tracer != nullptr ? traced : grid.specs;

    exp::RunnerConfig runner;
    runner.threads = grid.threads;
    exp::CollectSink collect(specs.size());
    const std::string journal_path =
        workdir + "/" + grid.def->name + ".journal.jsonl";
    exp::JournalHeader header;
    header.experiment = grid.experiment.spec.name;
    header.total_specs = specs.size();
    header.base_seed = grid.options.base_seed;
    header.replicas = grid.options.replicas;
    std::optional<exp::JournalWriter> journal;
    std::optional<exp::AggregateSink> aggregate_sink;
    std::optional<exp::TeeSink> tee;
    exp::ResultSink* sink = &collect;
    if (grid.def->sink == SinkKind::kJournalAggregate) {
        std::vector<std::size_t> indices(specs.size());
        std::iota(indices.begin(), indices.end(), std::size_t{0});
        journal.emplace(journal_path, header, specs, std::move(indices));
        aggregate_sink.emplace(specs);
        tee.emplace(std::vector<exp::ResultSink*>{&*journal, &*aggregate_sink});
        sink = &*tee;
    }
    std::optional<TracedSink> traced_sink;
    if (tracer != nullptr) {
        traced_sink.emplace(*sink, *tracer, pass_span);
        sink = &*traced_sink;
    }

    std::vector<exp::ScenarioOutcome> folded;
    std::vector<exp::GroupAggregate> folded_groups;
    const auto kernels_before = nn::kernels::counters_snapshot();
    const double cpu_start = process_cpu_s();
    const auto start = Clock::now();
    bool ran = false;
    try {
        exp::run_sweep(specs, *sink, runner);
        if (grid.def->sink == SinkKind::kCollectAggregate) {
            const auto t0 = Clock::now();
            folded_groups = exp::aggregate(specs, collect.outcomes());
            pass.aggregate_s = seconds_between(t0, Clock::now());
        } else if (grid.def->sink == SinkKind::kJournalAggregate) {
            const auto t0 = Clock::now();
            folded = exp::merge_journal_outcomes(header, specs, {journal_path});
            folded_groups = exp::aggregate(specs, folded);
            pass.merge_s = seconds_between(t0, Clock::now());
        }
        ran = true;
    } catch (const std::exception& e) {
        note(pass, std::string("sweep failed: ") + e.what());
        pass.failed = pass.attempted;
    }
    const auto end = Clock::now();
    pass.cpu_s = process_cpu_s() - cpu_start;
    pass.run_s = seconds_between(start, end);
    const auto kernels_after = nn::kernels::counters_snapshot();
    pass.kernels.gemm_calls = kernels_after.gemm_calls - kernels_before.gemm_calls;
    pass.kernels.gemm_macs = kernels_after.gemm_macs - kernels_before.gemm_macs;
    pass.kernels.bias_act_calls =
        kernels_after.bias_act_calls - kernels_before.bias_act_calls;
    if (tracer != nullptr) {
        tracer->close(pass_span);
        pass.scenario_s = tracer->durations("exp.scenario", pass_span);
        const auto sink_spans = tracer->durations("exp.sink", pass_span);
        pass.sink_calls = sink_spans.size();
        pass.sink_s = std::accumulate(sink_spans.begin(), sink_spans.end(), 0.0);
    }
    if (!ran) return pass;

    if (grid.def->sink == SinkKind::kJournalAggregate) {
        pass.journal_bytes =
            static_cast<double>(std::filesystem::file_size(journal_path));
        check_outcomes(grid, folded, pass);
        // The engine's merge contract: the fold of the journal is
        // byte-identical to the aggregate the live stream produced.
        const auto& live = aggregate_sink->groups();
        for (std::size_t g = 0; g < live.size(); ++g) {
            if (g >= folded_groups.size() ||
                aggregate_text(live[g]) != aggregate_text(folded_groups[g])) {
                note(pass, "journal fold differs from the live aggregate in "
                           "group " + live[g].group);
                pass.failed += live[g].replicas;
            }
        }
    } else {
        check_outcomes(grid, collect.outcomes(), pass);
    }
    pass.failed = std::min(pass.failed, pass.attempted);
    return pass;
}

double deployed_policy_racc() {
    const auto setup = core::make_paper_setup();
    const core::AccuracyModel oracle(
        setup.network, {core::kPaperFullPrecisionAcc.begin(),
                        core::kPaperFullPrecisionAcc.end()});
    const core::StaticTraceEvaluator trace_eval(setup.trace, setup.events,
                                                core::paper_storage_config(),
                                                core::kEnergyPerMMacMj);
    const core::PolicyEvaluator evaluator(setup.network, oracle, trace_eval,
                                          core::paper_constraints(), true);
    return evaluator.score(setup.deployed_policy).racc;
}

Reference load_reference(const std::string& path, const std::string& workload,
                         const std::string& backend) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read reference file " + path);
    Reference reference;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string name, line_backend, group, hex;
        if (!std::getline(fields, name, '\t') ||
            !std::getline(fields, line_backend, '\t') ||
            !std::getline(fields, group, '\t') ||
            !std::getline(fields, hex)) {
            throw std::runtime_error("malformed reference line: " + line);
        }
        if (name != workload) continue;
        if (line_backend != "any" && line_backend != backend) continue;
        reference[group] = std::stoull(hex, nullptr, 16);
    }
    return reference;
}

std::string reference_lines(const std::string& workload,
                            const std::string& backend,
                            const PassResult& pass) {
    std::string out;
    char hex[32];
    for (const auto& [group, digest] : pass.digests) {
        std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
        out += workload + "\t" + backend + "\t" + group + "\t" + hex + "\n";
    }
    return out;
}

}  // namespace perfbench
