#include "exp/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <ostream>

#include "energy/trace_registry.hpp"
#include "exp/aggregate.hpp"
#include "exp/experiment.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/recovery/registry.hpp"
#include "util/table.hpp"

namespace imx::exp {

const sim::SimResult& canonical_sim(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<ScenarioOutcome>& outcomes, const std::string& group) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].group == group && specs[i].replica == 0 &&
            outcomes[i].sim != nullptr) {
            return *outcomes[i].sim;
        }
    }
    std::fprintf(stderr, "no canonical sim result for group %s\n",
                 group.c_str());
    std::abort();
}

const MetricMap& canonical_metrics(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<ScenarioOutcome>& outcomes, const std::string& group) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].group == group && specs[i].replica == 0) {
            return outcomes[i].metrics;
        }
    }
    std::fprintf(stderr, "no canonical outcome for group %s\n", group.c_str());
    std::abort();
}

void print_replica_aggregate(const std::vector<ScenarioSpec>& specs,
                             const std::vector<ScenarioOutcome>& outcomes,
                             const std::vector<std::string>& metric_names,
                             const SweepCli& options) {
    if (options.replicas <= 1) return;
    std::cout << '\n';
    aggregate_table(aggregate(specs, outcomes), metric_names,
                    "seed-replica aggregation (mean ± 95% CI, " +
                        std::to_string(options.replicas) + " replicas)")
        .print(std::cout);
}

std::string vs_paper(double measured, double paper, int precision) {
    return util::fixed(measured, precision) + " (paper " +
           util::fixed(paper, precision) + ")";
}

int generic_report(const ExperimentRunContext& context) {
    const auto& spec = context.spec;
    const std::string title = spec.title.empty() ? spec.name : spec.title;
    aggregate_table(aggregate(context.specs, context.outcomes), spec.metrics,
                    title + " (" + std::to_string(context.options.replicas) +
                        " replica(s); mean ± 95% CI when > 1)")
        .print(std::cout);
    return 0;
}

void print_scenario_grid(const std::vector<ScenarioSpec>& specs,
                         std::ostream& out) {
    util::Table table("expanded scenario grid (dry run — nothing executed)");
    table.header({"id", "seed", "dims"});
    for (const auto& spec : specs) {
        std::string dims;
        for (const auto& [key, value] : spec.dims) {
            if (!dims.empty()) dims += " ";
            dims += key + "=" + value;
        }
        char seed[32];
        std::snprintf(seed, sizeof(seed), "%016llx",
                      static_cast<unsigned long long>(spec.seed));
        table.row({spec.id, seed, dims});
    }
    table.print(out);
    out << specs.size() << " scenario(s)\n";
}

void describe_all(std::FILE* out) {
    std::fprintf(out, "registered experiments:\n");
    for (const auto& name : experiment_names()) {
        std::fprintf(out, "  %-28s %s\n", name.c_str(),
                     experiment_description(name).c_str());
    }
    std::fprintf(out,
                 "\nregistered trace sources (spec `[trace.<label>]` "
                 "sections, docs/energy-sources.md):\n");
    for (const auto& name : energy::trace_source_names()) {
        std::fprintf(out, "  %-28s %s\n", name.c_str(),
                     energy::trace_source_description(name).c_str());
    }
    std::fprintf(out,
                 "\nregistered arrival sources (spec `[arrivals.<label>]` "
                 "sections, docs/workloads.md):\n");
    for (const auto& name : sim::arrival_source_names()) {
        std::fprintf(out, "  %-28s %s\n", name.c_str(),
                     sim::arrival_source_description(name).c_str());
    }
    std::fprintf(out,
                 "\nregistered recovery strategies (spec `[recovery.<label>]` "
                 "sections, docs/recovery.md):\n");
    for (const auto& name : sim::recovery_strategy_names()) {
        std::fprintf(out, "  %-28s %s\n", name.c_str(),
                     sim::recovery_strategy_description(name).c_str());
    }
}

}  // namespace imx::exp
