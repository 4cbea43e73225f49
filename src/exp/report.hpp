/// \file
/// \brief Reporting helpers over sweep results: canonical (replica-0)
/// outcome lookup, the seed-replica aggregation table, the generic
/// experiment report, and the --dry-run grid listing.
///
/// Registered experiments (src/exp/experiments_*.cpp) print their tables
/// through these.
#ifndef IMX_EXP_REPORT_HPP
#define IMX_EXP_REPORT_HPP

#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/cli.hpp"
#include "exp/scenario.hpp"

namespace imx::exp {

struct ExperimentRunContext;

/// \brief The replica-0 simulation result for a scenario group (the
/// canonical run every figure table is built from; the only replica whose
/// outcome carries a SimResult).
/// \note Aborts with a diagnostic when the group has no canonical
///   simulation outcome — a grid-construction bug, not a runtime condition.
const sim::SimResult& canonical_sim(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<ScenarioOutcome>& outcomes, const std::string& group);

/// \brief The replica-0 metric map for a scenario group (for
/// simulation-free scenarios, where there is no SimResult to fetch).
const MetricMap& canonical_metrics(const std::vector<ScenarioSpec>& specs,
                                   const std::vector<ScenarioOutcome>& outcomes,
                                   const std::string& group);

/// \brief Print the "mean ± 95% CI" seed-replica aggregation table over the
/// selected metrics; no-op for single-replica runs (where the canonical
/// tables already tell the whole story).
void print_replica_aggregate(const std::vector<ScenarioSpec>& specs,
                             const std::vector<ScenarioOutcome>& outcomes,
                             const std::vector<std::string>& metric_names,
                             const SweepCli& options);

/// "measured (paper X)" cell.
std::string vs_paper(double measured, double paper, int precision = 2);

/// \brief The default experiment report: the aggregate table over the
/// spec's metric selection.
/// \return the process exit code (always 0).
int generic_report(const ExperimentRunContext& context);

/// \brief Print the expanded grid without running it: one line per scenario
/// (id, seed, dims), plus a summary count — the driver's --dry-run output.
void print_scenario_grid(const std::vector<ScenarioSpec>& specs,
                         std::ostream& out);

/// \brief Print every registry a sweep can draw from — experiments, trace
/// sources, arrival sources, recovery strategies — one "  name description"
/// section each with its spec-section/doc heading. This IS the `imx_sweep
/// --list` body (the driver adds only its trailing usage hint), kept in the
/// library so every tool lists the world identically.
void describe_all(std::FILE* out);

}  // namespace imx::exp

#endif  // IMX_EXP_REPORT_HPP
