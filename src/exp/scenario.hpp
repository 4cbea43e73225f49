/// \file
/// \brief Scenario layer of the sweep engine.
///
/// One ScenarioSpec = one self-contained, deterministic experiment (a point
/// in a trace x system x config x seed grid). Specs carry their own RNG
/// stream seed and a run function that constructs every piece of mutable
/// state (models, policies, simulators) so scenarios can execute on any
/// thread in any order without sharing state.
#ifndef IMX_EXP_SCENARIO_HPP
#define IMX_EXP_SCENARIO_HPP

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "sim/metrics.hpp"

namespace imx::sim {
struct ScenarioWorkspace;
}  // namespace imx::sim

namespace imx::exp {

/// Named scalar metrics. An ordered map so that every iteration (tables,
/// CSV columns, aggregation) is deterministic.
using MetricMap = std::map<std::string, double>;

/// What a scenario hands back to the runner.
struct ScenarioOutcome {
    MetricMap metrics;
    /// Full per-event record, set for replica 0 of a simulation scenario
    /// only: the canonical run the reports read (canonical_sim). Every
    /// other replica, and every simulation-free scenario, returns metrics
    /// alone. Immutable once the scenario returns, so copies of the outcome
    /// (TeeSink) share it instead of duplicating every record.
    std::shared_ptr<const sim::SimResult> sim;
    /// Escape hatch for rich results (e.g. a searched compression policy).
    std::any payload;
};

/// Everything the run function may depend on besides the spec itself.
struct ScenarioContext {
    std::uint64_t seed = 0;  ///< per-scenario RNG stream seed
    int replica = 0;         ///< seed-replica index within the group
    /// Per-worker reusable buffers and work counters, lent by the
    /// runner for the duration of this scenario — confinement, no locking.
    /// Null (e.g. a scenario run standalone in a test) runs on a local
    /// workspace, with the same results.
    sim::ScenarioWorkspace* workspace = nullptr;
};

using ScenarioFn = std::function<ScenarioOutcome(const ScenarioContext&)>;

struct ScenarioSpec {
    std::string id;     ///< unique within a sweep, e.g. "paper/SonicNet#1"
    std::string group;  ///< replicas of the same cell share a group
    /// Axis label -> value ("trace" -> "paper-solar", "system" -> "SonicNet");
    /// carried into aggregation and CSV output.
    std::map<std::string, std::string> dims;
    int replica = 0;
    std::uint64_t seed = 0;
    ScenarioFn run;
};

/// \brief Derive the deterministic stream seed for (group, replica) under a
/// sweep base seed.
///
/// Depends only on those values — not on the spec's position in the grid —
/// so adding or reordering scenarios never perturbs others.
/// \param base_seed the sweep-wide base seed.
/// \param group the scenario's aggregation-cell name.
/// \param replica the seed-replica index within the group.
/// \return a well-mixed 64-bit stream seed.
std::uint64_t scenario_seed(std::uint64_t base_seed, const std::string& group,
                            int replica);

/// The standard scalar metrics extracted from a simulation result. Keys:
/// iepmj, acc_all_pct, acc_processed_pct, processed, missed,
/// event_latency_s, p50/p95/p99_latency_s (nearest-rank per-event latency
/// percentiles), inference_latency_s, inference_macs_m,
/// deadline_miss_pct (0 when the run had no deadline), dropped and
/// in_flight (queue accounting; 0 without a bounded queue), harvested_mj,
/// consumed_mj, deaths, recovery_mj, wasted_macs_m.
MetricMap sim_metrics(const sim::SimResult& result);

}  // namespace imx::exp

#endif  // IMX_EXP_SCENARIO_HPP
