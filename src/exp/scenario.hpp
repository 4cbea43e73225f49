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
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"

namespace imx::sim {
struct ScenarioWorkspace;
}  // namespace imx::sim

namespace imx::exp {

/// \brief Named scalar metrics: a flat vector of (name, value) pairs kept
/// sorted by name.
///
/// Iteration is in lexicographic name order, as an ordered map's would be,
/// so every table, CSV column, journal line and aggregation is
/// deterministic. An outcome holds one block of ~20 entries instead of
/// ~20 tree nodes. Inserting a name past the last is an O(1) append, so a
/// producer that writes its names in order (sim_metrics, the journal
/// reader) never shifts an entry; any other insertion shifts the tail.
class MetricMap {
public:
    using value_type = std::pair<std::string, double>;
    using const_iterator = std::vector<value_type>::const_iterator;

    /// The value named `name`, inserted as 0 when absent.
    double& operator[](std::string_view name);
    /// \throws std::out_of_range when `name` is absent.
    [[nodiscard]] double at(std::string_view name) const;
    [[nodiscard]] const_iterator find(std::string_view name) const;
    [[nodiscard]] std::size_t count(std::string_view name) const {
        return find(name) == end() ? 0 : 1;
    }

    /// Insert (name, value) unless `name` is present; returns the entry of
    /// that name and whether it was inserted.
    std::pair<const_iterator, bool> emplace(std::string name, double value);
    /// emplace() that tries `hint` first: O(1) when `name` belongs right
    /// before `hint` (end() for a name past the last), a search otherwise.
    const_iterator emplace_hint(const_iterator hint, std::string name,
                                double value);

    void reserve(std::size_t n) { entries_.reserve(n); }
    [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
    [[nodiscard]] const_iterator end() const { return entries_.end(); }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] bool empty() const { return entries_.empty(); }

    friend bool operator==(const MetricMap& a, const MetricMap& b) {
        return a.entries_ == b.entries_;
    }

private:
    /// First entry whose name is not less than `name`.
    [[nodiscard]] const_iterator lower_bound(std::string_view name) const;
    std::vector<value_type> entries_;
};

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

/// \brief A run function built once per cell and shared by its replicas:
/// each replica's ScenarioFn holds this handle, not its own copy of the
/// cell's captured state.
struct SharedScenarioFn {
    std::shared_ptr<const ScenarioFn> fn;
    ScenarioOutcome operator()(const ScenarioContext& ctx) const {
        return (*fn)(ctx);
    }
};

/// \brief An immutable axis-label map (label -> value) shared by handle.
///
/// Every replica of a cell carries the same labels, so a cell builds them
/// once and its specs copy the handle. The read API is the const subset of
/// std::map's; there is no way to change the labels after construction.
class Dims {
public:
    using Map = std::map<std::string, std::string>;
    using const_iterator = Map::const_iterator;

    Dims() = default;
    Dims(std::initializer_list<Map::value_type> labels)
        : Dims(Map(labels)) {}
    explicit Dims(Map labels)
        : labels_(std::make_shared<const Map>(std::move(labels))) {}

    operator const Map&() const { return map(); }

    [[nodiscard]] const_iterator begin() const { return map().begin(); }
    [[nodiscard]] const_iterator end() const { return map().end(); }
    [[nodiscard]] const_iterator find(const std::string& key) const {
        return map().find(key);
    }
    /// \throws std::out_of_range when `key` is absent.
    [[nodiscard]] const std::string& at(const std::string& key) const {
        return map().at(key);
    }
    [[nodiscard]] std::size_t count(const std::string& key) const {
        return map().count(key);
    }
    [[nodiscard]] std::size_t size() const { return map().size(); }

    friend bool operator==(const Dims& a, const Dims& b) {
        return a.map() == b.map();
    }

private:
    [[nodiscard]] const Map& map() const {
        return labels_ ? *labels_ : empty_map();
    }
    static const Map& empty_map();
    std::shared_ptr<const Map> labels_;
};

/// One scenario. It owns its id, group, replica index and seed, and shares
/// the rest with the other replicas of its cell: the `dims` labels and the
/// state `run` captures (build_paper_scenarios hands every replica the same
/// SharedScenarioFn).
struct ScenarioSpec {
    std::string id;     ///< unique within a sweep, e.g. "paper/SonicNet#1"
    std::string group;  ///< replicas of the same cell share a group
    /// Axis label -> value ("trace" -> "paper-solar", "system" -> "SonicNet");
    /// carried into aggregation and CSV output.
    Dims dims;
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
