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
#include <iterator>
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

/// \brief The names of a metric set: sorted, without duplicates, immutable
/// once built, and shared by handle.
///
/// Every outcome of one producer holds the same names, so a producer builds
/// its table once (sim_metrics keeps a function-static one) and each
/// MetricMap it returns points at it, storing its values alone.
class MetricNames {
public:
    /// \pre `names` is strictly ascending.
    explicit MetricNames(std::vector<std::string> names);
    /// A shared table of `names`. \pre `names` is strictly ascending.
    [[nodiscard]] static std::shared_ptr<const MetricNames> make(
        std::vector<std::string> names);

    [[nodiscard]] const std::string& operator[](std::size_t i) const {
        return names_[i];
    }
    [[nodiscard]] std::size_t size() const { return names_.size(); }
    [[nodiscard]] const std::string* data() const { return names_.data(); }
    /// Position of the first name not less than `name`.
    [[nodiscard]] std::size_t lower_bound(std::string_view name) const;

    friend bool operator==(const MetricNames& a, const MetricNames& b) {
        return a.names_ == b.names_;
    }

private:
    std::vector<std::string> names_;
};

/// \brief Named scalar metrics: a shared MetricNames table and one value per
/// name.
///
/// Iteration is in lexicographic name order, as an ordered map's would be,
/// so every table, CSV column, journal line and aggregation is
/// deterministic. An outcome built on a producer's table owns one block of
/// doubles; copying it copies that block and shares the table. Inserting a
/// name the table lacks gives this map a table of its own with the name
/// added (the shared one is never changed), so a producer with a fixed
/// metric set builds its table once instead of inserting name by name.
class MetricMap {
public:
    using value_type = std::pair<std::string, double>;
    class const_iterator;

    MetricMap() = default;
    /// A 0 for every name of `names`.
    explicit MetricMap(std::shared_ptr<const MetricNames> names);
    /// \pre `values` has one entry per name of `names`, in name order.
    MetricMap(std::shared_ptr<const MetricNames> names,
              std::vector<double> values);

    /// The value named `name`, inserted as 0 when absent.
    double& operator[](std::string_view name);
    /// \throws std::out_of_range when `name` is absent.
    [[nodiscard]] double at(std::string_view name) const;
    [[nodiscard]] const_iterator find(std::string_view name) const;
    [[nodiscard]] std::size_t count(std::string_view name) const;

    /// Insert (name, value) unless `name` is present; returns the entry of
    /// that name and whether it was inserted.
    std::pair<const_iterator, bool> emplace(std::string_view name,
                                            double value);
    /// emplace() that tries `hint` first: no search when `name` belongs
    /// right before `hint` (end() for a name past the last).
    const_iterator emplace_hint(const_iterator hint, std::string_view name,
                                double value);

    [[nodiscard]] const_iterator begin() const;
    [[nodiscard]] const_iterator end() const;
    [[nodiscard]] std::size_t size() const { return values_.size(); }
    [[nodiscard]] bool empty() const { return values_.empty(); }

    /// The name table; null for a map that never held a name.
    [[nodiscard]] const std::shared_ptr<const MetricNames>& names() const {
        return names_;
    }
    /// The values, in name order.
    [[nodiscard]] const std::vector<double>& values() const {
        return values_;
    }

    friend bool operator==(const MetricMap& a, const MetricMap& b);

private:
    /// Position of the first name not less than `name`.
    [[nodiscard]] std::size_t lower_bound(std::string_view name) const;
    [[nodiscard]] bool has_name_at(std::size_t i, std::string_view name) const;
    /// Insert `name` (absent) at position `i`, on a table of its own.
    void insert(std::size_t i, std::string_view name, double value);

    std::shared_ptr<const MetricNames> names_;
    std::vector<double> values_;
};

/// A random-access iterator over (name, value) pairs. It dereferences to a
/// pair of references into the map, so `it->first`, `it->second` and
/// `const auto& [name, value] = *it` read the stored name and value.
class MetricMap::const_iterator {
public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = MetricMap::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = std::pair<const std::string&, const double&>;
    /// What operator-> returns: it holds the pair for the full expression.
    struct pointer {
        reference entry;
        const reference* operator->() const { return &entry; }
    };

    const_iterator() = default;

    reference operator*() const { return {*name_, *value_}; }
    pointer operator->() const { return {**this}; }
    reference operator[](difference_type n) const { return *(*this + n); }

    const_iterator& operator++() { return *this += 1; }
    const_iterator& operator--() { return *this -= 1; }
    const_iterator operator++(int) {
        const_iterator old = *this;
        ++*this;
        return old;
    }
    const_iterator operator--(int) {
        const_iterator old = *this;
        --*this;
        return old;
    }
    const_iterator& operator+=(difference_type n) {
        name_ += n;
        value_ += n;
        return *this;
    }
    const_iterator& operator-=(difference_type n) { return *this += -n; }
    friend const_iterator operator+(const_iterator it, difference_type n) {
        return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
        return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
        return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
        return a.value_ - b.value_;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
        return a.value_ == b.value_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
        return a.value_ != b.value_;
    }
    friend bool operator<(const const_iterator& a, const const_iterator& b) {
        return a.value_ < b.value_;
    }
    friend bool operator>(const const_iterator& a, const const_iterator& b) {
        return b < a;
    }
    friend bool operator<=(const const_iterator& a, const const_iterator& b) {
        return !(b < a);
    }
    friend bool operator>=(const const_iterator& a, const const_iterator& b) {
        return !(a < b);
    }

private:
    friend class MetricMap;
    const_iterator(const std::string* name, const double* value)
        : name_(name), value_(value) {}
    const std::string* name_ = nullptr;
    const double* value_ = nullptr;
};

inline MetricMap::const_iterator MetricMap::begin() const {
    return {names_ ? names_->data() : nullptr, values_.data()};
}

inline MetricMap::const_iterator MetricMap::end() const {
    return begin() + static_cast<std::ptrdiff_t>(values_.size());
}

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
