#include "exp/aggregate.hpp"

#include <cmath>
#include <set>
#include <utility>

#include "util/contracts.hpp"
#include "util/csv.hpp"

namespace imx::exp {

void GroupAggregator::add(const ScenarioSpec& spec,
                          const ScenarioOutcome& outcome) {
    auto it = group_index_.find(spec.group);
    if (it == group_index_.end()) {
        it = group_index_.emplace(spec.group, groups_.size()).first;
        GroupAggregate g;
        g.group = spec.group;
        g.dims = spec.dims;
        groups_.push_back(std::move(g));
        accumulators_.emplace_back();
    }
    const std::size_t gi = it->second;
    groups_[gi].replicas += 1;
    // Both maps are sorted by name, so walk them in lockstep: the hint is
    // the accumulator after the previous name, which is this name's
    // accumulator whenever the group's metric set is unchanged.
    auto& accumulators = accumulators_[gi];
    auto hint = accumulators.begin();
    for (const auto& [name, value] : outcome.metrics) {
        hint = accumulators.try_emplace(hint, name);
        hint->second.add(value);
        ++hint;
    }
}

std::vector<GroupAggregate> GroupAggregator::groups() const {
    std::vector<GroupAggregate> out = groups_;
    for (std::size_t gi = 0; gi < out.size(); ++gi) {
        out[gi].metrics.clear();
        for (const auto& [name, acc] : accumulators_[gi]) {
            MetricStats stats;
            stats.count = acc.count();
            stats.mean = acc.mean();
            stats.stddev = std::sqrt(acc.sample_variance());
            stats.ci95 =
                acc.count() > 1
                    ? 1.96 * stats.stddev /
                          std::sqrt(static_cast<double>(acc.count()))
                    : 0.0;
            stats.min = acc.min();
            stats.max = acc.max();
            out[gi].metrics.emplace(name, stats);
        }
    }
    return out;
}

AggregateSink::AggregateSink(const std::vector<ScenarioSpec>& specs)
    : specs_(specs) {}

void AggregateSink::on_outcome(std::size_t spec_index,
                               ScenarioOutcome outcome) {
    IMX_EXPECTS(spec_index < specs_.size());
    aggregator_.add(specs_[spec_index], outcome);
}

void AggregateSink::finish() {
    groups_ = aggregator_.groups();
    finished_ = true;
}

const std::vector<GroupAggregate>& AggregateSink::groups() const {
    IMX_EXPECTS(finished_);
    return groups_;
}

std::vector<GroupAggregate> aggregate(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<ScenarioOutcome>& outcomes) {
    IMX_EXPECTS(specs.size() == outcomes.size());
    // The batch fold IS the streaming fold, walked in spec index order —
    // one code path, so streaming sinks and collected vectors cannot drift.
    GroupAggregator aggregator;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        aggregator.add(specs[i], outcomes[i]);
    }
    return aggregator.groups();
}

util::Table aggregate_table(const std::vector<GroupAggregate>& groups,
                            const std::vector<std::string>& metric_names,
                            const std::string& title) {
    util::Table table(title);
    std::vector<std::string> header = {"scenario", "replicas"};
    header.insert(header.end(), metric_names.begin(), metric_names.end());
    table.header(std::move(header));

    for (const auto& group : groups) {
        std::vector<std::string> cells = {group.group,
                                          std::to_string(group.replicas)};
        for (const auto& name : metric_names) {
            const auto it = group.metrics.find(name);
            if (it == group.metrics.end()) {
                cells.emplace_back("-");
            } else {
                std::string cell = util::fixed(it->second.mean, 3);
                if (it->second.count > 1) {
                    cell += " ± " + util::fixed(it->second.ci95, 3);
                }
                // Conditionally-emitted metrics (e.g. feasibility-gated
                // search stats) can cover fewer runs than the group has
                // replicas; make the actual sample size visible.
                if (it->second.count != group.replicas) {
                    cell += " (n=" + std::to_string(it->second.count) + ")";
                }
                cells.push_back(std::move(cell));
            }
        }
        table.row(std::move(cells));
    }
    return table;
}

void write_aggregate_csv(const std::string& path,
                         const std::vector<GroupAggregate>& groups) {
    // Column union across groups, deterministic order.
    std::set<std::string> dim_names;
    std::set<std::string> metric_names;
    for (const auto& group : groups) {
        for (const auto& [k, v] : group.dims) {
            (void)v;
            dim_names.insert(k);
        }
        for (const auto& [k, v] : group.metrics) {
            (void)v;
            metric_names.insert(k);
        }
    }

    util::CsvWriter writer(path);
    std::vector<std::string> header = {"group", "replicas"};
    for (const auto& d : dim_names) header.push_back("dim_" + d);
    for (const auto& m : metric_names) {
        header.push_back(m + "_mean");
        header.push_back(m + "_stddev");
        header.push_back(m + "_ci95");
        header.push_back(m + "_min");
        header.push_back(m + "_max");
    }
    writer.write_header(header);

    for (const auto& group : groups) {
        std::vector<std::string> row = {group.group,
                                        std::to_string(group.replicas)};
        for (const auto& d : dim_names) {
            const auto it = group.dims.find(d);
            row.push_back(it == group.dims.end() ? "" : it->second);
        }
        for (const auto& m : metric_names) {
            const auto it = group.metrics.find(m);
            if (it == group.metrics.end()) {
                row.insert(row.end(), 5, "");
                continue;
            }
            const auto& s = it->second;
            row.push_back(util::fixed(s.mean, 9));
            row.push_back(util::fixed(s.stddev, 9));
            row.push_back(util::fixed(s.ci95, 9));
            row.push_back(util::fixed(s.min, 9));
            row.push_back(util::fixed(s.max, 9));
        }
        writer.write_row(row);
    }
}

}  // namespace imx::exp
