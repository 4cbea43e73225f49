#include "exp/scenario.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace imx::exp {

MetricNames::MetricNames(std::vector<std::string> names)
    : names_(std::move(names)) {
    for (std::size_t i = 1; i < names_.size(); ++i) {
        IMX_EXPECTS(names_[i - 1] < names_[i]);
    }
}

std::shared_ptr<const MetricNames> MetricNames::make(
    std::vector<std::string> names) {
    return std::make_shared<const MetricNames>(std::move(names));
}

std::size_t MetricNames::lower_bound(std::string_view name) const {
    const auto it = std::lower_bound(
        names_.begin(), names_.end(), name,
        [](const std::string& entry, std::string_view key) {
            return std::string_view(entry) < key;
        });
    return static_cast<std::size_t>(it - names_.begin());
}

MetricMap::MetricMap(std::shared_ptr<const MetricNames> names)
    : names_(std::move(names)) {
    IMX_EXPECTS(names_ != nullptr);
    values_.assign(names_->size(), 0.0);
}

MetricMap::MetricMap(std::shared_ptr<const MetricNames> names,
                     std::vector<double> values)
    : names_(std::move(names)), values_(std::move(values)) {
    IMX_EXPECTS(names_ != nullptr && values_.size() == names_->size());
}

std::size_t MetricMap::lower_bound(std::string_view name) const {
    return names_ ? names_->lower_bound(name) : 0;
}

bool MetricMap::has_name_at(std::size_t i, std::string_view name) const {
    return i < values_.size() && (*names_)[i] == name;
}

void MetricMap::insert(std::size_t i, std::string_view name, double value) {
    const auto at = static_cast<std::ptrdiff_t>(i);
    std::vector<std::string> names;
    names.reserve(values_.size() + 1);
    if (names_) names.assign(names_->data(), names_->data() + values_.size());
    names.emplace(names.begin() + at, name);
    names_ = MetricNames::make(std::move(names));
    values_.insert(values_.begin() + at, value);
}

MetricMap::const_iterator MetricMap::find(std::string_view name) const {
    const std::size_t i = lower_bound(name);
    return has_name_at(i, name) ? begin() + static_cast<std::ptrdiff_t>(i)
                                : end();
}

std::size_t MetricMap::count(std::string_view name) const {
    return has_name_at(lower_bound(name), name) ? 1 : 0;
}

double MetricMap::at(std::string_view name) const {
    const std::size_t i = lower_bound(name);
    if (!has_name_at(i, name)) {
        throw std::out_of_range("MetricMap::at: no metric '" +
                                std::string(name) + "'");
    }
    return values_[i];
}

double& MetricMap::operator[](std::string_view name) {
    const std::size_t i = lower_bound(name);
    if (!has_name_at(i, name)) insert(i, name, 0.0);
    return values_[i];
}

std::pair<MetricMap::const_iterator, bool> MetricMap::emplace(
    std::string_view name, double value) {
    const std::size_t i = lower_bound(name);
    const bool inserted = !has_name_at(i, name);
    if (inserted) insert(i, name, value);
    return {begin() + static_cast<std::ptrdiff_t>(i), inserted};
}

MetricMap::const_iterator MetricMap::emplace_hint(const_iterator hint,
                                                  std::string_view name,
                                                  double value) {
    // `hint` is the right place when its predecessor sorts before `name`
    // and `hint` itself after it.
    const auto i = static_cast<std::size_t>(hint - begin());
    const bool after_prev = i == 0 || std::string_view((*names_)[i - 1]) < name;
    const bool before_hint =
        i == values_.size() || name < std::string_view((*names_)[i]);
    if (!(after_prev && before_hint)) return emplace(name, value).first;
    insert(i, name, value);
    return begin() + static_cast<std::ptrdiff_t>(i);
}

bool operator==(const MetricMap& a, const MetricMap& b) {
    if (a.values_ != b.values_) return false;
    if (a.names_ == b.names_ || a.values_.empty()) return true;
    return *a.names_ == *b.names_;
}

const Dims::Map& Dims::empty_map() {
    static const Map empty;
    return empty;
}

std::uint64_t scenario_seed(std::uint64_t base_seed, const std::string& group,
                            int replica) {
    // FNV-1a over the group name, then splitmix64 mixing with the base seed
    // and replica. Position-independent by construction.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : group) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    std::uint64_t state = base_seed ^ h;
    (void)util::splitmix64(state);
    state ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(replica) + 1);
    return util::splitmix64(state);
}

MetricMap sim_metrics(const sim::SimResult& result) {
    // One pass over the records; the latencies it collects go to a buffer
    // each thread reuses, and the percentiles are selected, not sorted.
    thread_local std::vector<double> latencies;
    latencies.clear();
    const sim::SimSummary s = result.summary(&latencies);
    const sim::LatencyPercentiles p =
        sim::select_latency_percentiles(latencies);
    // In name order. The names become one table on the first call, which
    // every later outcome shares; each outcome owns only its values.
    const std::pair<const char*, double> entries[] = {
        {"acc_all_pct", 100.0 * s.accuracy_all_events()},
        {"acc_processed_pct", 100.0 * s.accuracy_processed()},
        {"consumed_mj", s.consumed_mj},
        {"deadline_miss_pct", 100.0 * s.deadline_miss_rate()},
        {"deaths", static_cast<double>(result.deaths)},
        {"dropped", static_cast<double>(result.dropped)},
        {"event_latency_s", s.mean_event_latency_s()},
        {"harvested_mj", result.total_harvested_mj},
        {"iepmj", s.iepmj()},
        {"in_flight", static_cast<double>(result.in_flight)},
        {"inference_latency_s", s.mean_inference_latency_s()},
        {"inference_macs_m", s.mean_inference_macs() / 1e6},
        {"missed", static_cast<double>(s.missed())},
        {"p50_latency_s", p.p50_s},
        {"p95_latency_s", p.p95_s},
        {"p99_latency_s", p.p99_s},
        {"processed", static_cast<double>(s.processed)},
        {"recovery_mj", result.recovery_energy_mj},
        {"wasted_macs_m", static_cast<double>(result.wasted_macs) / 1e6},
    };
    static const auto names = [&entries] {
        std::vector<std::string> list;
        for (const auto& entry : entries) list.emplace_back(entry.first);
        return MetricNames::make(std::move(list));
    }();
    std::vector<double> values;
    values.reserve(std::size(entries));
    for (const auto& entry : entries) values.push_back(entry.second);
    return MetricMap(names, std::move(values));
}

}  // namespace imx::exp
