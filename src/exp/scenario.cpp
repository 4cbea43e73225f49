#include "exp/scenario.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace imx::exp {

MetricMap::const_iterator MetricMap::lower_bound(std::string_view name) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const value_type& entry, std::string_view key) {
            return std::string_view(entry.first) < key;
        });
}

MetricMap::const_iterator MetricMap::find(std::string_view name) const {
    const auto it = lower_bound(name);
    return it != end() && it->first == name ? it : end();
}

double MetricMap::at(std::string_view name) const {
    const auto it = find(name);
    if (it == end()) {
        throw std::out_of_range("MetricMap::at: no metric '" +
                                std::string(name) + "'");
    }
    return it->second;
}

double& MetricMap::operator[](std::string_view name) {
    const auto pos = entries_.begin() + (lower_bound(name) - begin());
    if (pos != entries_.end() && pos->first == name) return pos->second;
    return entries_.emplace(pos, std::string(name), 0.0)->second;
}

std::pair<MetricMap::const_iterator, bool> MetricMap::emplace(
    std::string name, double value) {
    const auto it = lower_bound(name);
    if (it != end() && it->first == name) return {it, false};
    return {entries_.emplace(it, std::move(name), value), true};
}

MetricMap::const_iterator MetricMap::emplace_hint(const_iterator hint,
                                                  std::string name,
                                                  double value) {
    // `hint` is the right place when its predecessor sorts before `name`
    // and `hint` itself after it.
    const bool after_prev = hint == begin() || std::prev(hint)->first < name;
    const bool before_hint = hint == end() || name < hint->first;
    if (!(after_prev && before_hint)) {
        return emplace(std::move(name), value).first;
    }
    return entries_.emplace(hint, std::move(name), value);
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
    // Appended in name order with exact capacity, so no entry ever shifts.
    MetricMap m;
    m.reserve(19);
    const auto put = [&m](const char* name, double value) {
        m.emplace_hint(m.end(), name, value);
    };
    put("acc_all_pct", 100.0 * s.accuracy_all_events());
    put("acc_processed_pct", 100.0 * s.accuracy_processed());
    put("consumed_mj", s.consumed_mj);
    put("deadline_miss_pct", 100.0 * s.deadline_miss_rate());
    put("deaths", static_cast<double>(result.deaths));
    put("dropped", static_cast<double>(result.dropped));
    put("event_latency_s", s.mean_event_latency_s());
    put("harvested_mj", result.total_harvested_mj);
    put("iepmj", s.iepmj());
    put("in_flight", static_cast<double>(result.in_flight));
    put("inference_latency_s", s.mean_inference_latency_s());
    put("inference_macs_m", s.mean_inference_macs() / 1e6);
    put("missed", static_cast<double>(s.missed()));
    put("p50_latency_s", p.p50_s);
    put("p95_latency_s", p.p95_s);
    put("p99_latency_s", p.p99_s);
    put("processed", static_cast<double>(s.processed));
    put("recovery_mj", result.recovery_energy_mj);
    put("wasted_macs_m", static_cast<double>(result.wasted_macs) / 1e6);
    return m;
}

}  // namespace imx::exp
