#include "exp/scenario.hpp"

#include <vector>

#include "util/rng.hpp"

namespace imx::exp {

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
    MetricMap m;
    m["iepmj"] = s.iepmj();
    m["acc_all_pct"] = 100.0 * s.accuracy_all_events();
    m["acc_processed_pct"] = 100.0 * s.accuracy_processed();
    m["processed"] = static_cast<double>(s.processed);
    m["missed"] = static_cast<double>(s.missed());
    m["event_latency_s"] = s.mean_event_latency_s();
    m["p50_latency_s"] = p.p50_s;
    m["p95_latency_s"] = p.p95_s;
    m["p99_latency_s"] = p.p99_s;
    m["inference_latency_s"] = s.mean_inference_latency_s();
    m["inference_macs_m"] = s.mean_inference_macs() / 1e6;
    m["deadline_miss_pct"] = 100.0 * s.deadline_miss_rate();
    m["harvested_mj"] = result.total_harvested_mj;
    m["consumed_mj"] = s.consumed_mj;
    m["dropped"] = static_cast<double>(result.dropped);
    m["in_flight"] = static_cast<double>(result.in_flight);
    m["deaths"] = static_cast<double>(result.deaths);
    m["recovery_mj"] = result.recovery_energy_mj;
    m["wasted_macs_m"] = static_cast<double>(result.wasted_macs) / 1e6;
    return m;
}

}  // namespace imx::exp
