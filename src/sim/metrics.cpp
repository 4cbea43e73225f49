#include "sim/metrics.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace imx::sim {

int SimResult::processed_count() const {
    int n = 0;
    for (const auto& r : records) n += r.processed ? 1 : 0;
    return n;
}

int SimResult::missed_count() const {
    return total_events() - processed_count();
}

int SimResult::correct_count() const {
    int n = 0;
    for (const auto& r : records) n += (r.processed && r.correct) ? 1 : 0;
    return n;
}

double SimResult::iepmj() const {
    IMX_EXPECTS(total_harvested_mj > 0.0);
    return static_cast<double>(correct_count()) / total_harvested_mj;
}

double SimResult::accuracy_all_events() const {
    if (records.empty()) return 0.0;
    return static_cast<double>(correct_count()) /
           static_cast<double>(records.size());
}

double SimResult::accuracy_processed() const {
    const int processed = processed_count();
    if (processed == 0) return 0.0;
    return static_cast<double>(correct_count()) / static_cast<double>(processed);
}

double SimResult::mean_event_latency_s() const {
    double sum = 0.0;
    int n = 0;
    for (const auto& r : records) {
        if (!r.processed) continue;
        IMX_ASSERT(r.completion_time_s >= r.arrival_time_s);
        sum += r.completion_time_s - r.arrival_time_s;
        ++n;
    }
    return n == 0 ? 0.0 : sum / n;
}

double SimResult::latency_percentile_s(double q) const {
    return latency_percentile_s(sorted_latencies_s(), q);
}

std::vector<double> SimResult::sorted_latencies_s() const {
    std::vector<double> latencies;
    latencies.reserve(records.size());
    for (const auto& r : records) {
        if (!r.processed) continue;
        IMX_ASSERT(r.completion_time_s >= r.arrival_time_s);
        latencies.push_back(r.completion_time_s - r.arrival_time_s);
    }
    std::sort(latencies.begin(), latencies.end());
    return latencies;
}

double SimResult::latency_percentile_s(const std::vector<double>& sorted,
                                       double q) {
    if (sorted.empty()) return 0.0;
    return util::percentile(sorted, q);
}

double SimResult::mean_inference_latency_s() const {
    double sum = 0.0;
    int n = 0;
    for (const auto& r : records) {
        if (!r.processed) continue;
        sum += r.completion_time_s - r.inference_start_s;
        ++n;
    }
    return n == 0 ? 0.0 : sum / n;
}

double SimResult::mean_inference_macs() const {
    double sum = 0.0;
    int n = 0;
    for (const auto& r : records) {
        if (!r.processed) continue;
        sum += static_cast<double>(r.macs);
        ++n;
    }
    return n == 0 ? 0.0 : sum / n;
}

std::vector<int> SimResult::exit_histogram(int num_exits) const {
    IMX_EXPECTS(num_exits > 0);
    std::vector<int> hist(static_cast<std::size_t>(num_exits), 0);
    for (const auto& r : records) {
        if (!r.processed) continue;
        IMX_EXPECTS(r.exit_taken >= 0 && r.exit_taken < num_exits);
        ++hist[static_cast<std::size_t>(r.exit_taken)];
    }
    return hist;
}

double SimResult::deadline_miss_rate(double deadline) const {
    IMX_EXPECTS(deadline > 0.0);
    if (records.empty()) return 0.0;
    if (deadline == std::numeric_limits<double>::infinity()) return 0.0;
    int missed = 0;
    for (const auto& r : records) {
        const bool on_time =
            r.processed && r.completion_time_s - r.arrival_time_s <= deadline;
        missed += on_time ? 0 : 1;
    }
    return static_cast<double>(missed) / static_cast<double>(records.size());
}

double SimResult::total_consumed_mj() const {
    double sum = 0.0;
    for (const auto& r : records) sum += r.energy_spent_mj;
    return sum;
}

bool SimResult::energy_feasible(double initial_buffer_mj) const {
    // Records are in arrival order; consumption is attributed at completion.
    // A conservative prefix check: cumulative spend through event j must not
    // exceed the total harvest plus the initial buffer.
    double spent = 0.0;
    for (const auto& r : records) {
        spent += r.energy_spent_mj;
        if (spent > total_harvested_mj + initial_buffer_mj + 1e-9) return false;
    }
    return true;
}

}  // namespace imx::sim
