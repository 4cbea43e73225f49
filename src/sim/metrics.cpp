#include "sim/metrics.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace imx::sim {

namespace {

/// The nearest-rank q-percentile of `sample`, selected in place. Sorted
/// positions from `end` on must already hold their values (end ==
/// sample.size() at first); the selected position becomes the new `end`,
/// so a caller that asks for non-increasing q narrows each selection to
/// the prefix the previous one left.
double select_percentile(std::vector<double>& sample, std::size_t& end,
                         double q) {
    const std::size_t k = util::nearest_rank_index(q, sample.size());
    IMX_EXPECTS(k <= end);
    if (k < end) {
        const auto first = sample.begin();
        std::nth_element(first, first + static_cast<std::ptrdiff_t>(k),
                         first + static_cast<std::ptrdiff_t>(end));
        end = k;
    }
    return sample[k];
}

}  // namespace

double SimSummary::iepmj() const {
    IMX_EXPECTS(harvested_mj > 0.0);
    return static_cast<double>(correct) / harvested_mj;
}

double SimSummary::accuracy_all_events() const {
    if (events == 0) return 0.0;
    return static_cast<double>(correct) / static_cast<double>(events);
}

double SimSummary::accuracy_processed() const {
    if (processed == 0) return 0.0;
    return static_cast<double>(correct) / static_cast<double>(processed);
}

double SimSummary::mean_event_latency_s() const {
    return processed == 0 ? 0.0 : event_latency_sum_s / processed;
}

double SimSummary::mean_inference_latency_s() const {
    return processed == 0 ? 0.0 : inference_latency_sum_s / processed;
}

double SimSummary::mean_inference_macs() const {
    return processed == 0 ? 0.0 : macs_sum / processed;
}

double SimSummary::deadline_miss_rate() const {
    IMX_EXPECTS(deadline_s > 0.0);
    if (events == 0) return 0.0;
    if (deadline_s == std::numeric_limits<double>::infinity()) return 0.0;
    return static_cast<double>(events - on_time) / static_cast<double>(events);
}

LatencyPercentiles select_latency_percentiles(std::vector<double>& latencies) {
    LatencyPercentiles p;
    if (latencies.empty()) return p;
    std::size_t end = latencies.size();
    p.p99_s = select_percentile(latencies, end, 0.99);
    p.p95_s = select_percentile(latencies, end, 0.95);
    p.p50_s = select_percentile(latencies, end, 0.50);
    return p;
}

SimSummary SimResult::summary(double deadline,
                              std::vector<double>* latencies) const {
    SimSummary s;
    s.events = total_events();
    s.harvested_mj = total_harvested_mj;
    s.deadline_s = deadline;
    for (const auto& r : records) {
        s.consumed_mj += r.energy_spent_mj;
        if (!r.processed) continue;
        IMX_ASSERT(r.completion_time_s >= r.arrival_time_s);
        const double latency = r.completion_time_s - r.arrival_time_s;
        ++s.processed;
        s.correct += r.correct ? 1 : 0;
        s.on_time += latency <= deadline ? 1 : 0;
        s.event_latency_sum_s += latency;
        s.inference_latency_sum_s += r.completion_time_s - r.inference_start_s;
        s.macs_sum += static_cast<double>(r.macs);
        if (latencies != nullptr) latencies->push_back(latency);
    }
    return s;
}

double SimResult::latency_percentile_s(double q) const {
    std::vector<double> latencies;
    latencies.reserve(records.size());
    (void)summary(&latencies);
    if (latencies.empty()) return 0.0;
    std::size_t end = latencies.size();
    return select_percentile(latencies, end, q);
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
