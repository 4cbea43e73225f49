#include "core/trace_eval.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace imx::core {

StaticTraceEvaluator::StaticTraceEvaluator(
    const energy::PowerTrace& trace, const std::vector<sim::Event>& events,
    const energy::StorageConfig& storage, double energy_per_mmac_mj)
    : storage_(storage), energy_per_mmac_mj_(energy_per_mmac_mj) {
    IMX_EXPECTS(energy_per_mmac_mj > 0.0);
    IMX_EXPECTS(std::is_sorted(events.begin(), events.end(),
                               [](const sim::Event& a, const sim::Event& b) {
                                   return a.time_s < b.time_s;
                               }));

    // Integrate net storable power over each inter-event window once; the
    // per-policy pass then only walks events.
    energy::EnergyStorage probe(storage);
    inter_event_energy_mj_.reserve(events.size());
    const double dt = trace.dt();
    double prev_t = 0.0;
    for (const sim::Event& ev : events) {
        double net = 0.0;
        for (double t = prev_t; t < ev.time_s; t += dt) {
            const double window = std::min(dt, ev.time_s - t);
            const double p = trace.power_at(t);
            net += p * window * probe.efficiency_at(p) -
                   storage.leakage_mw * window;
        }
        inter_event_energy_mj_.push_back(net);
        prev_t = ev.time_s;
    }
}

TraceEvalResult StaticTraceEvaluator::evaluate(
    const std::vector<std::int64_t>& exit_macs,
    const std::vector<double>& exit_accuracy_percent) const {
    IMX_EXPECTS(!exit_macs.empty());
    IMX_EXPECTS(exit_macs.size() == exit_accuracy_percent.size());
    const auto m = exit_macs.size();

    std::vector<double> cost_mj(m);
    for (std::size_t i = 0; i < m; ++i) {
        cost_mj[i] =
            static_cast<double>(exit_macs[i]) / 1e6 * energy_per_mmac_mj_;
    }

    TraceEvalResult result;
    result.exit_probability.assign(m, 0.0);
    if (inter_event_energy_mj_.empty()) return result;

    double level = storage_.initial_mj;
    double acc_sum = 0.0;
    for (const double net : inter_event_energy_mj_) {
        level = std::clamp(level + net, 0.0, storage_.capacity_mj);
        // Static rule: deepest exit whose cost fits the buffered energy.
        int chosen = -1;
        for (std::size_t i = 0; i < m; ++i) {
            if (cost_mj[i] <= level) chosen = static_cast<int>(i);
        }
        if (chosen < 0) {
            ++result.missed;
            continue;
        }
        level -= cost_mj[static_cast<std::size_t>(chosen)];
        ++result.processed;
        result.exit_probability[static_cast<std::size_t>(chosen)] += 1.0;
        acc_sum += exit_accuracy_percent[static_cast<std::size_t>(chosen)] / 100.0;
    }

    const auto n = static_cast<double>(inter_event_energy_mj_.size());
    for (double& p : result.exit_probability) p /= n;
    result.avg_accuracy_all = acc_sum / n;
    return result;
}

double StaticTraceEvaluator::total_harvestable_mj() const {
    double sum = 0.0;
    for (const double e : inter_event_energy_mj_) sum += e;
    return sum;
}

}  // namespace imx::core
