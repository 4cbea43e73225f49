#include "energy/power_trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"
#include "util/csv.hpp"

namespace imx::energy {

PowerTrace::PowerTrace(double dt_s, std::vector<double> power_mw)
    : dt_s_(dt_s),
      power_mw_(std::move(power_mw)),
      income_cache_(fresh_income_cache()) {
    IMX_EXPECTS(dt_s > 0.0);
    IMX_EXPECTS(!power_mw_.empty());
    for (const double p : power_mw_) IMX_EXPECTS(p >= 0.0);
    total_mj_ = sum_energy();
}

double PowerTrace::energy_between(double t0, double t1) const {
    IMX_EXPECTS(t0 <= t1);
    t0 = std::max(t0, 0.0);
    t1 = std::min(t1, duration());
    if (t0 >= t1) return 0.0;

    const auto first = static_cast<std::size_t>(t0 / dt_s_);
    const auto last = static_cast<std::size_t>(t1 / dt_s_);
    // mW * s = mJ directly.
    if (first == last) return power_mw_[first] * (t1 - t0);

    double energy = power_mw_[first] * (static_cast<double>(first + 1) * dt_s_ - t0);
    for (std::size_t i = first + 1; i < last; ++i) {
        energy += power_mw_[i] * dt_s_;
    }
    if (last < power_mw_.size()) {
        energy += power_mw_[last] * (t1 - static_cast<double>(last) * dt_s_);
    }
    return energy;
}

double PowerTrace::sum_energy() const {
    double sum = 0.0;
    for (const double p : power_mw_) sum += p;
    return sum * dt_s_;
}

double PowerTrace::mean_power() const {
    return total_energy() / duration();
}

void PowerTrace::rescale_total_energy(double target_mj) {
    IMX_EXPECTS(target_mj > 0.0);
    const double current = total_energy();
    IMX_EXPECTS(current > 0.0);
    const double factor = target_mj / current;
    for (double& p : power_mw_) p *= factor;
    total_mj_ = sum_energy();
    income_cache_ = fresh_income_cache();
}

PowerTrace PowerTrace::constant(double power_mw, double duration_s,
                                double dt_s) {
    IMX_EXPECTS(duration_s > 0.0 && dt_s > 0.0);
    const auto n = static_cast<std::size_t>(std::ceil(duration_s / dt_s));
    return PowerTrace(dt_s, std::vector<double>(n, power_mw));
}

PowerTrace PowerTrace::square_wave(double power_mw, double period_s,
                                   double duty_cycle, double duration_s,
                                   double dt_s) {
    IMX_EXPECTS(period_s > 0.0 && duty_cycle >= 0.0 && duty_cycle <= 1.0);
    const auto n = static_cast<std::size_t>(std::ceil(duration_s / dt_s));
    std::vector<double> samples(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double phase = std::fmod(static_cast<double>(i) * dt_s, period_s);
        samples[i] = phase < duty_cycle * period_s ? power_mw : 0.0;
    }
    return PowerTrace(dt_s, std::move(samples));
}

void PowerTrace::to_csv(const std::string& path) const {
    util::CsvWriter writer(path);
    writer.write_header({"time_s", "power_mw"});
    for (std::size_t i = 0; i < power_mw_.size(); ++i) {
        writer.write_row(std::vector<double>{static_cast<double>(i) * dt_s_,
                                             power_mw_[i]});
    }
}

PowerTrace PowerTrace::from_csv(const std::string& path) {
    const util::CsvTable table = util::read_csv(path, true);
    IMX_EXPECTS(table.rows.size() >= 2);
    const std::vector<double> times = table.numeric_column("time_s");
    const std::vector<double> power = table.numeric_column("power_mw");
    const double dt = times[1] - times[0];
    if (!(dt > 0.0)) {
        throw std::invalid_argument(path +
                                    ": time_s must be strictly increasing");
    }
    // The representation is a uniform grid: a logger export with dropped or
    // irregular samples would otherwise replay on the wrong time base and
    // silently skew every downstream metric.
    const double tolerance = 1e-6 * dt;
    for (std::size_t i = 2; i < times.size(); ++i) {
        const double step = times[i] - times[i - 1];
        if (std::abs(step - dt) > tolerance) {
            throw std::invalid_argument(
                path + ": non-uniform time_s spacing at row " +
                std::to_string(i + 2) + " (step " + std::to_string(step) +
                " s vs dt " + std::to_string(dt) + " s)");
        }
    }
    return PowerTrace(dt, power);
}

}  // namespace imx::energy
