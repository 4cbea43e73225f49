// Harvested-power time series. Units: milliwatts over seconds, so integrals
// are millijoules — the paper's IEpmJ denominator unit.
#ifndef IMX_ENERGY_POWER_TRACE_HPP
#define IMX_ENERGY_POWER_TRACE_HPP

#include <memory>
#include <string>
#include <vector>

namespace imx::energy {

struct IncomeKey;
class IncomeTable;

/// Piecewise-constant power trace sampled every dt_s seconds.
class PowerTrace {
public:
    PowerTrace(double dt_s, std::vector<double> power_mw);

    [[nodiscard]] double dt() const { return dt_s_; }
    [[nodiscard]] std::size_t size() const { return power_mw_.size(); }
    [[nodiscard]] double duration() const {
        return dt_s_ * static_cast<double>(power_mw_.size());
    }

    /// Power at absolute time t (seconds); 0 beyond the end. Inline: the
    /// simulator reads one sample per step, and the cross-TU call cost more
    /// than the lookup.
    [[nodiscard]] double power_at(double t) const {
        if (t < 0.0) return 0.0;
        const auto idx = static_cast<std::size_t>(t / dt_s_);
        if (idx >= power_mw_.size()) return 0.0;
        return power_mw_[idx];
    }

    /// Energy harvested in [t0, t1] in millijoules (piecewise-constant
    /// integral, exact for this representation).
    [[nodiscard]] double energy_between(double t0, double t1) const;

    /// Total energy over the whole trace (mJ). Summed once at construction
    /// (and again by rescale_total_energy), so reading it is free.
    [[nodiscard]] double total_energy() const { return total_mj_; }

    /// Mean power (mW).
    [[nodiscard]] double mean_power() const;

    [[nodiscard]] const std::vector<double>& samples() const { return power_mw_; }

    /// Scale all samples so total_energy() becomes the requested value.
    void rescale_total_energy(double target_mj);

    /// The per-step income table of this trace under `key`
    /// (energy/income.hpp), built on first request and kept for the
    /// trace's lifetime. Copies of a trace share their tables until one of
    /// them is rescaled. Thread-safe.
    [[nodiscard]] std::shared_ptr<const IncomeTable> income(
        const IncomeKey& key) const;

    // Factories -------------------------------------------------------------
    static PowerTrace constant(double power_mw, double duration_s, double dt_s);
    /// Alternating on/off square wave starting "on".
    static PowerTrace square_wave(double power_mw, double period_s,
                                  double duty_cycle, double duration_s,
                                  double dt_s);
    /// Load from CSV with columns time_s,power_mw. dt comes from the first
    /// two rows; a non-monotonic or non-uniform time column throws
    /// std::invalid_argument (the representation is a uniform grid — an
    /// irregular logger export would replay on the wrong time base).
    static PowerTrace from_csv(const std::string& path);

    /// Write the trace as CSV (columns time_s,power_mw), the same format
    /// from_csv reads — round-trips exactly.
    void to_csv(const std::string& path) const;

private:
    struct IncomeCache;
    static std::shared_ptr<IncomeCache> fresh_income_cache();
    [[nodiscard]] double sum_energy() const;

    double dt_s_;
    std::vector<double> power_mw_;
    double total_mj_ = 0.0;
    std::shared_ptr<IncomeCache> income_cache_;
};

}  // namespace imx::energy

#endif  // IMX_ENERGY_POWER_TRACE_HPP
