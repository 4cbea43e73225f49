/// \file
/// \brief Capacitor-style energy buffer of an intermittently powered device.
///
/// Models the essentials the paper's runtime depends on: finite capacity,
/// charge inefficiency that worsens at low input power (the "charging
/// efficiency" component of the Q-learning state, Sec. IV), leakage, and
/// the turn-on and brown-out thresholds that bound a power cycle. The
/// capacity is also a sweep axis: exp::storage_patch() varies capacity_mj
/// across a scenario grid.
#ifndef IMX_ENERGY_STORAGE_HPP
#define IMX_ENERGY_STORAGE_HPP

#include <algorithm>

#include "util/contracts.hpp"

namespace imx::energy {

/// \brief Tunable parameters of the energy buffer.
struct StorageConfig {
    double capacity_mj = 10.0;      ///< usable energy at full charge
    double initial_mj = 0.0;
    double leakage_mw = 0.001;      ///< constant self-discharge
    /// Charging efficiency rises with input power and saturates:
    /// eff(p) = eff_max * p / (p + half_power). Boost converters on real
    /// harvesters behave this way (poor efficiency in dim light).
    double efficiency_max = 0.85;
    double efficiency_half_power_mw = 0.15;
    /// Intermittent-computing turn-on threshold: execution may start only
    /// at or above it.
    double on_threshold_mj = 0.5;
    /// Brown-out death threshold of the failure model (sim/recovery/): a
    /// recovery-enabled run that sags strictly below this level mid-inference
    /// dies and must restart under its recovery strategy. 0 disables death
    /// (the level never goes negative). Only the recovery-enabled simulator
    /// path reads it — the default runtime is unaffected.
    double death_threshold_mj = 0.05;
};

/// \brief Charging efficiency in [0, efficiency_max] at the given input
/// power: efficiency_max * p / (p + half_power), 0 at p == 0. The one
/// expression behind EnergyStorage::efficiency_at() and
/// energy::IncomeTable.
[[nodiscard]] inline double charging_efficiency(double efficiency_max,
                                                double half_power_mw,
                                                double power_mw) {
    IMX_EXPECTS(power_mw >= 0.0);
    if (power_mw == 0.0) return 0.0;
    return efficiency_max * power_mw / (power_mw + half_power_mw);
}

/// \brief Stateful energy buffer: harvest in, inference energy out.
class EnergyStorage {
public:
    /// \pre config.capacity_mj > 0, thresholds within capacity.
    explicit EnergyStorage(const StorageConfig& config);

    // harvest/try_consume/drain are defined inline: the simulator calls
    // them once per step, and the cross-TU call was measurable against the
    // few float ops they perform. The operations (and their exact float
    // evaluation order) are unchanged — the --quick goldens pin that.

    /// \brief Integrate harvesting at constant input power for dt seconds.
    /// \param power_mw harvested input power over the step.
    /// \param dt_s step length in seconds.
    /// \return the energy actually stored (after efficiency and capping).
    double harvest(double power_mw, double dt_s) {
        IMX_EXPECTS(power_mw >= 0.0 && dt_s >= 0.0);
        const double gross = power_mw * dt_s;               // mJ harvested
        const double net = gross * efficiency_at(power_mw); // after converter
        return harvest_net(net, config_.leakage_mw * dt_s);
    }

    /// \brief The level one step leaves behind: converter output net_mj in,
    /// leakage leak_mj out, clamped to [0, capacity]. The single expression
    /// behind harvest(), so a caller that precomputed net_mj
    /// (energy::IncomeTable) can look a step ahead bit for bit.
    [[nodiscard]] double level_after(double net_mj, double leak_mj) const {
        return std::clamp(level_mj_ + net_mj - leak_mj, 0.0,
                          config_.capacity_mj);
    }

    /// \brief harvest() with the converter output already computed.
    /// \return the energy actually stored.
    double harvest_net(double net_mj, double leak_mj) {
        const double before = level_mj_;
        level_mj_ = level_after(net_mj, leak_mj);
        return level_mj_ - before;
    }

    /// \return charging efficiency in [0, efficiency_max] at the given
    ///   input power.
    [[nodiscard]] double efficiency_at(double power_mw) const {
        return charging_efficiency(config_.efficiency_max,
                                   config_.efficiency_half_power_mw, power_mw);
    }

    /// \brief Attempt to withdraw amount_mj.
    /// \return false (withdrawing nothing) if the level is insufficient.
    [[nodiscard]] bool try_consume(double amount_mj) {
        IMX_EXPECTS(amount_mj >= 0.0);
        if (amount_mj > level_mj_) return false;
        level_mj_ -= amount_mj;
        return true;
    }

    /// \brief Withdraw unconditionally (level clamps at 0); models a
    /// brown-out where in-progress computation is lost.
    void drain(double amount_mj) {
        IMX_EXPECTS(amount_mj >= 0.0);
        level_mj_ = std::max(0.0, level_mj_ - amount_mj);
    }

    [[nodiscard]] double level() const { return level_mj_; }
    [[nodiscard]] double capacity() const { return config_.capacity_mj; }
    [[nodiscard]] double headroom() const { return config_.capacity_mj - level_mj_; }
    [[nodiscard]] bool can_turn_on() const {
        return level_mj_ >= config_.on_threshold_mj;
    }
    /// \brief Below the failure model's brown-out threshold (strict, so a
    /// zero threshold never fires)?
    [[nodiscard]] bool below_death_threshold() const {
        return level_mj_ < config_.death_threshold_mj;
    }
    [[nodiscard]] const StorageConfig& config() const { return config_; }

    void reset(double level_mj);

private:
    StorageConfig config_;
    double level_mj_;
};

}  // namespace imx::energy

#endif  // IMX_ENERGY_STORAGE_HPP
