/// \file
/// \brief Per-step converter output of a power trace under one step length
/// and one storage efficiency curve.
///
/// The simulator harvests once per step at the times t_k it visits
/// (t_0 = 0, t_{k+1} = t_k + dt, while t_k < duration). The income of step
/// k, (p·dt)·eff(p) with p = trace.power_at(t_k), depends only on the
/// trace, dt and the efficiency curve, so it is tabulated once and shared
/// read-only: a step then costs a load instead of power_at's division and
/// the efficiency quotient. The values are the exact doubles
/// EnergyStorage::harvest() computes, so feeding them to
/// EnergyStorage::harvest_net() is bitwise the same step.
///
/// Tables are built through PowerTrace::income(), which keeps one per key
/// for the trace's lifetime; copies of a trace share them.
#ifndef IMX_ENERGY_INCOME_HPP
#define IMX_ENERGY_INCOME_HPP

#include <cstddef>
#include <vector>

#include "energy/power_trace.hpp"
#include "energy/storage.hpp"

namespace imx::energy {

/// \brief What an IncomeTable depends on besides its trace.
struct IncomeKey {
    double dt_s = 1.0;
    double efficiency_max = 0.0;
    double efficiency_half_power_mw = 0.0;

    /// \brief The key of a simulation stepping at dt_s with this storage.
    static IncomeKey of(double dt_s, const StorageConfig& storage) {
        return {dt_s, storage.efficiency_max, storage.efficiency_half_power_mw};
    }
    bool operator==(const IncomeKey& other) const {
        return dt_s == other.dt_s && efficiency_max == other.efficiency_max &&
               efficiency_half_power_mw == other.efficiency_half_power_mw;
    }
};

/// \brief Immutable per-step net income (mJ) of one trace under one key.
class IncomeTable {
public:
    /// \pre key.dt_s > 0.
    IncomeTable(const PowerTrace& trace, const IncomeKey& key);

    [[nodiscard]] const IncomeKey& key() const { return key_; }
    /// Steps a run over the whole trace visits.
    [[nodiscard]] std::size_t steps() const { return net_mj_.size(); }
    /// Converter output of step k (the step starting at t_k), mJ.
    [[nodiscard]] double net_mj(std::size_t step) const {
        return net_mj_[step];
    }

private:
    IncomeKey key_;
    std::vector<double> net_mj_;
};

}  // namespace imx::energy

#endif  // IMX_ENERGY_INCOME_HPP
