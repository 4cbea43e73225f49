#include "energy/storage.hpp"

#include <algorithm>

namespace imx::energy {

EnergyStorage::EnergyStorage(const StorageConfig& config)
    : config_(config), level_mj_(config.initial_mj) {
    IMX_EXPECTS(config.capacity_mj > 0.0);
    IMX_EXPECTS(config.initial_mj >= 0.0 &&
                config.initial_mj <= config.capacity_mj);
    IMX_EXPECTS(config.leakage_mw >= 0.0);
    IMX_EXPECTS(config.efficiency_max > 0.0 && config.efficiency_max <= 1.0);
    IMX_EXPECTS(config.efficiency_half_power_mw >= 0.0);
    IMX_EXPECTS(config.on_threshold_mj >= 0.0 &&
                config.on_threshold_mj <= config.capacity_mj);
    IMX_EXPECTS(config.death_threshold_mj >= 0.0 &&
                config.death_threshold_mj <= config.capacity_mj);
}

void EnergyStorage::reset(double level_mj) {
    IMX_EXPECTS(level_mj >= 0.0 && level_mj <= config_.capacity_mj);
    level_mj_ = level_mj;
}

}  // namespace imx::energy
