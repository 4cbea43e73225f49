#include "mcu/device.hpp"

namespace imx::mcu {

McuModel::McuModel(const McuConfig& config) : config_(config) {
    IMX_EXPECTS(config.energy_per_mmac_mj > 0.0);
    IMX_EXPECTS(config.mmacs_per_second > 0.0);
    IMX_EXPECTS(config.checkpoint_energy_mj >= 0.0);
    IMX_EXPECTS(config.macs_per_task > 0);
    IMX_EXPECTS(config.wakeup_energy_mj >= 0.0);
}

double McuModel::compute_time(std::int64_t macs) const {
    IMX_EXPECTS(macs >= 0);
    return static_cast<double>(macs) / 1e6 / config_.mmacs_per_second;
}

std::int64_t McuModel::checkpoint_count(std::int64_t macs) const {
    IMX_EXPECTS(macs >= 0);
    return (macs + config_.macs_per_task - 1) / config_.macs_per_task;
}

}  // namespace imx::mcu
