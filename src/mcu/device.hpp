// Analytical MCU model (TI MSP432-class target of the paper).
//
// The paper reduces the device to two constants — 1.5 mJ per million FLOPs
// and a 1-second latency time unit with FLOPs as the latency proxy — plus a
// weight-storage budget (tens of KB; core::kSizeTargetBytes). This model
// makes the compute knobs explicit and adds the checkpoint cost a SONIC-style
// intermittent runtime pays to preserve progress across power failures
// (nonvolatile FRAM writes).
#ifndef IMX_MCU_DEVICE_HPP
#define IMX_MCU_DEVICE_HPP

#include <cstdint>

#include "util/contracts.hpp"

namespace imx::mcu {

struct McuConfig {
    double energy_per_mmac_mj = 1.5;  ///< paper: 1.5 mJ per million FLOPs
    double mmacs_per_second = 0.1;    ///< active-compute throughput (MMAC/s)
    // SONIC-style checkpointing of loop indices + partial accumulators into
    // FRAM, paid once per committed task/tile.
    double checkpoint_energy_mj = 0.02;
    /// Task/tile granularity for intermittent execution: computation between
    /// two consecutive checkpoints (in MACs).
    std::int64_t macs_per_task = 50000;
    /// Fixed per-power-cycle boot/restore overhead.
    double wakeup_energy_mj = 0.01;
    double wakeup_time_s = 0.01;
};

class McuModel {
public:
    explicit McuModel(const McuConfig& config);

    [[nodiscard]] const McuConfig& config() const { return config_; }

    /// Pure compute time for a MAC count, seconds.
    [[nodiscard]] double compute_time(std::int64_t macs) const;

    /// Number of checkpoints a SONIC-style run of `macs` commits.
    [[nodiscard]] std::int64_t checkpoint_count(std::int64_t macs) const;

private:
    McuConfig config_;
};

}  // namespace imx::mcu

#endif  // IMX_MCU_DEVICE_HPP
