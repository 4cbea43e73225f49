#include "sim/recovery/strategy.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contracts.hpp"

namespace imx::sim {

CheckpointGranularity parse_granularity(const std::string& text) {
    if (text == "layer") return CheckpointGranularity::kPerLayer;
    if (text == "exit") return CheckpointGranularity::kPerExit;
    throw std::invalid_argument("unknown checkpoint granularity '" + text +
                                "' (expected layer or exit)");
}

std::string granularity_name(CheckpointGranularity granularity) {
    return granularity == CheckpointGranularity::kPerLayer ? "layer" : "exit";
}

std::vector<std::int64_t> recovery_units(const InferenceModel& model,
                                         int from_exit, int to_exit,
                                         CheckpointGranularity granularity) {
    std::vector<std::int64_t> units;
    recovery_units_into(model, from_exit, to_exit, granularity, units);
    return units;
}

void recovery_units_into(const InferenceModel& model, int from_exit,
                         int to_exit, CheckpointGranularity granularity,
                         std::vector<std::int64_t>& units) {
    IMX_EXPECTS(from_exit >= -1);
    IMX_EXPECTS(to_exit > from_exit && to_exit < model.num_exits());
    const std::int64_t total = model.incremental_macs(from_exit, to_exit);

    units.clear();
    if (granularity == CheckpointGranularity::kPerLayer) {
        std::int64_t sum = 0;
        for (const std::int64_t macs : model.segment_macs(from_exit, to_exit)) {
            IMX_EXPECTS(macs >= 0);
            sum += macs;
            if (macs > 0) units.push_back(macs);
        }
        IMX_EXPECTS(sum == total);
    } else {
        // Boundary after the MACs of to_exit's path that exit k's path has
        // already covered; covered(k) is non-decreasing in k for a
        // chain-trunk network, but clamp anyway so an exotic model cannot
        // produce a negative unit.
        const auto covered = [&](int k) {
            if (k < 0) return std::int64_t{0};
            return total - model.incremental_macs(k, to_exit);
        };
        const std::int64_t base = covered(from_exit);
        std::int64_t done = 0;
        for (int k = from_exit + 1; k < to_exit; ++k) {
            const std::int64_t boundary =
                std::clamp(covered(k) - base, std::int64_t{0}, total);
            if (boundary > done) {
                units.push_back(boundary - done);
                done = boundary;
            }
        }
        if (total > done) units.push_back(total - done);
    }
    // A degenerate plan (total == 0) still needs one unit so the execution
    // machinery has a step to complete and evaluate on.
    if (units.empty()) units.push_back(total);
}

void plan_units_into(const InferenceModel& model, int from_exit, int to_exit,
                     const RecoveryConfig& recovery,
                     std::vector<std::int64_t>& units) {
    if (recovery.enabled) {
        recovery_units_into(model, from_exit, to_exit, recovery.granularity,
                            units);
        return;
    }
    IMX_EXPECTS(from_exit >= -1);
    IMX_EXPECTS(to_exit > from_exit && to_exit < model.num_exits());
    units.assign(1, model.incremental_macs(from_exit, to_exit));
}

}  // namespace imx::sim
