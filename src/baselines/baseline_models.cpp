#include "baselines/baseline_models.hpp"

#include <algorithm>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace imx::baselines {

sim::SimConfig checkpointed_sim_config(sim::SimConfig base) {
    const std::int64_t unit = step_unit_macs(base.mcu, base.dt_s);
    IMX_EXPECTS(unit > 0);
    sim::RecoveryConfig& recovery = base.recovery;
    recovery = sim::RecoveryConfig{};  // layer granularity, no stall draw
    recovery.enabled = true;
    recovery.strategy = "checkpoint";
    recovery.checkpoint_energy_mj =
        static_cast<double>(mcu::McuModel(base.mcu).checkpoint_count(unit)) *
        base.mcu.checkpoint_energy_mj;
    recovery.restore_energy_mj = 0.0;
    return base;
}

FixedBaselineModel::FixedBaselineModel(std::string name, double mflops,
                                       double accuracy_percent, double model_kb,
                                       std::uint64_t seed,
                                       std::int64_t unit_macs)
    : name_(std::move(name)),
      macs_(static_cast<std::int64_t>(mflops * 1e6)),
      accuracy_(accuracy_percent),
      bytes_(model_kb * 1024.0),
      seed_(seed),
      unit_macs_(unit_macs) {
    IMX_EXPECTS(mflops > 0.0);
    IMX_EXPECTS(accuracy_percent > 0.0 && accuracy_percent <= 100.0);
    IMX_EXPECTS(unit_macs > 0);
}

std::int64_t FixedBaselineModel::exit_macs(int exit) const {
    IMX_EXPECTS(exit == 0);
    return macs_;
}

std::int64_t FixedBaselineModel::incremental_macs(int from_exit,
                                                  int to_exit) const {
    IMX_EXPECTS(from_exit == -1 && to_exit == 0);
    return macs_;
}

std::vector<std::int64_t> FixedBaselineModel::segment_macs(int from_exit,
                                                           int to_exit) const {
    IMX_EXPECTS(from_exit == -1 && to_exit == 0);
    std::vector<std::int64_t> units;
    for (std::int64_t done = 0; done < macs_; done += unit_macs_) {
        units.push_back(std::min(unit_macs_, macs_ - done));
    }
    return units;
}

sim::ExitOutcome FixedBaselineModel::evaluate(int event_id, int exit) {
    IMX_EXPECTS(exit == 0);
    // Same latent-difficulty construction as core::OracleInferenceModel.
    std::uint64_t s = seed_ ^ (static_cast<std::uint64_t>(event_id) *
                               0x9e3779b97f4a7c15ULL);
    const double u = static_cast<double>(util::splitmix64(s) >> 11) * 0x1.0p-53;
    sim::ExitOutcome out;
    out.correct = u < accuracy_ / 100.0;
    out.confidence = 1.0;  // single exit: no early-exit decision to make
    return out;
}

FixedBaselineModel make_sonic_net(std::uint64_t seed, std::int64_t unit_macs) {
    // SONIC's CNN: 2.0 MFLOPs; 75.4 % processed-event accuracy (paper V-C).
    return FixedBaselineModel("SonicNet", 2.0, 75.4, 98.0, seed, unit_macs);
}

FixedBaselineModel make_sparse_net(std::uint64_t seed, std::int64_t unit_macs) {
    // SpArSe NAS output: 11.4 MFLOPs; 82.7 % (paper V-C).
    return FixedBaselineModel("SpArSeNet", 11.4, 82.7, 64.0, seed, unit_macs);
}

FixedBaselineModel make_lenet_cifar(std::uint64_t seed,
                                    std::int64_t unit_macs) {
    // LeNet adapted to CIFAR-10: 74.7 % (paper V-C); 0.72 MFLOPs inferred
    // from the paper's energy arithmetic (docs/reproducing-figures.md,
    // Calibration).
    return FixedBaselineModel("LeNet-Cifar", 0.72, 74.7, 240.0, seed,
                              unit_macs);
}

}  // namespace imx::baselines
