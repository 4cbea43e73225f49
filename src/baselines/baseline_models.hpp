// The paper's comparison systems (Sec. V-C):
//  * SonicNet — the network shipped with the SONIC intermittent-inference
//    runtime [Gobieski et al., ASPLOS'19]: single exit, 2.0 MFLOPs, 75.4 %
//    accuracy on processed events.
//  * SpArSeNet — output of the SpArSe NAS for MCUs [Fedorov et al.]:
//    single exit, 11.4 MFLOPs, 82.7 %.
//  * LeNet-Cifar — hand-adapted LeNet: single exit, 0.72 MFLOPs, 74.7 %
//    (FLOPs inferred from the paper's Fig. 5/latency arithmetic; see
//    docs/reproducing-figures.md, Calibration).
// All three run SONIC's checkpointed execution as simulator unit plans
// (docs/recovery.md): step-sized units, each committing an NVM checkpoint.
#ifndef IMX_BASELINES_BASELINE_MODELS_HPP
#define IMX_BASELINES_BASELINE_MODELS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mcu/device.hpp"
#include "sim/inference_model.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"

namespace imx::baselines {

/// MACs one simulation step of `dt_s` computes on `mcu`.
[[nodiscard]] inline std::int64_t step_unit_macs(const mcu::McuConfig& mcu,
                                                 double dt_s) {
    return static_cast<std::int64_t>(mcu.mmacs_per_second * 1e6 * dt_s);
}

/// The default unit size: one 1 s step of the paper MCU (0.2 MMAC/s).
inline constexpr std::int64_t kPaperStepUnitMacs = 200000;

/// `base` (same storage, MCU, step and traffic) running SONIC's runtime on
/// the unit path: recovery enabled with the "checkpoint" strategy at layer
/// granularity, a commit price of checkpoint_count(step unit) x
/// McuConfig::checkpoint_energy_mj, no restore cost and no stall draw.
[[nodiscard]] sim::SimConfig checkpointed_sim_config(sim::SimConfig base);

/// Single-exit model with fixed cost and accuracy; correctness is decided by
/// the same hashed-difficulty construction as the core oracle so baselines
/// and our network face the same event stream difficulty.
class FixedBaselineModel final : public sim::InferenceModel {
public:
    /// \param unit_macs size of the units segment_macs() cuts the pass into.
    FixedBaselineModel(std::string name, double mflops, double accuracy_percent,
                       double model_kb, std::uint64_t seed = 1234,
                       std::int64_t unit_macs = kPaperStepUnitMacs);

    [[nodiscard]] int num_exits() const override { return 1; }
    [[nodiscard]] std::int64_t exit_macs(int exit) const override;
    [[nodiscard]] std::int64_t incremental_macs(int from_exit,
                                                int to_exit) const override;
    /// The forward pass in unit_macs pieces, the last one the remainder.
    [[nodiscard]] std::vector<std::int64_t> segment_macs(
        int from_exit, int to_exit) const override;
    [[nodiscard]] sim::ExitOutcome evaluate(int event_id, int exit) override;
    [[nodiscard]] double model_bytes() const override { return bytes_; }

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] double accuracy_percent() const { return accuracy_; }

private:
    std::string name_;
    std::int64_t macs_;
    double accuracy_;
    double bytes_;
    std::uint64_t seed_;
    std::int64_t unit_macs_;
};

/// Factories with the paper's characterizations.
FixedBaselineModel make_sonic_net(std::uint64_t seed = 1234,
                                  std::int64_t unit_macs = kPaperStepUnitMacs);
FixedBaselineModel make_sparse_net(std::uint64_t seed = 1234,
                                   std::int64_t unit_macs = kPaperStepUnitMacs);
FixedBaselineModel make_lenet_cifar(
    std::uint64_t seed = 1234, std::int64_t unit_macs = kPaperStepUnitMacs);

/// A single-exit network has no exit to choose: commit exit 0 at pickup
/// and never hop. Each unit of the plan then waits until it is affordable.
class CommitAtPickupPolicy final : public sim::ExitPolicy {
public:
    int select_exit(const sim::EnergyState&,
                    const sim::InferenceModel&) override {
        return 0;
    }
    bool continue_inference(const sim::EnergyState&,
                            const sim::InferenceModel&, int, double) override {
        return false;
    }
    [[nodiscard]] bool reads_charge_rate() const override { return false; }
};

}  // namespace imx::baselines

#endif  // IMX_BASELINES_BASELINE_MODELS_HPP
