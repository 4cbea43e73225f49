// What the simulator needs to know about a deployed network: per-exit cost
// and, per (event, exit), whether the classification is correct and how
// confident the exit's softmax is. Implementations: an oracle calibrated to
// paper accuracies (core/) and the fixed-cost single-exit baselines
// (baselines/).
#ifndef IMX_SIM_INFERENCE_MODEL_HPP
#define IMX_SIM_INFERENCE_MODEL_HPP

#include <cstdint>
#include <vector>

namespace imx::sim {

/// Result of evaluating one event at one exit.
struct ExitOutcome {
    bool correct = false;
    /// Confidence in [0,1] = 1 - normalized softmax entropy (paper Sec. IV
    /// uses entropy; we report its complement so higher = more confident).
    double confidence = 1.0;
};

class InferenceModel {
public:
    virtual ~InferenceModel() = default;
    InferenceModel() = default;
    InferenceModel(const InferenceModel&) = delete;
    InferenceModel& operator=(const InferenceModel&) = delete;

    [[nodiscard]] virtual int num_exits() const = 0;

    /// MACs to compute exit `exit` from scratch.
    [[nodiscard]] virtual std::int64_t exit_macs(int exit) const = 0;

    /// MACs to advance from `from_exit` to `to_exit` reusing trunk state
    /// (from_exit == -1 means from scratch).
    [[nodiscard]] virtual std::int64_t incremental_macs(int from_exit,
                                                        int to_exit) const = 0;

    /// Per-layer breakdown of incremental_macs(from_exit, to_exit), in
    /// execution order. Zero-cost layers may be included or omitted; the sum
    /// must equal incremental_macs(from_exit, to_exit). The failure model
    /// (sim/recovery/) uses these as per-layer checkpoint boundaries. The
    /// default treats the whole advance as one opaque segment, which is
    /// always sound.
    [[nodiscard]] virtual std::vector<std::int64_t> segment_macs(
        int from_exit, int to_exit) const {
        return {incremental_macs(from_exit, to_exit)};
    }

    /// Deterministic per (event_id, exit): same event re-evaluated at the
    /// same exit gives the same outcome.
    [[nodiscard]] virtual ExitOutcome evaluate(int event_id, int exit) = 0;

    /// Deployed weight storage in bytes (for flash-fit checks).
    [[nodiscard]] virtual double model_bytes() const = 0;
};

}  // namespace imx::sim

#endif  // IMX_SIM_INFERENCE_MODEL_HPP
