// sim::InferenceModel backed by the calibrated accuracy oracle.
//
// Each event carries a latent difficulty u ~ U(0,1) (util::hash_uniform of
// its id, so outcomes are reproducible and consistent across exits, and a
// baselines::FixedBaselineModel with the same seed faces the same u): exit i
// classifies the event correctly iff u < Acc_i. When Acc_i increases with
// exit depth (the common case), an event solved by a shallow exit stays
// solved by deeper ones and hard events (large u) are exactly the ones
// incremental inference can rescue — the behaviour BranchyNet-style cascades
// show on real data.
//
// Confidence is modeled as 1 - normalized entropy via a logistic link on the
// margin (Acc_i - u): comfortably easy events produce confident, low-entropy
// softmax outputs, borderline ones sit near the threshold.
#ifndef IMX_CORE_ORACLE_MODEL_HPP
#define IMX_CORE_ORACLE_MODEL_HPP

#include <vector>

#include "compress/network_desc.hpp"
#include "sim/inference_model.hpp"

namespace imx::core {

struct OracleModelConfig {
    double confidence_slope = 7.0;   ///< logistic slope on the margin
    double confidence_bias = 0.8;    ///< shifts overall confidence upward
    double confidence_noise = 0.35;  ///< per-(event,exit) jitter
    std::uint64_t seed = 1234;
};

class OracleInferenceModel final : public sim::InferenceModel {
public:
    /// Costs come from the network + policy; accuracies (percent) from the
    /// accuracy oracle evaluated on that policy.
    OracleInferenceModel(const compress::NetworkDesc& desc,
                         const compress::Policy& policy,
                         std::vector<double> exit_accuracy_percent,
                         const OracleModelConfig& config = {});

    [[nodiscard]] int num_exits() const override;
    [[nodiscard]] std::int64_t exit_macs(int exit) const override;
    [[nodiscard]] std::int64_t incremental_macs(int from_exit,
                                                int to_exit) const override;
    [[nodiscard]] std::vector<std::int64_t> segment_macs(
        int from_exit, int to_exit) const override;
    [[nodiscard]] sim::ExitOutcome evaluate(int event_id, int exit) override;
    [[nodiscard]] double model_bytes() const override { return model_bytes_; }

    [[nodiscard]] const std::vector<double>& exit_accuracy() const {
        return accuracy_;
    }

private:
    std::vector<std::int64_t> exit_macs_;
    /// macs_of_layers_[e] = policy-compressed MACs of every layer on exit
    /// e's path, keyed by layer index (for incremental set differences).
    std::vector<std::vector<std::pair<int, std::int64_t>>> path_macs_;
    /// Full (from, to) tables, precomputed in the constructor so the
    /// simulator's per-step queries are O(1) lookups instead of O(path^2)
    /// set differences. Row index is from_exit + 1 (row 0 = cold start).
    std::vector<std::vector<std::int64_t>> incremental_table_;
    std::vector<std::vector<std::vector<std::int64_t>>> segment_table_;
    std::vector<double> accuracy_;
    double model_bytes_ = 0.0;
    OracleModelConfig config_;
};

}  // namespace imx::core

#endif  // IMX_CORE_ORACLE_MODEL_HPP
