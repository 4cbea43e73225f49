// Calibrated per-exit accuracy oracle: maps a compression policy to the
// accuracy of every exit (paper Eq. 6).
//
// Substitution rationale (docs/reproducing-figures.md, Calibration): the
// paper obtains Acc_i by fine-tuning the compressed network on CIFAR-10
// (hours of GPU time per candidate would be needed to reproduce the raw
// number). The search and runtime algorithms only consume the *map*
// policy -> accuracy, so we model it analytically:
//
//   Acc_i = chance + (base_i - chance) * prod_{l in path(i)}
//             (1 - sp_l (1-alpha_l)^1.5) (1 - sq_l q(bw_l)) (1 - sa_l q(ba_l))
//
// with q(b) = (2^(1-b) - 2^-7) / (1 - 2^-7)  (q(8)=0, q(1)=1),
// layer sensitivities decaying with depth (early layers/exits are the most
// fragile, the paper's central observation in Fig. 1b), and FC layers far
// more quantization-tolerant than convolutions (why Fig. 4 binarizes
// FC-B21/FC-B31). The free parameters are fitted at construction against the
// paper's six Fig. 1b anchor accuracies (uniform + nonuniform x 3 exits)
// with base accuracies pinned to the full-precision anchors.
#ifndef IMX_CORE_ACCURACY_MODEL_HPP
#define IMX_CORE_ACCURACY_MODEL_HPP

#include <array>
#include <string>
#include <vector>

#include "compress/network_desc.hpp"

namespace imx::core {

/// Calibration knobs (fitted by AccuracyModel unless provided explicitly).
struct SensitivityParams {
    double prune_base = 0.30;     ///< sp of the shallowest layer
    double prune_decay = 1.2;     ///< exp decay of sp with depth rank
    double quant_base = 0.05;     ///< sq of the shallowest conv
    double quant_decay = 1.0;     ///< exp decay of sq with depth rank
    double fc_quant_factor = 0.15;  ///< sq multiplier for FC layers
    double act_factor = 0.25;     ///< sa = act_factor * sq
    double prune_exponent = 1.5;
    /// Capacity collapse: below this preserve ratio a layer stops carrying
    /// its features and accuracy falls toward chance regardless of the rest
    /// of the policy (sigmoid knee, inactive above alpha = 0.55; not fitted —
    /// it encodes the qualitative fact that alpha -> 0.05 destroys a layer,
    /// keeping the search honest).
    double prune_knee = 0.18;
    double prune_knee_width = 0.045;
};

class AccuracyModel {
public:
    /// Calibrates against the paper anchors for the given network.
    /// `depth_rank` gives each layer a position in [0,1] (0 = shallowest);
    /// pass empty to use the built-in ranks of the 11-layer paper family.
    AccuracyModel(const compress::NetworkDesc& desc,
                  std::vector<double> base_accuracy_percent,
                  std::vector<double> depth_rank = {});

    /// Bypass calibration (tests / what-if studies).
    AccuracyModel(const compress::NetworkDesc& desc,
                  std::vector<double> base_accuracy_percent,
                  std::vector<double> depth_rank,
                  const SensitivityParams& params);

    /// Accuracy (%) of each exit under the policy.
    [[nodiscard]] std::vector<double> exit_accuracy(
        const compress::Policy& policy) const;

    /// Accuracy (%) of a single exit.
    [[nodiscard]] double accuracy(const compress::Policy& policy,
                                  int exit) const;

    [[nodiscard]] const SensitivityParams& params() const { return params_; }
    [[nodiscard]] const compress::NetworkDesc& network() const { return *desc_; }
    [[nodiscard]] double chance_accuracy() const { return chance_; }

    /// Residual of the calibration fit (mean |error| in percentage points
    /// over the six anchors); exposed so tests can assert fit quality.
    [[nodiscard]] double calibration_residual() const { return residual_; }

private:
    void calibrate();
    [[nodiscard]] double survival(const compress::Policy& policy, int exit,
                                  const SensitivityParams& p) const;
    /// Exact (bit-level) encoding of every input calibrate() depends on;
    /// identical keys guarantee identical fitted params.
    [[nodiscard]] std::string calibration_key() const;

    const compress::NetworkDesc* desc_;
    std::vector<double> base_;
    std::vector<double> depth_rank_;
    double chance_ = 10.0;  // 10-class chance level, %
    SensitivityParams params_{};
    double residual_ = 0.0;
};

}  // namespace imx::core

#endif  // IMX_CORE_ACCURACY_MODEL_HPP
