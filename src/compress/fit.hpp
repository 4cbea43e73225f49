// Constraint-fitting helpers: produce uniform policies that just satisfy the
// FLOPs and model-size targets (the "uniform compression" baseline of
// Fig. 1b, against which the nonuniform search is compared).
#ifndef IMX_COMPRESS_FIT_HPP
#define IMX_COMPRESS_FIT_HPP

#include "compress/network_desc.hpp"
#include "compress/policy.hpp"

namespace imx::compress {

/// Constraint set of paper Eq. 8. The FLOPs bound applies to the network's
/// distinct-layer total (each layer counted once); the paper's own deployed
/// policy (Fig. 6) is infeasible under the sum-over-exits reading, so the
/// distinct-layer total is the consistent interpretation (see
/// docs/reproducing-figures.md, Calibration).
struct Constraints {
    double f_target_macs = 0.0;   ///< bound on total_macs
    double s_target_bytes = 0.0;  ///< bound on model_bytes
};

/// Whether a policy satisfies the constraints on the given network.
bool satisfies(const NetworkDesc& desc, const Policy& policy,
               const Constraints& constraints);

/// Largest uniform preserve ratio (0.05 grid) whose total MACs meet
/// f_target, combined with the largest uniform bitwidth in [1, 8] whose model
/// size then meets s_target. Throws if even the most aggressive uniform
/// policy cannot satisfy the constraints.
Policy make_uniform_for_targets(const NetworkDesc& desc,
                                const Constraints& constraints,
                                int activation_bits = 8);

}  // namespace imx::compress

#endif  // IMX_COMPRESS_FIT_HPP
