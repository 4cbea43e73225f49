// The paper's network (Sec. V-A): LeNet extended to four convolutional
// layers with two early exits, for 3x32x32 inputs and 10 classes. Layer
// names match Fig. 4: Conv1, ConvB1, Conv2, ConvB2, Conv3, Conv4, FC-B1,
// FC-B21, FC-B22, FC-B31, FC-B32.
//
// This header describes the network analytically: a compress::NetworkDesc
// whose per-exit MAC counts match the paper's 0.4452M / 1.2602M / 1.6202M
// within ~1 % (see docs/reproducing-figures.md, Calibration).
#ifndef IMX_CORE_MULTI_EXIT_SPEC_HPP
#define IMX_CORE_MULTI_EXIT_SPEC_HPP

#include <array>
#include <cstdint>

#include "compress/fit.hpp"
#include "compress/network_desc.hpp"

namespace imx::core {

/// Paper constants.
constexpr double kEnergyPerMMacMj = 1.5;            ///< 1.5 mJ per MFLOP
constexpr double kFlopsTargetMacs = 1.15e6;         ///< Fig. 4 constraint
constexpr double kSizeTargetBytes = 16.0 * 1024.0;  ///< Fig. 4 constraint
constexpr int kNumExits = 3;

/// Paper-reported per-exit FLOPs of the uncompressed network.
constexpr std::array<double, 3> kPaperExitMacs = {0.4452e6, 1.2602e6, 1.6202e6};

/// Paper-reported full-precision per-exit accuracy (%).
constexpr std::array<double, 3> kPaperFullPrecisionAcc = {64.9, 72.0, 73.0};

/// Paper-reported per-exit accuracy after *uniform* compression (%), Fig. 1b.
constexpr std::array<double, 3> kPaperUniformAcc = {57.3, 65.2, 67.5};

/// Paper-reported per-exit accuracy after nonuniform compression (%), Fig. 1b.
constexpr std::array<double, 3> kPaperNonuniformAcc = {61.9, 68.5, 69.9};

/// Analytic layer/junction table of the paper network.
compress::NetworkDesc make_paper_network_desc();

/// Paper constraint set (Fmodel on total network MACs, Starget on weights).
compress::Constraints paper_constraints();

/// A Fig. 4-shaped reference nonuniform policy: convolutions kept at 8-bit
/// and pruned progressively harder with depth; the two large FC layers
/// (FC-B21, FC-B31) binarized. Satisfies paper_constraints(); used as the
/// calibration anchor for the accuracy oracle and as a deterministic
/// "deployed" policy for benches that do not re-run the search.
compress::Policy reference_nonuniform_policy();

/// The uniform baseline implied by the constraints (Fig. 1b "uniform").
compress::Policy uniform_baseline_policy();

}  // namespace imx::core

#endif  // IMX_CORE_MULTI_EXIT_SPEC_HPP
