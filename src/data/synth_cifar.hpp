// SynthCIFAR: a procedurally generated stand-in for CIFAR-10.
//
// The paper trains its multi-exit LeNet on CIFAR-10; shipping or training on
// the real dataset is out of scope for this offline reproduction (see the
// substitution rationale in core/accuracy_model.hpp), so this module
// synthesizes a 10-class 3x32x32 image distribution with the properties a
// trained multi-exit network needs:
//   - classes are separable by a *hierarchy* of cues: coarse cues (dominant
//     color) that a shallow exit can learn, plus fine cues (texture
//     frequency/orientation, shape) that need deeper features — so early
//     exits plateau below deep exits, as on CIFAR-10;
//   - difficulty is controllable (noise_level, cue_strength), letting tests
//     reproduce the "hard inputs benefit from incremental inference" effect.
//
// No experiment reads it: every figure takes its exit accuracies from the
// calibrated AccuracyModel.
#ifndef IMX_DATA_SYNTH_CIFAR_HPP
#define IMX_DATA_SYNTH_CIFAR_HPP

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace imx::data {

/// A labeled image set.
struct Dataset {
    std::vector<nn::Tensor> images;  // each 3x32x32, values in [0, 1]
    std::vector<int> labels;         // in [0, num_classes)
    int num_classes = 10;

    [[nodiscard]] std::size_t size() const { return images.size(); }
};

/// Generation knobs.
struct SynthCifarConfig {
    int num_samples = 1000;
    int num_classes = 10;
    int height = 32;
    int width = 32;
    double noise_level = 0.18;   ///< additive Gaussian sigma
    double cue_strength = 1.0;   ///< scales class-discriminative signal
    std::uint64_t seed = 42;
};

/// Generate a deterministic dataset from the config seed.
Dataset make_synth_cifar(const SynthCifarConfig& config);

/// Split into train/test by deterministic shuffle (test_fraction of samples
/// go to the second dataset).
std::pair<Dataset, Dataset> split(const Dataset& dataset, double test_fraction,
                                  std::uint64_t seed);

/// Replace each label with a uniformly random wrong one with probability p
/// (used to test robustness of accuracy estimation).
void inject_label_noise(Dataset& dataset, double p, std::uint64_t seed);

}  // namespace imx::data

#endif  // IMX_DATA_SYNTH_CIFAR_HPP
