// Linear quantization (paper Eq. 3) and integer reference kernels.
//
// Weights: symmetric signed quantization, w' = clamp(round(w/s), -2^{k-1},
// 2^{k-1}-1) * s, with the scale s chosen to minimize ||w' - w||_2 (searched
// over a bracket around abs-max scaling, as in HAQ-style linear quantizers).
// Activations: asymmetric non-negative (post-ReLU), range [0, 2^k - 1].
//
// The integer kernels mirror what an MCU fixed-point implementation executes
// (int8/int16 operands, int32 accumulators) and are tested against the float
// path to bound the simulation error of the fake-quant pipeline.
//
// No experiment calls this module: every figure reads its exit accuracies
// from the calibrated AccuracyModel (core/accuracy_model.hpp). It is the
// numeric half of Eq. 3, kept with its tests for real fine-tuning.
#ifndef IMX_NN_QUANTIZE_HPP
#define IMX_NN_QUANTIZE_HPP

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace imx::nn {

/// Result of quantizing a tensor: the dequantized ("fake-quant") values plus
/// the chosen scale and integer codes.
struct QuantResult {
    double scale = 1.0;
    std::vector<std::int32_t> codes;
    double mse = 0.0;  // mean squared quantization error
};

/// Quantize weights symmetrically to `bits` (1..16). bits == 1 degenerates to
/// binary {-s, 0(+s)} codes {-1, 0}; with the paper's clamp convention the
/// representable set for k=1 is {-1, 0} * s.
QuantResult quantize_weights(const Tensor& weights, int bits);

/// Apply fake quantization in place (weights become representable values).
void fake_quantize_weights(Tensor& weights, int bits);

/// Quantize non-negative activations to `bits` with range [0, 2^k - 1].
QuantResult quantize_activations(const Tensor& activations, int bits);

/// Apply fake quantization in place for activations.
void fake_quantize_activations(Tensor& activations, int bits);

/// Optimal-scale search: minimizes ||dequant(q(w,s)) - w||^2 over s in a
/// geometric bracket around abs_max / qmax. Exposed for testing.
double search_weight_scale(const std::vector<float>& values, int bits);

/// Integer convolution reference: int32 accumulation of quantized operands.
/// Stride 1, square zero `padding`, [out,in,k,k] weights, CHW activations.
/// Returns the float output reconstructed via (w_scale * a_scale).
Tensor int_conv2d_reference(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, int padding, int weight_bits,
                            int activation_bits);

/// Integer fully-connected reference, same contract as int_conv2d_reference.
Tensor int_linear_reference(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, int weight_bits,
                            int activation_bits);

/// Fake-quantizes (non-negative, post-ReLU) activations during forward;
/// straight-through gradient in backward. bits >= 32 is a pass-through.
class ActQuant final : public Layer {
public:
    explicit ActQuant(int bits = 32) : bits_(bits) {}

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;

    void set_bits(int bits) { bits_ = bits; }
    [[nodiscard]] int bits() const { return bits_; }

private:
    int bits_;
};

}  // namespace imx::nn

#endif  // IMX_NN_QUANTIZE_HPP
