// Parameter-free layers: ReLU, Sigmoid.
#ifndef IMX_NN_BASIC_LAYERS_HPP
#define IMX_NN_BASIC_LAYERS_HPP

#include <cmath>
#include <vector>

#include "nn/layer.hpp"

namespace imx::nn {

/// The logistic function as Sigmoid computes it, split by sign so neither
/// branch overflows exp(). Shared with rl::Mlp's minibatch path.
inline float sigmoid(float x) {
    return x >= 0.0F ? 1.0F / (1.0F + std::exp(-x))
                     : std::exp(x) / (1.0F + std::exp(x));
}

class Relu final : public Layer {
public:
    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;

private:
    std::vector<bool> mask_;
};

class Sigmoid final : public Layer {
public:
    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;

private:
    Tensor cached_output_;
};

}  // namespace imx::nn

#endif  // IMX_NN_BASIC_LAYERS_HPP
