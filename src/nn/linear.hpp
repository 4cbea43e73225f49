// Fully-connected layer with backward pass.
#ifndef IMX_NN_LINEAR_HPP
#define IMX_NN_LINEAR_HPP

#include <vector>

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace imx::nn {

class Linear final : public Layer {
public:
    Linear(int in_features, int out_features, util::Rng& rng);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
    std::vector<Tensor*> gradients() override { return {&grad_weight_, &grad_bias_}; }

    [[nodiscard]] int in_features() const { return in_features_; }
    [[nodiscard]] int out_features() const { return out_features_; }
    [[nodiscard]] Tensor& weight() { return weight_; }
    [[nodiscard]] const Tensor& weight() const { return weight_; }
    [[nodiscard]] Tensor& bias() { return bias_; }
    [[nodiscard]] const Tensor& bias() const { return bias_; }
    [[nodiscard]] Tensor& grad_weight() { return grad_weight_; }
    [[nodiscard]] Tensor& grad_bias() { return grad_bias_; }

private:
    int in_features_;
    int out_features_;
    Tensor weight_;  // [out, in]
    Tensor bias_;    // [out]
    Tensor grad_weight_;
    Tensor grad_bias_;
    Tensor cached_input_;
};

}  // namespace imx::nn

#endif  // IMX_NN_LINEAR_HPP
