// Parameter-free layers: ReLU, MaxPool2d, Flatten.
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
    explicit Relu(std::string name = "relu") : name_(std::move(name)) {}

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] Shape output_shape(const Shape& input_shape) const override {
        return input_shape;
    }
    [[nodiscard]] std::int64_t macs(const Shape&) const override { return 0; }
    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] LayerPtr clone() const override {
        return std::make_unique<Relu>(name_);
    }

private:
    std::string name_;
    std::vector<bool> mask_;
};

/// Max pooling with square kernel and equal stride; floor output size
/// (odd trailing rows/columns are dropped, matching common MCU kernels).
class MaxPool2d final : public Layer {
public:
    explicit MaxPool2d(int kernel = 2, std::string name = "pool")
        : kernel_(kernel), name_(std::move(name)) {
        IMX_EXPECTS(kernel >= 1);
    }

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] Shape output_shape(const Shape& input_shape) const override;
    [[nodiscard]] std::int64_t macs(const Shape&) const override { return 0; }
    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] LayerPtr clone() const override {
        return std::make_unique<MaxPool2d>(kernel_, name_);
    }
    [[nodiscard]] int kernel() const { return kernel_; }

private:
    int kernel_;
    std::string name_;
    Shape cached_input_shape_;
    std::vector<std::int64_t> argmax_;  // flat input index per output element
};

class Tanh final : public Layer {
public:
    explicit Tanh(std::string name = "tanh") : name_(std::move(name)) {}

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] Shape output_shape(const Shape& input_shape) const override {
        return input_shape;
    }
    [[nodiscard]] std::int64_t macs(const Shape&) const override { return 0; }
    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] LayerPtr clone() const override {
        return std::make_unique<Tanh>(name_);
    }

private:
    std::string name_;
    Tensor cached_output_;
};

class Sigmoid final : public Layer {
public:
    explicit Sigmoid(std::string name = "sigmoid") : name_(std::move(name)) {}

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] Shape output_shape(const Shape& input_shape) const override {
        return input_shape;
    }
    [[nodiscard]] std::int64_t macs(const Shape&) const override { return 0; }
    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] LayerPtr clone() const override {
        return std::make_unique<Sigmoid>(name_);
    }

private:
    std::string name_;
    Tensor cached_output_;
};

class Flatten final : public Layer {
public:
    explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] Shape output_shape(const Shape& input_shape) const override {
        return {static_cast<int>(shape_numel(input_shape))};
    }
    [[nodiscard]] std::int64_t macs(const Shape&) const override { return 0; }
    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] LayerPtr clone() const override {
        return std::make_unique<Flatten>(name_);
    }

private:
    std::string name_;
    Shape cached_input_shape_;
};

}  // namespace imx::nn

#endif  // IMX_NN_BASIC_LAYERS_HPP
