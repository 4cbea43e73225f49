// Dense row-major float tensor: the [out, in] weights and [out] biases of
// the DDPG agents' small MLPs (rl::Mlp), their gradients and Adam moments.
//
// The tensor type favours simplicity and debuggability over BLAS-grade
// speed: contiguous std::vector storage and contract-checked flat access
// in every build. The hot loops run on raw pointers (data()).
#ifndef IMX_NN_TENSOR_HPP
#define IMX_NN_TENSOR_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace imx::nn {

/// Shape of a tensor; up to 2 dimensions are used in this project.
using Shape = std::vector<int>;

/// Number of elements a shape describes.
std::int64_t shape_numel(const Shape& shape);

class Tensor {
public:
    Tensor() = default;

    explicit Tensor(Shape shape) : shape_(std::move(shape)) {
        data_.assign(static_cast<std::size_t>(shape_numel(shape_)), 0.0F);
    }

    Tensor(Shape shape, std::vector<float> data)
        : shape_(std::move(shape)), data_(std::move(data)) {
        IMX_EXPECTS(static_cast<std::int64_t>(data_.size()) == shape_numel(shape_));
    }

    static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
    /// Kaiming-uniform init for weights feeding ReLU units.
    static Tensor kaiming_uniform(Shape shape, int fan_in, util::Rng& rng);

    [[nodiscard]] const Shape& shape() const { return shape_; }
    [[nodiscard]] std::int64_t numel() const {
        return static_cast<std::int64_t>(data_.size());
    }
    [[nodiscard]] bool empty() const { return data_.empty(); }

    [[nodiscard]] float* data() { return data_.data(); }
    [[nodiscard]] const float* data() const { return data_.data(); }
    [[nodiscard]] std::vector<float>& storage() { return data_; }
    [[nodiscard]] const std::vector<float>& storage() const { return data_; }

    float& operator[](std::int64_t i) {
        IMX_EXPECTS(i >= 0 && i < numel());
        return data_[static_cast<std::size_t>(i)];
    }
    float operator[](std::int64_t i) const {
        IMX_EXPECTS(i >= 0 && i < numel());
        return data_[static_cast<std::size_t>(i)];
    }

    void fill(float value) { data_.assign(data_.size(), value); }

private:
    Shape shape_;
    std::vector<float> data_;
};

}  // namespace imx::nn

#endif  // IMX_NN_TENSOR_HPP
