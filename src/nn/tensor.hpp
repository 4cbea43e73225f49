// Dense row-major float tensor: [features] activations (single sample) and
// [out, in] linear weights; the 3-D and 4-D accessors cover CHW images and
// [out, in, k, k] conv weights.
//
// The tensors in this project hold the DDPG agents' small MLPs, so the
// tensor type favours simplicity and debuggability over BLAS-grade speed:
// contiguous std::vector storage, explicit index helpers, contract-checked
// access in every build.
#ifndef IMX_NN_TENSOR_HPP
#define IMX_NN_TENSOR_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace imx::nn {

/// Shape of a tensor; up to 4 dimensions are used in this project.
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
    static Tensor full(Shape shape, float value);
    /// Kaiming-uniform init for weights feeding ReLU units.
    static Tensor kaiming_uniform(Shape shape, int fan_in, util::Rng& rng);

    [[nodiscard]] const Shape& shape() const { return shape_; }
    [[nodiscard]] int rank() const { return static_cast<int>(shape_.size()); }
    [[nodiscard]] int dim(int i) const {
        IMX_EXPECTS(i >= 0 && i < rank());
        return shape_[static_cast<std::size_t>(i)];
    }
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

    /// 3-D (C,H,W) accessors.
    float& at(int c, int h, int w) { return data_[idx3(c, h, w)]; }
    [[nodiscard]] float at(int c, int h, int w) const { return data_[idx3(c, h, w)]; }

    /// 4-D (n,c,h,w) accessors (conv weights).
    float& at(int n, int c, int h, int w) { return data_[idx4(n, c, h, w)]; }
    [[nodiscard]] float at(int n, int c, int h, int w) const {
        return data_[idx4(n, c, h, w)];
    }

    /// 2-D (r,c) accessors (linear weights).
    float& at2(int r, int c) { return data_[idx2(r, c)]; }
    [[nodiscard]] float at2(int r, int c) const { return data_[idx2(r, c)]; }

    void fill(float value) { data_.assign(data_.size(), value); }

    /// Reinterpret with a new shape of equal element count.
    [[nodiscard]] Tensor reshaped(Shape new_shape) const;

    /// Elementwise in-place operations used by optimizers.
    void add_scaled(const Tensor& other, float scale);
    void scale(float factor);

    [[nodiscard]] float l2_norm() const;
    [[nodiscard]] float abs_max() const;

private:
    [[nodiscard]] std::size_t idx2(int r, int c) const {
        IMX_EXPECTS(rank() == 2);
        IMX_EXPECTS(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
        return static_cast<std::size_t>(r) * static_cast<std::size_t>(shape_[1]) +
               static_cast<std::size_t>(c);
    }
    [[nodiscard]] std::size_t idx3(int c, int h, int w) const {
        IMX_EXPECTS(rank() == 3);
        IMX_EXPECTS(c >= 0 && c < shape_[0] && h >= 0 && h < shape_[1] && w >= 0 &&
                    w < shape_[2]);
        return (static_cast<std::size_t>(c) * static_cast<std::size_t>(shape_[1]) +
                static_cast<std::size_t>(h)) *
                   static_cast<std::size_t>(shape_[2]) +
               static_cast<std::size_t>(w);
    }
    [[nodiscard]] std::size_t idx4(int n, int c, int h, int w) const {
        IMX_EXPECTS(rank() == 4);
        IMX_EXPECTS(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] &&
                    h >= 0 && h < shape_[2] && w >= 0 && w < shape_[3]);
        return ((static_cast<std::size_t>(n) * static_cast<std::size_t>(shape_[1]) +
                 static_cast<std::size_t>(c)) *
                    static_cast<std::size_t>(shape_[2]) +
                static_cast<std::size_t>(h)) *
                   static_cast<std::size_t>(shape_[3]) +
               static_cast<std::size_t>(w);
    }

    Shape shape_;
    std::vector<float> data_;
};

}  // namespace imx::nn

#endif  // IMX_NN_TENSOR_HPP
