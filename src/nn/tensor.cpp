#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>

namespace imx::nn {

std::int64_t shape_numel(const Shape& shape) {
    std::int64_t n = 1;
    for (const int d : shape) {
        IMX_EXPECTS(d >= 0);
        n *= d;
    }
    return shape.empty() ? 0 : n;
}

Tensor Tensor::full(Shape shape, float value) {
    Tensor t(std::move(shape));
    t.fill(value);
    return t;
}

Tensor Tensor::kaiming_uniform(Shape shape, int fan_in, util::Rng& rng) {
    IMX_EXPECTS(fan_in > 0);
    Tensor t(std::move(shape));
    const float bound =
        std::sqrt(6.0F / static_cast<float>(fan_in));  // gain sqrt(2), uniform
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<float>(rng.uniform(-bound, bound));
    }
    return t;
}

Tensor Tensor::reshaped(Shape new_shape) const {
    IMX_EXPECTS(shape_numel(new_shape) == numel());
    return Tensor(std::move(new_shape), data_);
}

void Tensor::add_scaled(const Tensor& other, float scale_factor) {
    IMX_EXPECTS(other.numel() == numel());
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] += scale_factor * other.data_[i];
    }
}

void Tensor::scale(float factor) {
    for (float& v : data_) v *= factor;
}

float Tensor::l2_norm() const {
    double sum = 0.0;
    for (const float v : data_) sum += static_cast<double>(v) * v;
    return static_cast<float>(std::sqrt(sum));
}

float Tensor::abs_max() const {
    float m = 0.0F;
    for (const float v : data_) m = std::max(m, std::fabs(v));
    return m;
}

}  // namespace imx::nn
