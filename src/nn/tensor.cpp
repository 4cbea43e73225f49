#include "nn/tensor.hpp"

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

}  // namespace imx::nn
