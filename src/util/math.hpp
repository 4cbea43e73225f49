// Small numeric helpers shared across the library: clamping and a stable
// logistic sigmoid.
#ifndef IMX_UTIL_MATH_HPP
#define IMX_UTIL_MATH_HPP

#include <cmath>

namespace imx::util {

/// Clamp x into [lo, hi].
template <typename T>
constexpr T clamp(T x, T lo, T hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}

/// Numerically stable logistic sigmoid.
inline double sigmoid(double x) {
    if (x >= 0.0) {
        const double z = std::exp(-x);
        return 1.0 / (1.0 + z);
    }
    const double z = std::exp(x);
    return z / (1.0 + z);
}

}  // namespace imx::util

#endif  // IMX_UTIL_MATH_HPP
