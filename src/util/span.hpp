/// \file
/// \brief Minimal non-owning view over a contiguous sequence — the C++17
/// stand-in for std::span (the repo pins CMAKE_CXX_STANDARD 17).
///
/// `Simulator::run` and the exp hot path take `Span<const Event>` instead
/// of `const std::vector<Event>&` so arena-backed buffers, sub-ranges, and
/// plain arrays flow through without copies. Implicit construction from
/// std::vector keeps every historical call site compiling unchanged.
#ifndef IMX_UTIL_SPAN_HPP
#define IMX_UTIL_SPAN_HPP

#include <cstddef>
#include <type_traits>
#include <vector>

#include "util/contracts.hpp"

namespace imx::util {

template <typename T>
class Span {
public:
    constexpr Span() noexcept = default;
    constexpr Span(T* data, std::size_t size) noexcept
        : data_(data), size_(size) {}

    /// Implicit view over a vector (the dominant call-site shape).
    // NOLINTNEXTLINE(google-explicit-constructor)
    Span(std::vector<std::remove_const_t<T>>& v) noexcept
        : data_(v.data()), size_(v.size()) {}

    /// Implicit view over a const vector — enabled only for Span<const T>.
    template <typename U = T,
              typename = std::enable_if_t<std::is_const_v<U>>>
    // NOLINTNEXTLINE(google-explicit-constructor)
    Span(const std::vector<std::remove_const_t<T>>& v) noexcept
        : data_(v.data()), size_(v.size()) {}

    [[nodiscard]] constexpr T* data() const noexcept { return data_; }
    [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
    [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }

    [[nodiscard]] T& operator[](std::size_t i) const {
        IMX_ASSERT(i < size_);
        return data_[i];
    }

    [[nodiscard]] constexpr T* begin() const noexcept { return data_; }
    [[nodiscard]] constexpr T* end() const noexcept { return data_ + size_; }

    [[nodiscard]] T& front() const {
        IMX_ASSERT(size_ > 0);
        return data_[0];
    }
    [[nodiscard]] T& back() const {
        IMX_ASSERT(size_ > 0);
        return data_[size_ - 1];
    }

private:
    T* data_ = nullptr;
    std::size_t size_ = 0;
};

}  // namespace imx::util

#endif  // IMX_UTIL_SPAN_HPP
