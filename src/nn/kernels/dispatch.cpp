#include "nn/kernels/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

namespace imx::nn::kernels {

namespace {

/// The resolved env / forced selection, as its Backend value, or kUnresolved.
/// Every kernel call reads it; only resolution, force_backend and
/// clear_backend_override write it, under g_mutex.
constexpr int kUnresolved = -1;
std::atomic<int> g_active{kUnresolved};
std::mutex g_mutex;

}  // namespace

const char* to_string(Backend backend) {
    return backend == Backend::kScalar ? "scalar" : "avx2";
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

Backend parse_backend(const std::string& name) {
    if (name == "scalar") return Backend::kScalar;
    if (name == "avx2") return Backend::kAvx2;
    throw std::runtime_error(
        "IMX_KERNEL: unknown kernel backend \"" + name +
        "\" (valid: scalar, avx2)");
}

namespace {

/// Shared hard-error gate for every way of selecting avx2.
void require_avx2_honorable() {
    if (!avx2_kernels_compiled()) {
        throw std::runtime_error(
            "IMX_KERNEL=avx2: this binary was built without AVX2 kernels");
    }
    if (!cpu_supports_avx2()) {
        throw std::runtime_error(
            "IMX_KERNEL=avx2: this CPU does not support AVX2");
    }
}

}  // namespace

std::optional<Backend> env_forced_backend() {
    const char* env = std::getenv("IMX_KERNEL");
    if (env == nullptr || *env == '\0') return std::nullopt;
    return parse_backend(env);
}

Backend resolve_backend_from_env() {
    const std::optional<Backend> forced = env_forced_backend();
    if (forced.has_value()) {
        if (*forced == Backend::kAvx2) require_avx2_honorable();
        return *forced;
    }
    return avx2_kernels_compiled() && cpu_supports_avx2() ? Backend::kAvx2
                                                          : Backend::kScalar;
}

Backend active_backend() {
    const int active = g_active.load(std::memory_order_acquire);
    if (active != kUnresolved) return static_cast<Backend>(active);
    const std::lock_guard<std::mutex> lock(g_mutex);
    if (g_active.load(std::memory_order_relaxed) == kUnresolved) {
        g_active.store(static_cast<int>(resolve_backend_from_env()),
                       std::memory_order_release);
    }
    return static_cast<Backend>(g_active.load(std::memory_order_relaxed));
}

void force_backend(Backend backend) {
    if (backend == Backend::kAvx2) require_avx2_honorable();
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_active.store(static_cast<int>(backend), std::memory_order_release);
}

void clear_backend_override() {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_active.store(kUnresolved, std::memory_order_release);
}

}  // namespace imx::nn::kernels
