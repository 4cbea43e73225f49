#include "nn/kernels/counters.hpp"

#include <atomic>
#include <sstream>

namespace imx::nn::kernels {

namespace {

struct AtomicCounters {
    std::atomic<std::uint64_t> gemm_calls{0};
    std::atomic<std::uint64_t> gemm_macs{0};
    std::atomic<std::uint64_t> bias_act_calls{0};
    std::atomic<std::uint64_t> bias_act_elems{0};
    std::atomic<std::uint64_t> adam_calls{0};
    std::atomic<std::uint64_t> adam_lanes{0};
};

AtomicCounters& counters() {
    static AtomicCounters instance;
    return instance;
}

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

KernelCounters counters_snapshot() {
    AtomicCounters& c = counters();
    KernelCounters out;
    out.gemm_calls = c.gemm_calls.load(kRelaxed);
    out.gemm_macs = c.gemm_macs.load(kRelaxed);
    out.bias_act_calls = c.bias_act_calls.load(kRelaxed);
    out.bias_act_elems = c.bias_act_elems.load(kRelaxed);
    out.adam_calls = c.adam_calls.load(kRelaxed);
    out.adam_lanes = c.adam_lanes.load(kRelaxed);
    return out;
}

void counters_reset() {
    AtomicCounters& c = counters();
    c.gemm_calls.store(0, kRelaxed);
    c.gemm_macs.store(0, kRelaxed);
    c.bias_act_calls.store(0, kRelaxed);
    c.bias_act_elems.store(0, kRelaxed);
    c.adam_calls.store(0, kRelaxed);
    c.adam_lanes.store(0, kRelaxed);
}

std::string counters_report(const KernelCounters& c) {
    std::ostringstream out;
    out << "kernel counters:\n"
        << "  gemm:            " << c.gemm_calls << " call(s), " << c.gemm_macs
        << " MACs\n"
        << "  bias_act:        " << c.bias_act_calls << " call(s), "
        << c.bias_act_elems << " element(s)\n"
        << "  adam:            " << c.adam_calls << " call(s), "
        << c.adam_lanes << " lane(s)\n";
    return out.str();
}

namespace detail {

void count_gemm(std::uint64_t macs) {
    counters().gemm_calls.fetch_add(1, kRelaxed);
    counters().gemm_macs.fetch_add(macs, kRelaxed);
}

void count_bias_act(std::uint64_t elems) {
    counters().bias_act_calls.fetch_add(1, kRelaxed);
    counters().bias_act_elems.fetch_add(elems, kRelaxed);
}

void count_adam(std::uint64_t lanes) {
    counters().adam_calls.fetch_add(1, kRelaxed);
    counters().adam_lanes.fetch_add(lanes, kRelaxed);
}

}  // namespace detail

}  // namespace imx::nn::kernels
