// Per-kernel invocation and MAC counters (Stateful-CNN `counters.*` style):
// every dispatched kernel call bumps an atomic tally, so benches and tests
// can prove which backend ran and how much arithmetic it performed without
// instrumenting call sites. Counters are process-global and thread-safe
// (relaxed atomics — totals are exact, ordering between kernels is not
// observable); the cost is one atomic add per kernel *call*, never per
// element, so the hot loops stay unaffected.
#ifndef IMX_NN_KERNELS_COUNTERS_HPP
#define IMX_NN_KERNELS_COUNTERS_HPP

#include <cstdint>
#include <string>

namespace imx::nn::kernels {

/// Snapshot of the per-kernel tallies since process start (or the last
/// counters_reset()). `*_calls` counts dispatched invocations, `*_macs`
/// the multiply-accumulates those calls performed (elements for bias_act
/// and lanes for adam, which do no MACs).
struct KernelCounters {
    std::uint64_t gemm_calls = 0;
    std::uint64_t gemm_macs = 0;
    std::uint64_t bias_act_calls = 0;
    std::uint64_t bias_act_elems = 0;
    std::uint64_t adam_calls = 0;
    std::uint64_t adam_lanes = 0;
};

/// Current totals.
[[nodiscard]] KernelCounters counters_snapshot();

/// Zero every tally (benches call this between variants).
void counters_reset();

/// Human-readable multi-line report of a snapshot, for bench output.
[[nodiscard]] std::string counters_report(const KernelCounters& c);

namespace detail {
/// Internal: bump one kernel's tallies (called by the dispatch layer).
void count_gemm(std::uint64_t macs);
void count_bias_act(std::uint64_t elems);
void count_adam(std::uint64_t lanes);
}  // namespace detail

}  // namespace imx::nn::kernels

#endif  // IMX_NN_KERNELS_COUNTERS_HPP
