/// \file
/// \brief Parallel sweep runner: fans ScenarioSpecs out over a fixed-size
/// thread pool and streams outcomes to a ResultSink in spec order.
///
/// Because every scenario is self-contained (own seed stream, own
/// model/policy instances) and the sink observes outcomes in strictly
/// increasing spec-index order (out-of-order completions are buffered), the
/// delivered stream — and anything folded over it in order, like the
/// aggregation layer — is bitwise identical for any thread count. The
/// vector-returning overload is a thin CollectSink wrapper.
#ifndef IMX_EXP_RUNNER_HPP
#define IMX_EXP_RUNNER_HPP

#include <vector>

#include "exp/scenario.hpp"
#include "exp/sink.hpp"
#include "sim/metrics.hpp"

namespace imx::exp {

/// What a profiled sweep measured (docs/profiling.md).
struct SweepProfile {
    /// Simulator work summed over every run of the sweep, Q-learning
    /// training episodes included.
    sim::SimCounters counters;
    /// Wall time of each executed scenario, s, in spec order.
    std::vector<double> scenario_s;
};

struct RunnerConfig {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    int threads = 0;
    /// When non-null, the runner times every scenario (two clock reads
    /// around its run function) and, after the sweep, appends the times and
    /// adds every workspace's simulator counters to it. Outcomes are the
    /// same either way.
    SweepProfile* profile = nullptr;
};

/// \brief Run every scenario in parallel, streaming outcomes to `sink`.
/// \param specs the expanded grid; each spec's run function must be set.
/// \param sink receives every outcome in strictly increasing spec-index
///   order (serialized — the sink needs no locking), then finish() exactly
///   once on success. On failure the stream ends before the lowest failing
///   index and finish() is not called.
/// \param config worker-thread count (0 = all hardware threads).
/// \throws whatever the lowest-index failing scenario (or the sink) threw,
///   rethrown after all workers finish (deterministic error behaviour
///   regardless of scheduling).
void run_sweep(const std::vector<ScenarioSpec>& specs, ResultSink& sink,
               const RunnerConfig& config = {});

/// \brief Run every scenario in parallel and collect the outcomes.
/// \return outcomes such that results[i] corresponds to specs[i] —
///   equivalent to streaming into a CollectSink, bitwise.
std::vector<ScenarioOutcome> run_sweep(const std::vector<ScenarioSpec>& specs,
                                       const RunnerConfig& config = {});

}  // namespace imx::exp

#endif  // IMX_EXP_RUNNER_HPP
