// Fast trace-aware policy evaluator used inside the compression search
// reward (paper Eq. 4-8 and Eq. 10).
//
// Evaluates a candidate compression policy under the EH power trace and
// event distribution with the *static* exit-selection rule the paper uses
// during compression: pick the deepest exit whose energy cost fits the
// currently buffered energy. Purely energetic (no busy-time modeling): this
// mirrors the paper's Eq. 5 formulation and keeps one evaluation at a few
// microseconds so the DDPG search can afford thousands of episodes. The full
// discrete-event simulator (sim/) is used for the runtime-phase experiments.
#ifndef IMX_CORE_TRACE_EVAL_HPP
#define IMX_CORE_TRACE_EVAL_HPP

#include <cstdint>
#include <vector>

#include "energy/power_trace.hpp"
#include "energy/storage.hpp"
#include "sim/event_gen.hpp"

namespace imx::core {

struct TraceEvalResult {
    /// Expected accuracy over all events in [0,1]; missed events score 0.
    /// Equals Racc = sum_i p_i * Acc_i of paper Eq. 10 with p_i measured
    /// over all N events.
    double avg_accuracy_all = 0.0;
    /// p_i: fraction of all events that exited at exit i.
    std::vector<double> exit_probability;
    int processed = 0;
    int missed = 0;
};

class StaticTraceEvaluator {
public:
    StaticTraceEvaluator(const energy::PowerTrace& trace,
                         const std::vector<sim::Event>& events,
                         const energy::StorageConfig& storage,
                         double energy_per_mmac_mj);

    /// Evaluate a deployed configuration given per-exit MACs and accuracies
    /// (accuracy in percent). Vectors must have equal length m >= 1.
    [[nodiscard]] TraceEvalResult evaluate(
        const std::vector<std::int64_t>& exit_macs,
        const std::vector<double>& exit_accuracy_percent) const;

    [[nodiscard]] double total_harvestable_mj() const;

private:
    // Net storable energy between consecutive events (after converter
    // efficiency and leakage), precomputed once.
    std::vector<double> inter_event_energy_mj_;
    energy::StorageConfig storage_;
    double energy_per_mmac_mj_;
};

}  // namespace imx::core

#endif  // IMX_CORE_TRACE_EVAL_HPP
