// Per-event records and the paper's evaluation metrics (Eq. 1 IEpmJ,
// all-event / processed-event accuracy, per-event and per-inference latency,
// exit histograms).
#ifndef IMX_SIM_METRICS_HPP
#define IMX_SIM_METRICS_HPP

#include <cstdint>
#include <limits>
#include <vector>

namespace imx::sim {

/// Field order leaves no padding hole (56 bytes): a sweep that collects its
/// outcomes retains one record per event of every scenario.
struct EventRecord {
    int event_id = -1;
    int hops = 0;                   ///< 1 + number of incremental advances
    double arrival_time_s = 0.0;
    bool processed = false;
    bool correct = false;
    int exit_taken = -1;            ///< final exit index; -1 if missed
    double completion_time_s = 0.0; ///< when the result was produced
    double inference_start_s = 0.0; ///< when execution (not waiting) began
    double energy_spent_mj = 0.0;
    std::int64_t macs = 0;          ///< MACs actually executed
};

/// Work the simulator did in a run, counted as it happens (docs/profiling.md).
/// Always on: each count is one integer add, with no clock read. Outcomes
/// such as deaths, drops and wasted MACs stay in SimResult, not here.
struct SimCounters {
    std::uint64_t runs = 0;           ///< Simulator::run_into calls
    std::uint64_t full_steps = 0;     ///< steps through the full step body
    std::uint64_t drained_steps = 0;  ///< harvest-only steps of the drains
    std::uint64_t decisions = 0;      ///< select_exit + continue_inference
    std::uint64_t unit_starts = 0;    ///< execution units started
    std::uint64_t evaluations = 0;    ///< InferenceModel::evaluate calls
    std::uint64_t queue_pushes = 0;   ///< arrivals admitted to the queue
    std::uint64_t queue_pops = 0;     ///< requests taken off the queue head

    SimCounters& operator+=(const SimCounters& other) noexcept {
        runs += other.runs;
        full_steps += other.full_steps;
        drained_steps += other.drained_steps;
        decisions += other.decisions;
        unit_starts += other.unit_starts;
        evaluations += other.evaluations;
        queue_pushes += other.queue_pushes;
        queue_pops += other.queue_pops;
        return *this;
    }
};

/// What the scalar metrics read from a run's records, gathered in one pass
/// (SimResult::summary()). Every count and sum accumulates in record order,
/// so each formula below gives bit for bit what a walk of the records per
/// metric gives. The SimResult accessors and exp::sim_metrics() all read
/// these formulas.
struct SimSummary {
    int events = 0;
    int processed = 0;
    int correct = 0;  ///< processed and correct
    /// Processed within `deadline_s` of arrival (every processed event
    /// when the deadline is infinite).
    int on_time = 0;
    double event_latency_sum_s = 0.0;      ///< arrival -> result
    double inference_latency_sum_s = 0.0;  ///< execution start -> result
    double macs_sum = 0.0;                 ///< MACs of processed events
    double consumed_mj = 0.0;              ///< energy of all events
    double harvested_mj = 0.0;             ///< SimResult::total_harvested_mj
    double deadline_s = std::numeric_limits<double>::infinity();

    [[nodiscard]] int missed() const { return events - processed; }
    /// Paper Eq. 1: correctly processed interesting events per harvested
    /// mJ. \pre harvested_mj > 0.
    [[nodiscard]] double iepmj() const;
    /// Mean accuracy over all events (missed events count 0); 0 if none.
    [[nodiscard]] double accuracy_all_events() const;
    /// Mean accuracy over processed events; 0 if none.
    [[nodiscard]] double accuracy_processed() const;
    /// Means over processed events; 0 if none.
    [[nodiscard]] double mean_event_latency_s() const;
    [[nodiscard]] double mean_inference_latency_s() const;
    [[nodiscard]] double mean_inference_macs() const;
    /// Fraction of all events not produced within deadline_s of arrival;
    /// 0 with no events or an infinite deadline. \pre deadline_s > 0.
    [[nodiscard]] double deadline_miss_rate() const;
};

/// Exact nearest-rank (util::percentile()) per-event latency percentiles.
struct LatencyPercentiles {
    double p50_s = 0.0;
    double p95_s = 0.0;
    double p99_s = 0.0;
};

/// LatencyPercentiles of `latencies` (any order, as SimResult::summary()
/// collects them), selected in place rather than sorted: std::nth_element
/// places p99 over the whole sample, then p95 within the prefix below it,
/// then p50 within the prefix below that. Reorders `latencies`; all 0.0
/// for an empty sample.
[[nodiscard]] LatencyPercentiles select_latency_percentiles(
    std::vector<double>& latencies);

struct SimResult {
    std::vector<EventRecord> records;
    double total_harvested_mj = 0.0;  ///< gross EH energy over the run
    double duration_s = 0.0;
    /// Inference deadline the run was simulated under (copied from
    /// SimConfig::deadline_s); infinity when the scenario had no deadline.
    double deadline_s = std::numeric_limits<double>::infinity();
    /// Power failures (brown-outs below StorageConfig::death_threshold_mj or
    /// failed checkpoint commits) suffered mid-inference. Always 0 when the
    /// failure model is disabled (SimConfig::recovery.enabled == false).
    int deaths = 0;
    /// Energy spent purely on surviving failures: checkpoint commit writes
    /// plus restore costs at reboot, mJ. Not part of any event's
    /// energy_spent_mj — it is runtime overhead, not inference work.
    double recovery_energy_mj = 0.0;
    /// Forward progress thrown away by deaths: MACs of execution units whose
    /// results did not survive a failure and had to be recomputed.
    std::int64_t wasted_macs = 0;
    /// Arrivals rejected because the bounded request queue was full
    /// (SimConfig::queue_capacity). Always 0 when the run has no queue —
    /// arrivals lost while busy then count as plain misses, as they always
    /// have.
    int dropped = 0;
    /// Requests still waiting in the queue — plus the executing one, if any
    /// — when the trace ended. Like drops they produced no result, so
    /// missed_count() (= total - processed) includes them; the conservation
    /// law is total_events == processed_count() + missed_count() with
    /// missed_count() decomposing into dropped + in_flight + expired
    /// (deadline/energy losses, the only ones the policy's observe_missed()
    /// hook sees besides drops). tests/test_arrivals.cpp pins it.
    int in_flight = 0;
    /// The work this run did (runs == 1).
    SimCounters counters;

    [[nodiscard]] int total_events() const {
        return static_cast<int>(records.size());
    }
    /// The one pass over the records that every metric below reads, with
    /// on-time counted against `deadline` (the run's own by default).
    /// When `latencies` is non-null, the per-event latency (arrival ->
    /// result) of each processed event is appended to it in record order.
    /// Asserts completion >= arrival for every processed record.
    [[nodiscard]] SimSummary summary(
        std::vector<double>* latencies = nullptr) const {
        return summary(deadline_s, latencies);
    }
    [[nodiscard]] SimSummary summary(
        double deadline, std::vector<double>* latencies = nullptr) const;

    [[nodiscard]] int processed_count() const { return summary().processed; }
    [[nodiscard]] int missed_count() const { return summary().missed(); }
    [[nodiscard]] int correct_count() const { return summary().correct; }

    /// Paper Eq. 1: correctly processed interesting events per harvested mJ.
    [[nodiscard]] double iepmj() const { return summary().iepmj(); }

    /// Mean accuracy over all N events (missed events count 0).
    [[nodiscard]] double accuracy_all_events() const {
        return summary().accuracy_all_events();
    }

    /// Mean accuracy over processed events only.
    [[nodiscard]] double accuracy_processed() const {
        return summary().accuracy_processed();
    }

    /// Mean per-event latency (arrival -> result) over processed events, s.
    [[nodiscard]] double mean_event_latency_s() const {
        return summary().mean_event_latency_s();
    }

    /// Exact nearest-rank percentile of per-event latency (arrival ->
    /// result, i.e. queueing sojourn + execution) over processed events:
    /// q = 0.5 is the median, 0.95/0.99 the tail columns. 0.0 when no event
    /// was processed (mirrors mean_event_latency_s()).
    [[nodiscard]] double latency_percentile_s(double q) const;

    /// Mean per-inference latency (execution start -> result), s.
    [[nodiscard]] double mean_inference_latency_s() const {
        return summary().mean_inference_latency_s();
    }

    /// Mean executed MACs per processed event (the paper's per-inference
    /// latency proxy in Fig. 6).
    [[nodiscard]] double mean_inference_macs() const {
        return summary().mean_inference_macs();
    }

    /// Events that ended at each exit (length = num_exits).
    [[nodiscard]] std::vector<int> exit_histogram(int num_exits) const;

    /// Total energy consumed by inference, mJ.
    [[nodiscard]] double total_consumed_mj() const {
        return summary().consumed_mj;
    }

    /// Fraction of events (over all N) whose result was not produced within
    /// `deadline` seconds of arrival: processed-but-late events and events
    /// that produced no result at all both count as misses. An infinite
    /// deadline is never missed, so the rate is 0.0. Evaluating different
    /// thresholds on the same result is monotone: a tighter deadline can
    /// only raise the rate.
    [[nodiscard]] double deadline_miss_rate(double deadline) const {
        return summary(deadline).deadline_miss_rate();
    }

    /// deadline_miss_rate() at the deadline the run was simulated under.
    [[nodiscard]] double deadline_miss_rate() const {
        return summary().deadline_miss_rate();
    }

    /// Eq. 5 invariant: at no prefix of the event sequence does cumulative
    /// consumption exceed cumulative harvest plus the initial buffer.
    [[nodiscard]] bool energy_feasible(double initial_buffer_mj) const;
};

}  // namespace imx::sim

#endif  // IMX_SIM_METRICS_HPP
