/// \file
/// \brief Streaming result consumption for the sweep runner.
///
/// A ResultSink observes a sweep as it executes instead of waiting for a
/// fully materialized outcome vector — the enabling abstraction for
/// journaled shards, incremental aggregation, and grids too large to hold
/// in memory. run_sweep() delivers outcomes to the sink in strictly
/// increasing spec-index order (out-of-order completions are buffered in
/// their slots until the stream catches up), so every sink observes the
/// identical deterministic stream regardless of thread count — the same
/// contract the index-ordered outcome vector has always provided.
///
/// Delivery happens on worker threads but is serialized by the runner:
/// on_outcome()/finish() never run concurrently with themselves or each
/// other, so sinks need no locking of their own. The runner calls the sink
/// outside its slot lock, so a slow sink delays only the worker delivering
/// to it, not the workers finishing other scenarios — until it falls 16
/// outcomes per worker behind, when they wait for it to catch up. A sink
/// that throws aborts the stream: no further outcomes are delivered,
/// finish() is not called, and run_sweep rethrows the error after the pool
/// drains.
#ifndef IMX_EXP_SINK_HPP
#define IMX_EXP_SINK_HPP

#include <cstddef>
#include <vector>

#include "exp/scenario.hpp"

namespace imx::exp {

/// Streaming consumer of sweep outcomes (see file comment for the delivery
/// contract). Outcomes are passed by value so a sink can keep them without
/// a copy; `spec_index` is the index into the spec vector handed to
/// run_sweep().
class ResultSink {
public:
    virtual ~ResultSink() = default;
    /// One completed scenario. Called in strictly increasing spec_index
    /// order, starting at 0 with no gaps.
    virtual void on_outcome(std::size_t spec_index, ScenarioOutcome outcome) = 0;
    /// Called exactly once, after the last on_outcome() of a fully
    /// successful sweep. Not called when the sweep failed.
    virtual void finish() = 0;
};

/// The in-memory sink: collects outcomes into an index-addressed vector.
/// The vector-returning run_sweep() overload is a thin wrapper over this
/// sink.
class CollectSink final : public ResultSink {
public:
    /// \param expected pre-sizes the vector (the sweep's spec count).
    explicit CollectSink(std::size_t expected = 0);
    void on_outcome(std::size_t spec_index, ScenarioOutcome outcome) override;
    void finish() override;

    [[nodiscard]] bool finished() const { return finished_; }
    [[nodiscard]] const std::vector<ScenarioOutcome>& outcomes() const {
        return outcomes_;
    }
    /// Move the collected outcomes out (invalidates the sink).
    std::vector<ScenarioOutcome> take();

private:
    std::vector<ScenarioOutcome> outcomes_;
    bool finished_ = false;
};

/// Fan one outcome stream out to several sinks (e.g. collect + journal).
/// Children receive deliveries in constructor order; all but the last child
/// get a copy of the metrics and payload, the last the original. Every
/// child sees the same shared SimResult: the per-event records are never
/// copied.
class TeeSink final : public ResultSink {
public:
    explicit TeeSink(std::vector<ResultSink*> sinks);
    void on_outcome(std::size_t spec_index, ScenarioOutcome outcome) override;
    void finish() override;

private:
    std::vector<ResultSink*> sinks_;
};

}  // namespace imx::exp

#endif  // IMX_EXP_SINK_HPP
