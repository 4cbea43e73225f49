/// \file
/// \brief Per-worker reusable scenario state: the allocation backbone of
/// the sweep hot path.
///
/// A sweep worker executes thousands of scenarios back to back; before this
/// existed, every scenario (and every Q-learning training episode inside
/// it) re-heap-allocated the same short-lived buffers — the training and
/// evaluation event schedules, the SimResult record vector, the recovery
/// unit plan, the bounded-queue ring. A ScenarioWorkspace owns one reusable
/// copy of each, sized by the largest scenario seen so far. Only the
/// canonical replica (replica 0) of a simulation scenario keeps a SimResult
/// of its own, for the reports to read; every other run — training
/// episodes and non-canonical evaluations alike — writes into the one
/// reusable `result`, so a worker's steady state allocates no SimResult at
/// all.
///
/// It also sums the SimCounters of every run made through it. Results
/// written into `result` never leave the workspace, so this sum is the only
/// place a sweep can see their work (docs/profiling.md).
///
/// Ownership and threading: exp::run_sweep gives each worker loop one
/// workspace for the whole sweep, and the loop runs one scenario at a time
/// on it (confinement — no locking inside). A caller that passes no
/// workspace gets a local one for that call. The workspace only changes
/// *where* buffers live, never the values written through them
/// (tests/test_hotpath.cpp pins SimResult and CSV equality with and without
/// a worker's workspace across every registered experiment, and the
/// metrics of non-canonical replicas against fresh runs).
#ifndef IMX_SIM_WORKSPACE_HPP
#define IMX_SIM_WORKSPACE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_gen.hpp"
#include "sim/metrics.hpp"
#include "util/arena.hpp"

namespace imx::sim {

struct ScenarioWorkspace {
    /// Bump-allocated POD scratch for buffers whose size is only known at
    /// run start (the simulator's bounded-queue ring lives here). Reset at
    /// the end of every Simulator::run; capacity is retained across
    /// scenarios.
    util::Arena arena;

    /// Reused training-episode event schedule
    /// (ArrivalSource::generate_into writes over it each episode).
    std::vector<Event> train_events;

    /// Reused evaluation schedule of every replica but the canonical one
    /// (ArrivalSource::generate_into writes over it each scenario). Kept
    /// apart from train_events, which a learning cell fills while this
    /// schedule waits for its evaluation run.
    std::vector<Event> events;

    /// Reused result buffer for every run whose SimResult is consumed
    /// immediately: training episodes and the evaluation of every replica
    /// but the canonical one (Simulator::run_into reuses records capacity).
    SimResult result;

    /// Reused unit plan (plan_units_into writes over it each time a
    /// scenario's job commits or hops).
    std::vector<std::int64_t> units;

    /// Work summed over every run made through this workspace, training
    /// episodes included (Simulator::run_into adds each run's counters at
    /// its end). The runner folds these into exp::SweepProfile.
    SimCounters counters;
};

}  // namespace imx::sim

#endif  // IMX_SIM_WORKSPACE_HPP
