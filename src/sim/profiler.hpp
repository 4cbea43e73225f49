/// \file
/// \brief Zero-overhead-when-off phase profiler for the simulator hot path.
///
/// The sweep engine's unit of work is one simulator step, executed billions
/// of times per grid; attributing wall time to one scenarios/sec scalar
/// says nothing about *where* a regression lives. The Profiler splits the
/// inner loop into five phases (docs/profiling.md has the full taxonomy):
///
///  * harvest   — per-step energy income: trace lookup, storage integration,
///                charge-rate EMA (including the batched drain loops).
///  * queue     — arrival scan, bounded-queue admission/pickup, deadline
///                drops.
///  * policy    — ExitPolicy::select_exit / continue_inference decisions.
///  * inference — execution bookkeeping: unit starts/finishes, hops,
///                model evaluation, checkpointed compute steps.
///  * commit    — unit commits (free without the failure model), deaths,
///                reboots/restores, stall drain.
///
/// Off is the default and costs exactly one null-pointer test per hook
/// (`sim::ScopedPhase` reads no clock and touches no counter when
/// constructed with a null profiler — tests/test_hotpath.cpp pins both the
/// triviality properties and bitwise output equality profiler-on vs off).
/// On, each hook adds two steady_clock reads; the per-phase shares remain
/// meaningful because every phase pays the same overhead.
///
/// Aggregation: each sweep worker owns one Profiler (via its
/// ScenarioWorkspace); the runner merge()s them after the grid and the exp
/// layer renders the table / BENCH_profile.json.
#ifndef IMX_SIM_PROFILER_HPP
#define IMX_SIM_PROFILER_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace imx::sim {

class Profiler {
public:
    enum class Phase : int {
        kHarvest = 0,
        kQueue,
        kPolicy,
        kInference,
        kCommit,
    };
    static constexpr int kNumPhases = 5;

    struct PhaseStats {
        std::uint64_t calls = 0;  ///< hook entries (steps, decisions, ...)
        std::uint64_t ns = 0;     ///< wall time inside the phase
    };

    /// \brief Record `calls` entries and `ns` nanoseconds against a phase.
    void add(Phase phase, std::uint64_t calls, std::uint64_t ns) noexcept {
        PhaseStats& s = stats_[static_cast<std::size_t>(phase)];
        s.calls += calls;
        s.ns += ns;
    }

    /// \brief Count one completed Simulator::run.
    void count_run() noexcept { ++runs_; }

    /// \brief Count one completed scenario (the sweep's throughput unit).
    void count_scenario() noexcept { ++scenarios_; }

    /// \brief Fold another profiler (e.g. a worker's) into this one.
    void merge(const Profiler& other) noexcept;

    [[nodiscard]] const PhaseStats& stats(Phase phase) const {
        return stats_[static_cast<std::size_t>(phase)];
    }
    [[nodiscard]] std::uint64_t runs() const { return runs_; }
    [[nodiscard]] std::uint64_t scenarios() const { return scenarios_; }
    [[nodiscard]] std::uint64_t total_ns() const;

    /// \brief Stable machine name of a phase ("harvest", "queue", ...).
    [[nodiscard]] static const char* phase_name(Phase phase);

    /// \brief Human-readable per-phase breakdown (the --profile table).
    [[nodiscard]] std::string table() const;

    /// \brief Machine-readable breakdown (the BENCH_profile.json payload,
    /// minus the envelope the exp layer adds around it): an object with
    /// "runs", "scenarios", and per-phase {"calls", "ns", "share"} entries.
    [[nodiscard]] std::string json() const;

private:
    std::array<PhaseStats, kNumPhases> stats_{};
    std::uint64_t runs_ = 0;
    std::uint64_t scenarios_ = 0;
};

/// \brief RAII phase timer. With a null profiler the constructor and
/// destructor reduce to one pointer test each — no clock read, no stores —
/// which is what keeps the default (profiling off) path free.
class ScopedPhase {
public:
    ScopedPhase(Profiler* profiler, Profiler::Phase phase) noexcept
        : profiler_(profiler), phase_(phase) {
        if (profiler_ != nullptr) {
            start_ = std::chrono::steady_clock::now();
        }
    }

    ~ScopedPhase() {
        if (profiler_ != nullptr) {
            const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start_)
                                .count();
            profiler_->add(phase_, 1, static_cast<std::uint64_t>(ns));
        }
    }

    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

private:
    Profiler* profiler_;
    Profiler::Phase phase_;
    std::chrono::steady_clock::time_point start_{};
};

}  // namespace imx::sim

#endif  // IMX_SIM_PROFILER_HPP
