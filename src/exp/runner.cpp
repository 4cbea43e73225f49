#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "exp/thread_pool.hpp"
#include "sim/workspace.hpp"

namespace imx::exp {

namespace {

using Clock = std::chrono::steady_clock;

/// Checkout pool of per-worker scenario workspaces. The thread pool exposes
/// no worker identity, so workspaces are leased per task from a
/// mutex-guarded freelist instead of indexed by worker: a task checks one
/// out, runs its scenario with exclusive access (confinement), and returns
/// it. Steady state holds exactly one workspace per concurrently running
/// task — i.e. per worker thread — each already warmed to the largest
/// scenario it has seen.
class WorkspacePool {
public:
    sim::ScenarioWorkspace* acquire() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!free_.empty()) {
                sim::ScenarioWorkspace* workspace = free_.back();
                free_.pop_back();
                return workspace;
            }
        }
        auto workspace = std::make_unique<sim::ScenarioWorkspace>();
        sim::ScenarioWorkspace* raw = workspace.get();
        std::lock_guard<std::mutex> lock(mutex_);
        all_.push_back(std::move(workspace));
        return raw;
    }

    void release(sim::ScenarioWorkspace* workspace) {
        std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(workspace);
    }

    /// Every workspace's counters, summed (post-sweep, after wait_idle — no
    /// workspace is checked out).
    sim::SimCounters counters() {
        std::lock_guard<std::mutex> lock(mutex_);
        sim::SimCounters total;
        for (const auto& workspace : all_) total += workspace->counters;
        return total;
    }

private:
    std::mutex mutex_;
    std::vector<std::unique_ptr<sim::ScenarioWorkspace>> all_;
    std::vector<sim::ScenarioWorkspace*> free_;
};

}  // namespace

void run_sweep(const std::vector<ScenarioSpec>& specs, ResultSink& sink,
               const RunnerConfig& config) {
    if (specs.empty()) {
        sink.finish();
        return;
    }

    std::size_t threads = config.threads > 0
                              ? static_cast<std::size_t>(config.threads)
                              : std::max(1u, std::thread::hardware_concurrency());
    threads = std::min(threads, specs.size());

    WorkspacePool workspaces;
    // One slot per scenario, each written by its own task only.
    std::vector<double> scenario_s(config.profile != nullptr ? specs.size()
                                                             : 0);

    // Completed-but-undelivered outcomes wait in their slots; the cursor
    // walks them in index order so the sink sees a deterministic stream.
    // A slot is released as soon as it is delivered, bounding memory to the
    // out-of-order window instead of the whole grid.
    std::vector<std::optional<ScenarioOutcome>> slots(specs.size());
    std::vector<std::exception_ptr> errors(specs.size());
    std::mutex delivery_mutex;
    std::size_t cursor = 0;
    bool blocked = false;  // first error (in index order) stops the stream

    ThreadPool pool(threads);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        pool.submit([&specs, &sink, &slots, &errors, &delivery_mutex, &cursor,
                     &blocked, &workspaces, &scenario_s, i] {
            std::optional<ScenarioOutcome> outcome;
            std::exception_ptr error;
            sim::ScenarioWorkspace* workspace = workspaces.acquire();
            try {
                ScenarioContext ctx;
                ctx.seed = specs[i].seed;
                ctx.replica = specs[i].replica;
                ctx.workspace = workspace;
                const bool timed = !scenario_s.empty();
                const Clock::time_point start =
                    timed ? Clock::now() : Clock::time_point{};
                outcome = specs[i].run(ctx);
                if (timed) {
                    scenario_s[i] =
                        std::chrono::duration<double>(Clock::now() - start)
                            .count();
                }
            } catch (...) {
                error = std::current_exception();
            }
            workspaces.release(workspace);

            std::lock_guard<std::mutex> lock(delivery_mutex);
            slots[i] = std::move(outcome);
            errors[i] = error;
            while (!blocked && cursor < specs.size() &&
                   (slots[cursor].has_value() || errors[cursor])) {
                if (errors[cursor]) {
                    blocked = true;
                    break;
                }
                try {
                    sink.on_outcome(cursor, std::move(*slots[cursor]));
                } catch (...) {
                    // A sink failure (e.g. journal disk full) is surfaced
                    // like a scenario failure at the same index.
                    errors[cursor] = std::current_exception();
                    blocked = true;
                    break;
                }
                slots[cursor].reset();
                ++cursor;
            }
        });
    }
    pool.wait_idle();

    if (config.profile != nullptr) {
        config.profile->counters += workspaces.counters();
        config.profile->scenario_s.insert(config.profile->scenario_s.end(),
                                          scenario_s.begin(),
                                          scenario_s.end());
    }

    for (const auto& error : errors) {
        if (error) std::rethrow_exception(error);
    }
    sink.finish();
}

std::vector<ScenarioOutcome> run_sweep(const std::vector<ScenarioSpec>& specs,
                                       const RunnerConfig& config) {
    CollectSink sink(specs.size());
    run_sweep(specs, sink, config);
    return sink.take();
}

}  // namespace imx::exp
