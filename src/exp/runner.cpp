#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
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
    // out-of-order window instead of the whole grid. The mutex guards the
    // slots and the cursor only: the sink runs outside it, on whichever
    // worker found no delivery in progress, so a slow sink does not hold up
    // a worker that merely stores its slot — until the sink is
    // `max_pending` outcomes behind: then finishing workers wait for it
    // rather than pile up more results than the sink can take.
    std::vector<std::optional<ScenarioOutcome>> slots(specs.size());
    std::vector<std::exception_ptr> errors(specs.size());
    std::mutex delivery_mutex;
    std::condition_variable caught_up;  // delivery ended or pending fell
    const std::size_t max_pending = 16 * threads;
    std::size_t pending = 0;  // outcomes stored but not yet handed over
    std::size_t cursor = 0;
    bool delivering = false;  // one deliverer at a time keeps calls serial
    bool blocked = false;     // first error (in index order) stops the stream

    ThreadPool pool(threads);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        pool.submit([&, i] {
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

            std::unique_lock<std::mutex> lock(delivery_mutex);
            if (outcome.has_value()) ++pending;
            slots[i] = std::move(outcome);
            errors[i] = error;
            if (delivering) {
                // The active deliverer will reach this slot.
                caught_up.wait(lock, [&] {
                    return !delivering || pending <= max_pending;
                });
                return;
            }
            delivering = true;
            // Slots stored while the sink runs are seen at the re-check
            // under the lock, so none is left behind when this loop ends.
            while (!blocked && cursor < specs.size() &&
                   (slots[cursor].has_value() || errors[cursor])) {
                if (errors[cursor]) {
                    blocked = true;
                    break;
                }
                const std::size_t index = cursor;
                ScenarioOutcome ready = std::move(*slots[index]);
                slots[index].reset();
                if (--pending == max_pending) caught_up.notify_all();
                lock.unlock();
                std::exception_ptr sink_error;
                try {
                    sink.on_outcome(index, std::move(ready));
                } catch (...) {
                    // A sink failure (e.g. journal disk full) is surfaced
                    // like a scenario failure at the same index.
                    sink_error = std::current_exception();
                }
                lock.lock();
                if (sink_error) {
                    errors[index] = sink_error;
                    blocked = true;
                    break;
                }
                ++cursor;
            }
            delivering = false;
            caught_up.notify_all();
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
