#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "sim/workspace.hpp"

namespace imx::exp {

namespace {

using Clock = std::chrono::steady_clock;

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

    // One workspace per worker loop, owned by it for the whole sweep
    // (confinement, no locking), each warmed to the largest scenario that
    // loop has run.
    std::vector<sim::ScenarioWorkspace> workspaces(threads);
    // One slot per scenario, each written by its own loop only.
    std::vector<double> scenario_s(config.profile != nullptr ? specs.size()
                                                             : 0);

    // Completed-but-undelivered outcomes wait in their slots; the cursor
    // walks them in index order so the sink sees a deterministic stream.
    // A slot is released as soon as it is delivered. The mutex guards the
    // slots, the cursor and the next index to hand out; the sink runs
    // outside it, on whichever worker found no delivery in progress, so a
    // slow sink does not hold up a worker that merely stores its slot. No
    // worker takes an index `window` or more past the cursor: it waits for
    // the deliverer instead, so undelivered outcomes never exceed the
    // window, whether the sink is slow or the scenario at the cursor is.
    std::vector<std::optional<ScenarioOutcome>> slots(specs.size());
    std::vector<std::exception_ptr> errors(specs.size());
    std::mutex delivery_mutex;
    std::condition_variable caught_up;  // cursor moved or the stream stopped
    const std::size_t window = 16 * threads;
    std::size_t next = 0;  // the next index to hand out
    std::size_t cursor = 0;
    bool delivering = false;  // one deliverer at a time keeps calls serial
    bool blocked = false;     // first error (in index order) stops the stream

    auto worker = [&](sim::ScenarioWorkspace& workspace) {
        std::unique_lock<std::mutex> lock(delivery_mutex);
        for (;;) {
            caught_up.wait(lock, [&] {
                return blocked || next == specs.size() ||
                       next < cursor + window;
            });
            if (blocked || next == specs.size()) return;
            const std::size_t i = next++;
            lock.unlock();

            std::optional<ScenarioOutcome> outcome;
            std::exception_ptr error;
            try {
                ScenarioContext ctx;
                ctx.seed = specs[i].seed;
                ctx.replica = specs[i].replica;
                ctx.workspace = &workspace;
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

            lock.lock();
            slots[i] = std::move(outcome);
            errors[i] = error;
            // The active deliverer, if any, will reach this slot.
            if (delivering) continue;
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
                caught_up.notify_all();
            }
            delivering = false;
            if (blocked) caught_up.notify_all();
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    try {
        for (std::size_t t = 0; t + 1 < threads; ++t) {
            helpers.emplace_back(worker, std::ref(workspaces[t]));
        }
    } catch (...) {
        // A thread failed to start: stop the loops already running and
        // join them before their shared state goes out of scope.
        {
            std::lock_guard<std::mutex> lock(delivery_mutex);
            blocked = true;
        }
        caught_up.notify_all();
        for (std::thread& helper : helpers) helper.join();
        throw;
    }
    worker(workspaces.back());
    for (std::thread& helper : helpers) helper.join();

    if (config.profile != nullptr) {
        for (const sim::ScenarioWorkspace& workspace : workspaces) {
            config.profile->counters += workspace.counters;
        }
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
