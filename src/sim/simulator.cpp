#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/recovery/registry.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace imx::sim {

namespace {

/// EMA smoothing for the charging-rate observation in EnergyState.
constexpr double kChargeRateEmaAlpha = 0.05;

/// In-flight work for one event. The unit plan is deliberately NOT part of
/// the job: it lives in a run-level buffer (reused through the
/// ScenarioWorkspace) so starting a job never heap-allocates.
struct Job {
    int event_id = -1;
    double arrival_s = 0.0;
    bool committed = false;
    int reached_exit = -1;  ///< deepest exit whose plan has completed
    EnergyState state_at_selection{};
    int units_done = 0;  ///< units of the current plan committed so far
    int target_exit = -1;  ///< exit the current plan executes toward
    bool dead = false;  ///< powered off after a mid-inference death
    bool executing = false;
    double exec_finish_s = 0.0;  ///< when the in-flight unit completes
    double inference_start_s = -1.0;
    double energy_spent_mj = 0.0;
    std::int64_t macs_done = 0;
    int hops = 0;
};

}  // namespace

Simulator::Simulator(const energy::PowerTrace& trace, const SimConfig& config)
    : config_(config),
      trace_duration_s_(trace.duration()),
      trace_total_energy_mj_(trace.total_energy()) {
    IMX_EXPECTS(config.dt_s > 0.0);
    const auto key = energy::IncomeKey::of(config.dt_s, config.storage);
    income_ = trace.income(key);
    IMX_EXPECTS(income_->key() == key);
    IMX_EXPECTS(config.queue_capacity >= 0);
    if (config.recovery.enabled) {
        // A reboot waits for can_turn_on(), so the on threshold must sit at
        // or above the death threshold or the device would re-die instantly.
        IMX_EXPECTS(config.storage.on_threshold_mj >=
                    config.storage.death_threshold_mj);
    }
}

SimResult Simulator::run(util::Span<const Event> events, InferenceModel& model,
                         ExitPolicy& policy, ScenarioWorkspace* workspace) {
    SimResult result;
    run_into(events, model, policy, result, workspace);
    return result;
}

void Simulator::run_into(util::Span<const Event> events, InferenceModel& model,
                         ExitPolicy& policy, SimResult& out,
                         ScenarioWorkspace* workspace) {
    IMX_EXPECTS(std::is_sorted(events.begin(), events.end(),
                               [](const Event& a, const Event& b) {
                                   return a.time_s < b.time_s;
                               }));

    const mcu::McuModel device(config_.mcu);
    energy::EnergyStorage storage(config_.storage);
    util::Ema charge_rate(kChargeRateEmaAlpha);
    charge_rate.update(0.0);
    // Only a policy that reads EnergyState::charge_rate_mw pays for the EMA;
    // for any other the rate stays at its initial 0.0.
    const bool track_charge_rate = policy.reads_charge_rate();

    // Failure model: the strategy exists only when it is enabled. Without
    // it every plan is one unit, so nothing can die, and commits are free.
    std::unique_ptr<RecoveryStrategy> strategy;
    if (config_.recovery.enabled) {
        strategy =
            make_recovery_strategy(config_.recovery.strategy, config_.recovery);
    }
    const double commit_mj =
        strategy != nullptr ? strategy->commit_cost_mj() : 0.0;

    ScenarioWorkspace local_workspace;
    ScenarioWorkspace& ws =
        workspace != nullptr ? *workspace : local_workspace;
    // Reset up front (not at exit) so an exception can never leave a stale
    // cursor for the next scenario that borrows this workspace.
    ws.arena.reset();

    SimResult& result = out;
    result.records.clear();
    result.records.resize(events.size());  // value-initialized records
    for (std::size_t i = 0; i < events.size(); ++i) {
        result.records[i].event_id = events[i].id;
        result.records[i].arrival_time_s = events[i].time_s;
    }
    result.duration_s = trace_duration_s_;
    result.total_harvested_mj = trace_total_energy_mj_;
    result.deadline_s = config_.deadline_s;
    result.deaths = 0;
    result.recovery_energy_mj = 0.0;
    result.wasted_macs = 0;
    result.dropped = 0;
    result.in_flight = 0;

    const double dt = config_.dt_s;
    const energy::IncomeTable& income = *income_;
    const double leak_mj = config_.storage.leakage_mw * dt;
    const std::size_t num_events = events.size();
    std::size_t next_event = 0;
    bool busy = false;
    Job job;
    SimCounters counters;

    // The start-deadline bound of steps 2b/3 — constant over the run.
    const double wait_limit = config_.deadline_s;

    // Bitwise-identical to macs_energy_mj(energy_state(now), macs): the
    // per-MMAC energy is a run constant, so the EnergyState the historical
    // code constructed to pass it along was pure overhead.
    auto macs_cost_mj = [this](std::int64_t macs) {
        return static_cast<double>(macs) / 1e6 * config_.mcu.energy_per_mmac_mj;
    };

    // Bounded FIFO request queue (indices into events/records), held as a
    // fixed-capacity ring in the workspace arena. Never touched when
    // queue_capacity == 0 — the historical single-context model.
    const int cap = config_.queue_capacity;
    std::size_t* queue_slots =
        cap > 0 ? ws.arena.allocate_array<std::size_t>(
                      static_cast<std::size_t>(cap))
                : nullptr;
    std::size_t queue_head = 0;
    int queue_count = 0;
    auto queue_push = [&](std::size_t index) {
        queue_slots[(queue_head + static_cast<std::size_t>(queue_count)) %
                    static_cast<std::size_t>(cap)] = index;
        ++queue_count;
        ++counters.queue_pushes;
    };
    auto queue_pop = [&]() {
        const std::size_t index = queue_slots[queue_head];
        queue_head = (queue_head + 1) % static_cast<std::size_t>(cap);
        --queue_count;
        ++counters.queue_pops;
        return index;
    };

    // Run-level unit plan (see Job). At most one job is in flight, and every
    // plan is rewritten via plan_units_into() before use.
    std::vector<std::int64_t>& units = ws.units;

    auto energy_state = [&](double now) {
        EnergyState s;
        s.level_mj = storage.level();
        s.capacity_mj = storage.capacity();
        s.charge_rate_mw = charge_rate.value();
        s.energy_per_mmac_mj = config_.mcu.energy_per_mmac_mj;
        s.queue_depth = queue_count;
        s.queue_backlog = cap > 0 ? static_cast<double>(queue_count) /
                                        static_cast<double>(cap)
                                  : 0.0;
        // Remaining time before the in-flight event's completion deadline;
        // infinity when the run has no deadline.
        if (config_.deadline_s !=
            std::numeric_limits<double>::infinity()) {
            s.deadline_slack_s =
                std::max(0.0, job.arrival_s + config_.deadline_s - now);
        }
        return s;
    };

    auto finish_event = [&](EventRecord& record, const ExitOutcome& outcome,
                            double now) {
        record.processed = true;
        record.correct = outcome.correct;
        record.exit_taken = job.reached_exit;
        record.hops = job.hops;
        record.completion_time_s = now;
        record.inference_start_s = job.inference_start_s;
        record.energy_spent_mj = job.energy_spent_mj;
        record.macs = job.macs_done;
        // An infinite deadline is always met; otherwise compare the result's
        // completion time against the event's own deadline.
        const bool deadline_met = now - job.arrival_s <= config_.deadline_s;
        policy.observe(job.state_at_selection, job.reached_exit,
                       outcome.correct, deadline_met);
        busy = false;
    };

    // A death (failure model only): wasted progress is whatever the strategy
    // does not preserve (plus the in-flight unit on a failed checkpoint
    // commit). macs_done and energy_spent_mj are *not* rolled back — they
    // record work actually executed, including work that later has to be
    // redone.
    auto die = [&](bool lose_inflight_unit) {
        IMX_EXPECTS(strategy != nullptr);
        ++result.deaths;
        if (lose_inflight_unit) {
            result.wasted_macs += units[static_cast<std::size_t>(job.units_done)];
        }
        const int surviving = strategy->surviving_units(job.units_done);
        IMX_EXPECTS(surviving >= 0 && surviving <= job.units_done);
        for (int u = surviving; u < job.units_done; ++u) {
            result.wasted_macs += units[static_cast<std::size_t>(u)];
        }
        job.units_done = surviving;
        job.executing = false;
        job.dead = true;
    };

    // Energy the next unit's start consumes: its compute, plus the one-off
    // wakeup on the very first start.
    auto next_unit_cost_mj = [&]() {
        IMX_EXPECTS(job.units_done < static_cast<int>(units.size()));
        const std::int64_t unit_macs =
            units[static_cast<std::size_t>(job.units_done)];
        const bool first_start = job.inference_start_s < 0.0;
        return macs_cost_mj(unit_macs) +
               (first_start ? config_.mcu.wakeup_energy_mj : 0.0);
    };

    // Pre-paid atomic unit start: the unit begins only once its full compute
    // energy (plus the one-off wakeup on the very first start) is buffered,
    // so execution itself can never brown out. The gate also requires the
    // checkpoint commit write to be affordable — a real runtime would not
    // start work it cannot persist — but the commit itself is charged at
    // completion, so income lost to leakage while the unit runs can still
    // (rarely) fail the write and kill the run.
    auto try_start_unit = [&](double now) {
        const double cost = next_unit_cost_mj();
        if (storage.level() < cost + commit_mj) return false;
        const std::int64_t unit_macs =
            units[static_cast<std::size_t>(job.units_done)];
        const bool first_start = job.inference_start_s < 0.0;
        if (!storage.try_consume(cost)) return false;
        job.energy_spent_mj += cost;
        job.macs_done += unit_macs;
        if (first_start) {
            job.inference_start_s = std::max(now, job.arrival_s);
            job.hops = 1;
            job.exec_finish_s = job.inference_start_s +
                                config_.mcu.wakeup_time_s +
                                device.compute_time(unit_macs);
        } else {
            // Chains from exec_finish_s when the previous unit ends inside
            // the step that detects it (exec_finish_s >= now). A unit that
            // ended inside its own start step (exec_finish_s < now) is only
            // detected a step later, so the next unit starts at `now`: the
            // gap overstates latency (docs/recovery.md). After a stall or
            // reboot `now` is the true start.
            job.exec_finish_s = std::max(now, job.exec_finish_s) +
                                device.compute_time(unit_macs);
        }
        job.executing = true;
        ++counters.unit_starts;
        return true;
    };

    // Event pickup: an arrival is picked up immediately if the device is
    // idle (and no older request waits ahead of it).
    auto start_job = [&](const Event& ev) {
        busy = true;
        job = Job{};
        job.event_id = ev.id;
        job.arrival_s = ev.time_s;
    };

    // Per-step energy income (the table holds exactly the converter output
    // EnergyStorage::harvest() would compute at this step's `now`); track
    // the net charging rate the runtime sees, if the policy reads it.
    auto harvest_step = [&](std::size_t step) {
        const double stored =
            storage.harvest_net(income.net_mj(step), leak_mj);
        if (track_charge_rate) charge_rate.update(std::max(stored, 0.0) / dt);
    };

    // One full simulation step.
    auto full_step = [&](double now, std::size_t step) {
        harvest_step(step);

        // 2. Event arrivals: an arrival is picked up immediately if the
        // device is idle (and no older request waits ahead of it); otherwise
        // it queues while there is room, and is lost — a plain miss without
        // a queue, a counted drop with one — when there is none.
        while (next_event < num_events &&
               events[next_event].time_s < now + dt) {
            const Event& ev = events[next_event];
            const std::size_t index = next_event;
            ++next_event;
            if (busy || queue_count != 0) {
                if (queue_count < cap) {
                    queue_push(index);
                } else {
                    if (cap > 0) ++result.dropped;
                    policy.observe_missed();  // record stays processed=false
                }
                continue;
            }
            start_job(ev);
        }

        // 2b. Idle pickup from the queue head (FIFO). A request whose
        // wait/completion deadline passed while it queued is hopeless and is
        // dropped at the head, exactly like the waiting job in step 3.
        while (!busy && queue_count != 0) {
            const Event& ev = events[queue_pop()];
            if (now - ev.time_s > wait_limit) {
                policy.observe_missed();
                continue;
            }
            start_job(ev);
        }

        if (!busy) return;
        EventRecord& record =
            result.records[static_cast<std::size_t>(job.event_id)];

        // 3. Deadline check (only before execution starts): a waiting job
        // past its start deadline — or past its completion deadline, which
        // it can now only miss — is dropped so the device frees up.
        if (!job.executing && job.inference_start_s < 0.0 &&
            now - job.arrival_s > wait_limit) {
            policy.observe_missed();
            busy = false;
            return;
        }

        // Every commit and hop executes as a plan of pre-paid atomic units
        // (plan_units_into). Without the failure model the plan is one unit,
        // which is the paper's runtime: the whole exit is buffered before it
        // starts, then finishes in one power cycle.

        // r1. Dead: recharge to the turn-on threshold, then reboot — wakeup
        // plus the strategy's restore cost — and fall through to resume
        // within this same step.
        if (job.dead) {
            if (!storage.can_turn_on()) return;
            const double restore = strategy->restore_cost_mj(job.units_done);
            if (!storage.try_consume(config_.mcu.wakeup_energy_mj + restore)) {
                return;
            }
            job.energy_spent_mj += config_.mcu.wakeup_energy_mj;
            result.recovery_energy_mj += restore;
            job.dead = false;
        }

        // r0. Complete the in-flight unit: pay the checkpoint commit (a
        // failed commit write is itself a death that loses the unit),
        // then either evaluate/hop/finish at the end of the plan or chain
        // straight into the next unit.
        if (job.executing) {
            if (now + dt >= job.exec_finish_s) {
                job.executing = false;
                if (!storage.try_consume(commit_mj)) {
                    die(/*lose_inflight_unit=*/true);
                    return;
                }
                result.recovery_energy_mj += commit_mj;
                ++job.units_done;
                if (job.units_done == static_cast<int>(units.size())) {
                    job.reached_exit = job.target_exit;
                    const ExitOutcome outcome =
                        model.evaluate(job.event_id, job.reached_exit);
                    ++counters.evaluations;
                    const int next_exit = job.reached_exit + 1;
                    bool advanced = false;
                    if (next_exit < model.num_exits()) {
                        ++counters.decisions;
                        if (policy.continue_inference(
                                energy_state(now), model,
                                job.reached_exit, outcome.confidence)) {
                            // Hop: plan the incremental advance. The hop
                            // is opportunistic — if even its first unit
                            // is unaffordable right now, keep the result.
                            plan_units_into(model, job.reached_exit, next_exit,
                                            config_.recovery, units);
                            job.units_done = 0;
                            job.target_exit = next_exit;
                            if (try_start_unit(now)) {
                                ++job.hops;
                                advanced = true;
                            }
                        }
                    }
                    if (!advanced) {
                        finish_event(record, outcome, job.exec_finish_s);
                    }
                } else {
                    (void)try_start_unit(now);
                }
            }
            return;
        }

        // r2. Not yet committed: ask (or re-ask) the policy, then plan
        // the committed exit's execution.
        if (!job.committed) {
            const EnergyState s = energy_state(now);
            const int choice = policy.select_exit(s, model);
            ++counters.decisions;
            if (choice >= 0) {
                IMX_EXPECTS(choice < model.num_exits());
                // The promise the quiet-stretch drain skipped calls on.
                IMX_ENSURES(!(s.level_mj < policy.commit_floor_mj(s, model)));
                job.committed = true;
                job.state_at_selection = s;
                job.target_exit = choice;
                plan_units_into(model, -1, choice, config_.recovery, units);
                job.units_done = 0;
            }
        }
        if (job.committed) {
            // r3. Stalled mid-inference: the powered device draws
            // active_power_mw while waiting to afford its next unit, and
            // dies if the buffer sags below the death threshold. Only a
            // multi-unit plan can stall, so only the failure model gets
            // here. Before the first unit the device is still asleep —
            // no draw, no death.
            if (job.inference_start_s >= 0.0) {
                IMX_EXPECTS(strategy != nullptr);
                storage.drain(config_.recovery.active_power_mw * dt);
                if (storage.below_death_threshold()) {
                    die(/*lose_inflight_unit=*/false);
                    return;
                }
            }
            // r4. Start the next unit once it is affordable.
            (void)try_start_unit(now);
        }
    };

    // The wake level of the state between steps: a step whose harvest
    // leaves the level below it runs nothing but that harvest. Each finite
    // value is the exact negation of the guard the step body tests, built
    // from the same expressions. +inf: no level wakes the state (idle, or a
    // unit mid-flight; only time does). -inf: every step runs in full.
    constexpr double kNever = std::numeric_limits<double>::infinity();
    auto wake_level_mj = [&](double now) {
        if (!busy) return queue_count == 0 ? kNever : -kNever;
        if (job.executing) return kNever;  // r0 waits for exec_finish_s
        if (job.dead) {
            // r1: can_turn_on() and the reboot's try_consume().
            return std::max(config_.storage.on_threshold_mj,
                            config_.mcu.wakeup_energy_mj +
                                strategy->restore_cost_mj(job.units_done));
        }
        // r2: the policy's promise that select_exit() keeps waiting.
        if (!job.committed) {
            return policy.commit_floor_mj(energy_state(now), model);
        }
        // r4: try_start_unit()'s affordability gate, before the first unit
        // and in an r3 stall between units without a stall draw (whose step
        // then only harvests, checks for death — death_stop_mj() — and
        // tests the gate).
        if (job.inference_start_s < 0.0 ||
            config_.recovery.active_power_mw == 0.0) {
            return next_unit_cost_mj() + commit_mj;
        }
        return -kNever;  // r3 with a stall draw: draws and checks every step
    };
    // The level below which the state's step body acts: a stall (r3) dies
    // once the harvested level falls below the death threshold. -inf in
    // every other state, whose body does nothing at a low level.
    auto death_stop_mj = [&]() {
        const bool stalled = busy && !job.executing && !job.dead &&
                             job.inference_start_s >= 0.0;
        return stalled ? config_.storage.death_threshold_mj : -kNever;
    };

    // Quiet-stretch drain. Before each full step, run the harvest-only
    // steps that precede it in one tight loop: it stops at the step of the
    // next arrival, at the step the in-flight unit finishes, at the step a
    // not-yet-started job passes its wait limit, and one step before the
    // harvested level would reach the wake level (looked ahead with the
    // harvest's own clamp, so the crossing step runs the full body
    // unchanged), or, in a stall, one step before it would fall below the
    // death threshold. Drained steps perform the identical harvest/EMA
    // updates at the identical `now` values — the `now += dt` accumulation
    // sequence is exactly the step-at-a-time one — so every observable value
    // stays bitwise equal to running every step in full
    // (tests/test_hotpath.cpp, tests/test_recovery.cpp and the stdout
    // goldens pin this).
    const double duration = trace_duration_s_;
    double now = 0.0;
    std::size_t step = 0;
    while (now < duration) {
        // Nothing in flight, queued or still to arrive: no SimResult field
        // can change any more (the remaining harvest-only steps are
        // unobservable), so stop early.
        if (!busy && queue_count == 0 && next_event == num_events) break;
        const double wake_mj = wake_level_mj(now);
        if (wake_mj > -kNever) {
            const double arrival_s =
                next_event < num_events ? events[next_event].time_s : kNever;
            const double finish_s =
                busy && job.executing ? job.exec_finish_s : kNever;
            const double job_wait_limit =
                busy && job.inference_start_s < 0.0 ? wait_limit : kNever;
            const double job_arrival_s = job.arrival_s;
            const double stop_below_mj = death_stop_mj();
            std::uint64_t steps = 0;
            while (now < duration) {
                const double next = now + dt;
                if (arrival_s < next || next >= finish_s ||
                    now - job_arrival_s > job_wait_limit) {
                    break;
                }
                const double level =
                    storage.level_after(income.net_mj(step), leak_mj);
                if (!(level < wake_mj) || level < stop_below_mj) break;
                harvest_step(step);
                now = next;
                ++step;
                ++steps;
            }
            counters.drained_steps += steps;
            if (!(now < duration)) break;
        }
        full_step(now, step);
        ++counters.full_steps;
        now += dt;
        ++step;
    }

    // Unfinished in-flight work at trace end produced no result; it is
    // reported separately from misses so traffic accounting stays exact:
    // total_events == processed + dropped + in_flight + misses.
    result.in_flight = queue_count + (busy ? 1 : 0);
    IMX_ENSURES(counters.queue_pushes ==
                counters.queue_pops + static_cast<std::uint64_t>(queue_count));
    // Event conservation: one record per event, and every drop or
    // unfinished request is one of the misses.
    IMX_ENSURES(result.records.size() == num_events);
    IMX_ENSURES(result.dropped + result.in_flight <= result.missed_count());
    counters.runs = 1;
    result.counters = counters;
    ws.counters += counters;
}

}  // namespace imx::sim
