// The step-at-a-time checkpointed loop the SONIC-style baselines ran on
// before they became checkpoint-unit plans of the simulator's one execution
// path (docs/recovery.md, "Baselines as unit plans"). Kept as a test-only
// reference: it reproduces the historical Fig. 5 / Sec. V-D baseline rows
// exactly, and the differential tests in test_recovery.cpp hold the unit
// path within documented tolerances of it.
//
// The model, per step of dt:
//  * harvest the step's income (the same per-step table the simulator uses);
//  * an arrival is picked up if no event is in flight, and lost otherwise;
//  * a job not yet started that passes deadline_s is dropped;
//  * a run-level power state with hysteresis: the device powers on once the
//    level reaches on_threshold_mj, paying the wakeup energy each time, and
//    powers off at kReferenceOffThresholdMj or when a step's work is
//    unaffordable;
//  * a powered step computes min(remaining, mmacs_per_second * 1e6 * dt)
//    MACs and pays their compute plus checkpoint_count(MACs) FRAM writes,
//    so progress survives every power-off;
//  * the result is produced at the end of the step that computes the last
//    MAC.
#ifndef IMX_TESTS_CHECKPOINTED_REFERENCE_HPP
#define IMX_TESTS_CHECKPOINTED_REFERENCE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "energy/income.hpp"
#include "energy/power_trace.hpp"
#include "energy/storage.hpp"
#include "mcu/device.hpp"
#include "sim/event_gen.hpp"
#include "sim/inference_model.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"

namespace imx::test {

/// The loop's power-off level: 0.02 mJ, the off threshold the canonical
/// paper storage configuration carried when the loop was retired. The
/// simulator has no power-off level of its own.
inline constexpr double kReferenceOffThresholdMj = 0.02;

/// Runs `events` through the historical checkpointed loop. Covers what the
/// baseline grids use: a single-exit model and no request queue. `config`'s
/// recovery settings are ignored; the loop has its own checkpointing.
inline sim::SimResult run_checkpointed_reference(
    const energy::PowerTrace& trace, const sim::SimConfig& config,
    sim::InferenceModel& model, const std::vector<sim::Event>& events) {
    IMX_EXPECTS(model.num_exits() == 1 && config.queue_capacity == 0);
    const mcu::McuModel device(config.mcu);
    energy::EnergyStorage storage(config.storage);
    const auto income =
        trace.income(energy::IncomeKey::of(config.dt_s, config.storage));
    const double dt = config.dt_s;
    const double leak_mj = config.storage.leakage_mw * dt;
    const auto step_max_macs =
        static_cast<std::int64_t>(config.mcu.mmacs_per_second * 1e6 * dt);

    sim::SimResult result;
    result.records.resize(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        result.records[i].event_id = events[i].id;
        result.records[i].arrival_time_s = events[i].time_s;
    }
    result.duration_s = trace.duration();
    result.total_harvested_mj = trace.total_energy();
    result.deadline_s = config.deadline_s;

    struct Job {
        std::size_t index = 0;
        std::int64_t macs_left = 0;
        double inference_start_s = -1.0;
        double energy_spent_mj = 0.0;
        std::int64_t macs_done = 0;
    };
    Job job;
    bool busy = false;
    bool powered = false;
    std::size_t next_event = 0;
    double now = 0.0;
    for (std::size_t step = 0; now < trace.duration(); now += dt, ++step) {
        if (!busy && next_event == events.size()) break;  // nothing can change
        storage.harvest_net(income->net_mj(step), leak_mj);
        while (next_event < events.size() &&
               events[next_event].time_s < now + dt) {
            const std::size_t index = next_event++;
            if (busy) continue;  // single context: the arrival is lost
            busy = true;
            job = Job{};
            job.index = index;
            job.macs_left = model.exit_macs(0);
        }
        if (!busy) continue;
        const double arrival_s = events[job.index].time_s;
        if (job.inference_start_s < 0.0 && now - arrival_s > config.deadline_s) {
            busy = false;
            continue;
        }

        if (!powered && storage.can_turn_on()) {
            powered = true;
            if (!storage.try_consume(config.mcu.wakeup_energy_mj)) {
                powered = false;
            } else {
                job.energy_spent_mj += config.mcu.wakeup_energy_mj;
            }
        }
        if (powered && storage.level() <= kReferenceOffThresholdMj) {
            powered = false;
        }
        if (!powered) continue;

        const std::int64_t step_macs = std::min(job.macs_left, step_max_macs);
        const double step_cost =
            static_cast<double>(step_macs) / 1e6 *
                config.mcu.energy_per_mmac_mj +
            static_cast<double>(device.checkpoint_count(step_macs)) *
                config.mcu.checkpoint_energy_mj;
        if (!storage.try_consume(step_cost)) {
            powered = false;  // brown-out; progress kept at last checkpoint
            continue;
        }
        if (job.inference_start_s < 0.0) {
            job.inference_start_s = std::max(now, arrival_s);
        }
        job.energy_spent_mj += step_cost;
        job.macs_done += step_macs;
        job.macs_left -= step_macs;
        if (job.macs_left <= 0) {
            sim::EventRecord& record = result.records[job.index];
            record.processed = true;
            record.correct = model.evaluate(record.event_id, 0).correct;
            record.exit_taken = 0;
            record.completion_time_s = now + dt;
            record.inference_start_s = job.inference_start_s;
            record.energy_spent_mj = job.energy_spent_mj;
            record.macs = job.macs_done;
            busy = false;
        }
    }
    result.in_flight = busy ? 1 : 0;
    return result;
}

}  // namespace imx::test

#endif  // IMX_TESTS_CHECKPOINTED_REFERENCE_HPP
