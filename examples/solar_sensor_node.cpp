// Example: a day in the life of a solar-powered sensor node.
//
// Simulates the event-driven intermittent runtime hour by hour and prints a
// timeline: harvested power, buffered energy, events seen/processed, and the
// exits taken — the operational view behind Fig. 1a of the paper.
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

using namespace imx;

int main() {
    const auto setup = core::make_paper_setup();
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::QLearningExitPolicy policy(3, sim::RuntimeConfig{});

    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
    // Warm up the runtime policy on a few prior "days".
    for (int episode = 0; episode < 8; ++episode) {
        const auto events = sim::generate_arrivals(
            "uniform", {500, setup.trace.duration(),
                        7000 + static_cast<std::uint64_t>(episode)});
        (void)simulator.run(events, model, policy);
    }
    policy.set_eval_mode(true);
    const auto result = simulator.run(setup.events, model, policy);

    // Hourly digest over the compressed daylight window.
    const int buckets = 12;
    const double bucket_s = setup.trace.duration() / buckets;
    std::vector<int> seen(buckets, 0);
    std::vector<int> processed(buckets, 0);
    std::vector<int> correct(buckets, 0);
    std::vector<double> latency(buckets, 0.0);
    for (const auto& rec : result.records) {
        const auto b = std::min(
            buckets - 1, static_cast<int>(rec.arrival_time_s / bucket_s));
        ++seen[static_cast<std::size_t>(b)];
        if (rec.processed) {
            ++processed[static_cast<std::size_t>(b)];
            correct[static_cast<std::size_t>(b)] += rec.correct ? 1 : 0;
            latency[static_cast<std::size_t>(b)] +=
                rec.completion_time_s - rec.arrival_time_s;
        }
    }

    util::Table table("solar sensor node — daylight timeline");
    table.header({"window", "mean power", "", "events", "processed", "correct",
                  "mean latency"});
    for (int b = 0; b < buckets; ++b) {
        const double t0 = b * bucket_s;
        const double p = setup.trace.energy_between(t0, t0 + bucket_s) / bucket_s;
        const auto i = static_cast<std::size_t>(b);
        const double lat =
            processed[i] > 0 ? latency[i] / processed[i] : 0.0;
        table.row({"h" + std::to_string(b + 1),
                   util::fixed(p * 1000.0, 1) + " uW",
                   util::bar(p, 0.06, 16), std::to_string(seen[i]),
                   std::to_string(processed[i]), std::to_string(correct[i]),
                   util::fixed(lat, 1) + " s"});
    }
    table.print(std::cout);

    const auto hist = result.exit_histogram(3);
    std::printf(
        "\nday total: %d/%d processed (%d correct), exits %d/%d/%d, "
        "IEpmJ %.3f\n",
        result.processed_count(), result.total_events(), result.correct_count(),
        hist[0], hist[1], hist[2], result.iepmj());
    std::printf(
        "runtime LUT footprint: %zu bytes (fits comfortably in MCU SRAM)\n",
        policy.footprint_bytes());
    return 0;
}
