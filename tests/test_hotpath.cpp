// Bitwise-equality suite for the simulator hot-path overhaul (`ctest -L
// hotpath`). Four pillars:
//
//  1. Unit contracts of the new utility layer: util::Registry<T> (the one
//     fixed name table behind every named axis, with the shared
//     unknown-name diagnostic), util::ParamReader (typed getters,
//     unknown-key rejection).
//  2. Workspace transparency: running every registered experiment's --quick
//     grid through the runner's per-worker workspaces produces metrics,
//     SimResults and aggregate CSVs bitwise equal to the allocate-per-run
//     path (ScenarioContext::workspace == nullptr) — buffer reuse changes
//     where state lives, never the values written through it.
//  3. Scheduling invariance with the workspace enabled: thread count and a
//     3-way shard/journal/merge split leave the aggregate byte-identical.
//  4. Measurement neutrality: the simulator's work counters are always on
//     and equal with or without a workspace; a profiled sweep (per-scenario
//     wall time plus summed counters) produces bitwise-identical outcomes
//     and the same counters at any thread count; and batched stepping feeds
//     run() and run_into() the exact same values with or without a
//     workspace.
//  5. The commit floor: draining an uncommitted wait on a greedy policy's
//     ExitPolicy::commit_floor_mj() promise gives bitwise the results of
//     asking select_exit() at every step, over a grid of queue, deadline,
//     recovery, capacity, trace and arrival configs; and the greedy
//     policies keep that promise on random states.
//  6. The outcome shape: only replica 0 of a simulation scenario keeps a
//     SimResult; every other replica runs into the workspace's result
//     buffer and returns metrics bitwise equal to those of a fresh
//     Simulator::run on the same inputs, with or without a workspace that
//     holds a larger scenario's stale records.
//  7. The charge rate: a policy that declares it does not read
//     EnergyState::charge_rate_mw runs bit for bit as it does wrapped in a
//     policy that declares it does (and so has the EMA tracked), and sees
//     the rate as 0.
//  8. sim_metrics(): the one-pass summary and the selected percentiles give
//     bit for bit what one walk of the records per metric and a full sort
//     gave, and keep that code's contract checks.
//
// (The batched-vs-historical stepping equality itself is pinned stronger
// than any in-process compare could: tests/test_kernels_dispatch.cpp hashes
// every --quick aggregate CSV against goldens captured from the
// single-step-dispatch implementation.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baseline_models.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/oracle_model.hpp"
#include "energy/power_trace.hpp"
#include "energy/trace_registry.hpp"
#include "exp/aggregate.hpp"
#include "exp/cli.hpp"
#include "exp/experiment.hpp"
#include "exp/journal.hpp"
#include "exp/paper_scenarios.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "scratch_dir.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/policies/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/workspace.hpp"
#include "util/contracts.hpp"
#include "util/param_reader.hpp"
#include "util/registry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace imx;

// --- util::Registry --------------------------------------------------------

TEST(RegistryTemplate, GetContainsAndSortedNames) {
    const util::Registry<int> registry("widget",
                                       {{"zeta", 1}, {"alpha", 2}, {"mid", 3}});
    EXPECT_TRUE(registry.contains("mid"));
    EXPECT_FALSE(registry.contains("nope"));
    EXPECT_EQ(registry.get("alpha"), 2);
    EXPECT_EQ(registry.get("zeta"), 1);
    const std::vector<std::string> names = registry.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "mid");
    EXPECT_EQ(names[2], "zeta");
}

TEST(RegistryTemplate, UnknownNameDiagnosticListsEveryRegisteredName) {
    const util::Registry<int> registry("exit policy",
                                       {{"greedy", 1}, {"qlearning", 2}});
    try {
        (void)registry.get("greedo");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(),
                     "unknown exit policy 'greedo' "
                     "(registered: greedy, qlearning)");
    }
}

// --- util::ParamReader -----------------------------------------------------

TEST(ParamReader, TypedGettersParseAndFallBack) {
    const util::ParamReader::Params params = {
        {"rate", "2.5"}, {"duty", "0.25"}, {"label", "x"}};
    util::ParamReader reader("trace source", "demo", params);
    EXPECT_EQ(reader.positive("rate", 1.0), 2.5);
    EXPECT_EQ(reader.fraction("duty", 0.5), 0.25);
    EXPECT_EQ(reader.number("absent", -3.0), -3.0);
    EXPECT_EQ(reader.text("label", "y"), "x");
    EXPECT_EQ(reader.text("missing", "fallback"), "fallback");
    reader.done();  // every provided key was consumed
}

TEST(ParamReader, DoneRejectsUnconsumedKeysWithAcceptList) {
    const util::ParamReader::Params params = {{"typo_key", "1"}};
    util::ParamReader reader("arrival source", "bursty", params);
    (void)reader.positive("burst_min", 1.0);
    (void)reader.positive("burst_max", 4.0);
    try {
        reader.done();
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(),
                     "arrival source 'bursty': unknown parameter 'typo_key' "
                     "(accepts: burst_max, burst_min)");
    }
}

TEST(ParamReader, RejectsMalformedAndOutOfRangeNumbers) {
    const util::ParamReader::Params params = {
        {"rate", "fast"}, {"duty", "1.5"}, {"count", "-2"}};
    util::ParamReader bad_number("trace source", "s", params);
    EXPECT_THROW((void)bad_number.number("rate", 0.0), std::invalid_argument);
    util::ParamReader bad_fraction("trace source", "s", params);
    EXPECT_THROW((void)bad_fraction.fraction("duty", 0.0),
                 std::invalid_argument);
    util::ParamReader bad_positive("trace source", "s", params);
    EXPECT_THROW((void)bad_positive.positive("count", 1.0),
                 std::invalid_argument);
    util::ParamReader missing("trace source", "s", params);
    EXPECT_THROW((void)missing.required_text("name"), std::invalid_argument);
}

// --- workspace / profile transparency over the sweep engine ----------------

void expect_metrics_bitwise(const exp::MetricMap& a, const exp::MetricMap& b) {
    ASSERT_EQ(a.size(), b.size());
    auto ia = a.begin();
    auto ib = b.begin();
    for (; ia != a.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        // Bitwise, not tolerance: 0.0 == -0.0 would slip through ==.
        EXPECT_EQ(std::memcmp(&ia->second, &ib->second, sizeof(double)), 0)
            << ia->first << ": " << ia->second << " vs " << ib->second;
    }
}

void expect_counters_equal(const sim::SimCounters& a,
                           const sim::SimCounters& b) {
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.full_steps, b.full_steps);
    EXPECT_EQ(a.drained_steps, b.drained_steps);
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.unit_starts, b.unit_starts);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.queue_pushes, b.queue_pushes);
    EXPECT_EQ(a.queue_pops, b.queue_pops);
}

/// Every SimResult field except the work counters.
void expect_outputs_bitwise(const sim::SimResult& a, const sim::SimResult& b) {
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const sim::EventRecord& ra = a.records[i];
        const sim::EventRecord& rb = b.records[i];
        EXPECT_EQ(ra.event_id, rb.event_id);
        EXPECT_EQ(ra.arrival_time_s, rb.arrival_time_s);
        EXPECT_EQ(ra.processed, rb.processed);
        EXPECT_EQ(ra.correct, rb.correct);
        EXPECT_EQ(ra.exit_taken, rb.exit_taken);
        EXPECT_EQ(ra.hops, rb.hops);
        EXPECT_EQ(ra.completion_time_s, rb.completion_time_s);
        EXPECT_EQ(ra.inference_start_s, rb.inference_start_s);
        EXPECT_EQ(ra.energy_spent_mj, rb.energy_spent_mj);
        EXPECT_EQ(ra.macs, rb.macs);
    }
    EXPECT_EQ(a.total_harvested_mj, b.total_harvested_mj);
    EXPECT_EQ(a.duration_s, b.duration_s);
    EXPECT_EQ(a.deadline_s, b.deadline_s);
    EXPECT_EQ(a.deaths, b.deaths);
    EXPECT_EQ(a.recovery_energy_mj, b.recovery_energy_mj);
    EXPECT_EQ(a.wasted_macs, b.wasted_macs);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.in_flight, b.in_flight);
}

void expect_sim_bitwise(const sim::SimResult& a, const sim::SimResult& b) {
    expect_outputs_bitwise(a, b);
    expect_counters_equal(a.counters, b.counters);
}

void expect_outcomes_bitwise(const std::vector<exp::ScenarioOutcome>& a,
                             const std::vector<exp::ScenarioOutcome>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        expect_metrics_bitwise(a[i].metrics, b[i].metrics);
        ASSERT_EQ(a[i].sim != nullptr, b[i].sim != nullptr);
        if (a[i].sim != nullptr) expect_sim_bitwise(*a[i].sim, *b[i].sim);
    }
}

std::vector<exp::ScenarioSpec> quick_specs(const std::string& name) {
    exp::SweepCli cli;
    cli.quick = true;
    cli.replicas = 1;
    cli.replicas_given = true;
    cli.threads = 1;
    return exp::build_experiment_scenarios(exp::make_experiment(name), cli);
}

/// The historical allocate-per-run path: every scenario executed with a
/// null workspace, serially.
std::vector<exp::ScenarioOutcome> run_without_workspace(
    const std::vector<exp::ScenarioSpec>& specs) {
    std::vector<exp::ScenarioOutcome> outcomes;
    outcomes.reserve(specs.size());
    for (const exp::ScenarioSpec& spec : specs) {
        exp::ScenarioContext ctx;
        ctx.seed = spec.seed;
        ctx.replica = spec.replica;
        ctx.workspace = nullptr;
        outcomes.push_back(spec.run(ctx));
    }
    return outcomes;
}

std::string aggregate_csv_bytes(const std::vector<exp::ScenarioSpec>& specs,
                                const std::vector<exp::ScenarioOutcome>& o,
                                const std::string& tag) {
    const std::string path =
        test::scratch_dir() + "imx_hotpath_" + tag + ".csv";
    exp::write_aggregate_csv(path, exp::aggregate(specs, o));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    return buf.str();
}

TEST(WorkspaceEquality, EveryQuickExperimentMatchesNoWorkspaceBitwise) {
    for (const std::string& name : exp::experiment_names()) {
        SCOPED_TRACE(name);
        const auto specs = quick_specs(name);
        // Workspace pool on (the runner always attaches one per worker).
        const auto pooled = exp::run_sweep(specs, exp::RunnerConfig{1});
        // Historical allocate-per-run path.
        const auto bare = run_without_workspace(specs);
        expect_outcomes_bitwise(pooled, bare);
        EXPECT_EQ(aggregate_csv_bytes(specs, pooled, name + "_ws"),
                  aggregate_csv_bytes(specs, bare, name + "_bare"));
    }
}

TEST(WorkspaceEquality, ThreadCountIsInvariantWithWorkspacePool) {
    const auto specs = quick_specs("harvester-ablation");
    const auto one = exp::run_sweep(specs, exp::RunnerConfig{1});
    const auto three = exp::run_sweep(specs, exp::RunnerConfig{3});
    expect_outcomes_bitwise(one, three);
}

TEST(WorkspaceEquality, ThreeShardJournalMergeMatchesUnsharded) {
    const auto specs = quick_specs("harvester-ablation");
    exp::JournalHeader header;
    header.experiment = "harvester-ablation";
    header.total_specs = specs.size();
    header.quick = true;
    header.replicas = 1;

    const auto unsharded =
        exp::run_shard(specs, header, exp::RunnerConfig{2}, "", false);

    std::vector<std::string> journals;
    for (int i = 0; i < 3; ++i) {
        exp::JournalHeader shard_header = header;
        shard_header.shard = {i, 3};
        const std::string path = test::scratch_dir() + "imx_hotpath_shard" +
                                 std::to_string(i) + ".jsonl";
        (void)exp::run_shard(specs, shard_header, exp::RunnerConfig{2}, path,
                             false);
        journals.push_back(path);
    }
    const auto merged = exp::merge_journal_outcomes(header, specs, journals);
    for (const std::string& path : journals) std::remove(path.c_str());

    // Journals carry scalar metrics only, so compare through the aggregate
    // CSV — the exact artifact the merge contract promises byte-equal.
    EXPECT_EQ(
        aggregate_csv_bytes(specs, unsharded.outcomes, "unsharded"),
        aggregate_csv_bytes(specs, merged, "merged"));
}

TEST(SweepProfile, ProfiledSweepIsBitwiseIdenticalAtOneAndFourThreads) {
    const auto specs = quick_specs("harvester-ablation");
    const auto plain = exp::run_sweep(specs, exp::RunnerConfig{1});
    exp::SweepProfile one;
    expect_outcomes_bitwise(plain,
                            exp::run_sweep(specs, exp::RunnerConfig{1, &one}));
    exp::SweepProfile four;
    expect_outcomes_bitwise(plain,
                            exp::run_sweep(specs, exp::RunnerConfig{4, &four}));
    expect_counters_equal(one.counters, four.counters);
    EXPECT_EQ(one.scenario_s.size(), specs.size());
    EXPECT_EQ(four.scenario_s.size(), specs.size());
    EXPECT_GE(one.counters.runs, specs.size());
    EXPECT_GT(one.counters.full_steps, 0u);
}

// --- direct Simulator equivalences -----------------------------------------

// A sweep retains one record per event of every scenario it collects, so
// the record's field order must leave no padding hole.
TEST(EventRecordLayout, PacksIntoFiftySixBytes) {
    EXPECT_LE(sizeof(sim::EventRecord), 56u);
}

TEST(BatchedStepping, RunVariantsAgreeBitwiseWithAndWithoutWorkspace) {
    // A trace with dark stretches exercises both batched drains (idle
    // harvest-only and executing multi-exit) and the early trailing break.
    std::vector<double> samples(20, 0.0);
    samples.insert(samples.end(), 100, 0.4);
    samples.insert(samples.end(), 30, 0.0);
    const energy::PowerTrace trace(1.0, std::move(samples));

    sim::SimConfig cfg;
    cfg.dt_s = 1.0;
    cfg.storage.capacity_mj = 8.0;
    cfg.storage.initial_mj = 1.0;
    cfg.queue_capacity = 4;
    const std::vector<sim::Event> events = {
        {0, 2.0}, {1, 3.0}, {2, 40.0}, {3, 90.0}};

    sim::GreedyAffordablePolicy policy_a;
    sim::Simulator simulator(trace, cfg);
    baselines::FixedBaselineModel model = baselines::make_lenet_cifar();
    const sim::SimResult base = simulator.run(events, model, policy_a);
    EXPECT_EQ(base.counters.runs, 1u);
    EXPECT_GT(base.counters.drained_steps, 0u);
    EXPECT_EQ(base.counters.evaluations,
              static_cast<std::uint64_t>(base.processed_count()));

    // run() with a workspace: its reused queue ring, same values.
    sim::ScenarioWorkspace workspace;
    sim::GreedyAffordablePolicy policy_b;
    baselines::FixedBaselineModel model_b = baselines::make_lenet_cifar();
    const sim::SimResult with_ws =
        simulator.run(events, model_b, policy_b, &workspace);
    expect_sim_bitwise(base, with_ws);

    // run_into() reusing a result buffer (twice, to exercise reuse).
    sim::SimResult reused;
    sim::GreedyAffordablePolicy policy_c;
    baselines::FixedBaselineModel model_c = baselines::make_lenet_cifar();
    simulator.run_into(events, model_c, policy_c, reused, &workspace);
    sim::GreedyAffordablePolicy policy_d;
    baselines::FixedBaselineModel model_d = baselines::make_lenet_cifar();
    simulator.run_into(events, model_d, policy_d, reused, &workspace);
    expect_sim_bitwise(base, reused);

    // The workspace sums the counters of all three runs made through it.
    sim::SimCounters three_runs;
    for (int i = 0; i < 3; ++i) three_runs += base.counters;
    expect_counters_equal(workspace.counters, three_runs);

    // The same workspace's ring shrunk to capacity 1, then grown back to 4,
    // under a burst that overflows it: each run is bitwise a fresh run
    // without a workspace.
    const std::vector<sim::Event> burst = {{0, 2.0}, {1, 2.5}, {2, 3.0},
                                           {3, 3.5}, {4, 4.0}, {5, 40.0}};
    for (const int capacity : {1, 4}) {
        sim::SimConfig burst_cfg = cfg;
        burst_cfg.queue_capacity = capacity;
        sim::Simulator burst_sim(trace, burst_cfg);
        sim::GreedyAffordablePolicy fresh_policy;
        baselines::FixedBaselineModel fresh_model =
            baselines::make_lenet_cifar();
        const sim::SimResult fresh =
            burst_sim.run(burst, fresh_model, fresh_policy);
        sim::GreedyAffordablePolicy ws_policy;
        baselines::FixedBaselineModel ws_model = baselines::make_lenet_cifar();
        const sim::SimResult through_ws =
            burst_sim.run(burst, ws_model, ws_policy, &workspace);
        expect_sim_bitwise(fresh, through_ws);
        EXPECT_EQ(workspace.queue.size(), static_cast<std::size_t>(capacity));
        EXPECT_GT(through_ws.counters.queue_pushes, 0u) << capacity;
        // One slot overflows under the burst; four slots hold it.
        EXPECT_EQ(through_ws.dropped > 0, capacity == 1) << capacity;
    }
}

// --- the commit floor: skipping select_exit() is invisible -----------------

/// Forwards every call to a policy but keeps ExitPolicy's default commit
/// floor (no promise), so the simulator asks select_exit() at every step of
/// an uncommitted wait instead of draining it.
class NoFloor final : public sim::ExitPolicy {
public:
    explicit NoFloor(std::unique_ptr<sim::ExitPolicy> inner)
        : inner_(std::move(inner)) {}
    int select_exit(const sim::EnergyState& state,
                    const sim::InferenceModel& model) override {
        return inner_->select_exit(state, model);
    }
    bool continue_inference(const sim::EnergyState& state,
                            const sim::InferenceModel& model, int exit,
                            double confidence) override {
        return inner_->continue_inference(state, model, exit, confidence);
    }
    void observe(const sim::EnergyState& state, int exit, bool correct,
                 bool deadline_met) override {
        inner_->observe(state, exit, correct, deadline_met);
    }
    void observe_missed() override { inner_->observe_missed(); }

private:
    std::unique_ptr<sim::ExitPolicy> inner_;
};

const char* const kGreedyFamily[] = {"greedy", "slack-greedy",
                                     "queue-slack-greedy"};

/// A dark-gap trace: 400 s of income, then 600 s of nothing, repeated.
energy::PowerTrace dark_gap_trace(double duration_s) {
    std::vector<double> samples(static_cast<std::size_t>(duration_s));
    for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i] = i % 1000 < 400 ? 0.06 : 0.0;
    }
    return energy::PowerTrace(1.0, std::move(samples));
}

TEST(CommitFloor, GreedyFamilyDrainsBitwiseLikeAskingEveryStep) {
    constexpr double kDuration = 3000.0;
    std::vector<std::pair<std::string, energy::PowerTrace>> traces;
    for (const char* source : {"solar", "rf-bursty"}) {
        energy::PowerTrace trace =
            energy::make_trace(source, {kDuration, 1.0, 11});
        trace.rescale_total_energy(90.0);
        traces.emplace_back(source, std::move(trace));
    }
    traces.emplace_back("dark-gap", dark_gap_trace(kDuration));

    std::vector<std::pair<std::string, std::vector<sim::Event>>> arrivals;
    for (const char* source : {"uniform", "mmpp", "bursty"}) {
        arrivals.emplace_back(
            source, sim::generate_arrivals(source, {80, kDuration, 5}));
    }

    std::vector<std::pair<std::string, sim::RecoveryConfig>> recoveries;
    recoveries.emplace_back("off", sim::RecoveryConfig{});
    sim::RecoveryConfig failing;
    failing.enabled = true;
    failing.active_power_mw = 0.02;
    failing.strategy = "restart";
    recoveries.emplace_back("restart", failing);
    failing.strategy = "checkpoint";
    recoveries.emplace_back("ckpt-layer", failing);
    failing.granularity = sim::CheckpointGranularity::kPerExit;
    recoveries.emplace_back("ckpt-exit", failing);

    const auto desc = core::make_paper_network_desc();
    core::OracleInferenceModel model(desc, core::reference_nonuniform_policy(),
                                     {60.0, 68.0, 70.0});
    sim::PolicyContext context;
    context.num_exits = model.num_exits();
    sim::ScenarioWorkspace workspace;
    std::uint64_t drained_by_floor = 0;
    int runs = 0;
    for (const auto& [trace_name, trace] : traces) {
        for (const auto& [arrival_name, events] : arrivals) {
            for (const auto& [recovery_name, recovery] : recoveries) {
                for (const int queue : {0, 4, 16}) {
                    for (const double deadline :
                         {std::numeric_limits<double>::infinity(), 60.0}) {
                        for (const double capacity : {1.5, 6.0}) {
                            sim::SimConfig cfg;
                            cfg.storage = core::paper_storage_config();
                            cfg.storage.capacity_mj = capacity;
                            cfg.storage.death_threshold_mj = 0.3;
                            cfg.mcu = core::paper_mcu_config();
                            cfg.queue_capacity = queue;
                            cfg.deadline_s = deadline;
                            cfg.recovery = recovery;
                            sim::Simulator simulator(trace, cfg);
                            for (const char* policy_name : kGreedyFamily) {
                                SCOPED_TRACE(trace_name + "/" + arrival_name +
                                             "/" + recovery_name + "/q" +
                                             std::to_string(queue) + "/ddl" +
                                             std::to_string(deadline) +
                                             "/cap" + std::to_string(capacity) +
                                             "/" + policy_name);
                                const auto floored =
                                    sim::make_policy(policy_name, context);
                                NoFloor asking(
                                    sim::make_policy(policy_name, context));
                                const sim::SimResult a = simulator.run(
                                    events, model, *floored, &workspace);
                                const sim::SimResult b = simulator.run(
                                    events, model, asking, &workspace);
                                expect_outputs_bitwise(a, b);
                                EXPECT_EQ(
                                    a.counters.full_steps +
                                        a.counters.drained_steps,
                                    b.counters.full_steps +
                                        b.counters.drained_steps);
                                EXPECT_LE(a.counters.decisions,
                                          b.counters.decisions);
                                drained_by_floor += a.counters.drained_steps -
                                                    b.counters.drained_steps;
                                ++runs;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(runs, 3 * 3 * 4 * 3 * 2 * 2 * 3);
    // The floor did skip steps; otherwise this compared nothing.
    EXPECT_GT(drained_by_floor, 0u);
}

TEST(CommitFloor, GreedyFamilyWaitsBelowItsFloor) {
    const auto desc = core::make_paper_network_desc();
    core::OracleInferenceModel model(desc, core::reference_nonuniform_policy(),
                                     {60.0, 68.0, 70.0});
    util::Rng rng(2024);
    for (int trial = 0; trial < 2000; ++trial) {
        const double margin = trial % 4 == 0 ? 0.0 : rng.uniform(0.0, 0.5);
        sim::SlackSchedule schedule;
        schedule.min_slack_s = {0.0, rng.uniform(0.0, 60.0),
                                rng.uniform(60.0, 200.0)};
        std::unique_ptr<sim::ExitPolicy> policies[] = {
            std::make_unique<sim::GreedyAffordablePolicy>(margin),
            std::make_unique<sim::SlackGreedyPolicy>(schedule),
            std::make_unique<sim::QueueSlackGreedyPolicy>(schedule)};
        sim::EnergyState state;
        state.capacity_mj = rng.uniform(1.0, 10.0);
        state.energy_per_mmac_mj = rng.uniform(0.5, 3.0);
        state.charge_rate_mw = rng.uniform(0.0, 0.1);
        state.deadline_slack_s = trial % 3 == 0
                                     ? std::numeric_limits<double>::infinity()
                                     : rng.uniform(0.0, 300.0);
        state.queue_depth = static_cast<int>(rng.uniform_int(0, 16));
        state.queue_backlog = rng.uniform(0.0, 1.0);
        for (auto& policy : policies) {
            const double floor = policy->commit_floor_mj(state, model);
            ASSERT_TRUE(std::isfinite(floor));
            // Just below the floor, and anywhere under it.
            for (const double level :
                 {std::nextafter(floor, 0.0), rng.uniform(0.0, floor)}) {
                state.level_mj = level;
                EXPECT_EQ(policy->select_exit(state, model), -1)
                    << "level " << level << " floor " << floor;
            }
        }
    }
}

// --- the charge rate: tracked only for a policy that reads it ---------------

/// Forwards every call, the commit floor included, to a policy, but
/// declares that it reads the charge rate (or, with `reads` false, that it
/// does not), so the simulator tracks the EMA the wrapped policy runs
/// without. Records the largest rate any hook saw.
class RateReader final : public sim::ExitPolicy {
public:
    explicit RateReader(sim::ExitPolicy& inner, bool reads = true)
        : inner_(inner), reads_(reads) {}
    int select_exit(const sim::EnergyState& state,
                    const sim::InferenceModel& model) override {
        max_rate_seen = std::max(max_rate_seen, state.charge_rate_mw);
        return inner_.select_exit(state, model);
    }
    bool continue_inference(const sim::EnergyState& state,
                            const sim::InferenceModel& model, int exit,
                            double confidence) override {
        max_rate_seen = std::max(max_rate_seen, state.charge_rate_mw);
        return inner_.continue_inference(state, model, exit, confidence);
    }
    [[nodiscard]] double commit_floor_mj(
        const sim::EnergyState& state,
        const sim::InferenceModel& model) const override {
        return inner_.commit_floor_mj(state, model);
    }
    [[nodiscard]] bool reads_charge_rate() const override { return reads_; }
    void observe(const sim::EnergyState& state, int exit, bool correct,
                 bool deadline_met) override {
        inner_.observe(state, exit, correct, deadline_met);
    }
    void observe_missed() override { inner_.observe_missed(); }

    double max_rate_seen = 0.0;

private:
    sim::ExitPolicy& inner_;
    bool reads_;
};

/// A 3000 s trace from `source`, rescaled to 90 mJ.
energy::PowerTrace short_trace(const std::string& source) {
    energy::PowerTrace trace = energy::make_trace(source, {3000.0, 1.0, 11});
    trace.rescale_total_energy(90.0);
    return trace;
}

/// Runs `policy` bare and wrapped in a RateReader, and expects the same
/// SimResult bit for bit: what the policy never reads cannot change a run.
/// Returns the largest rate the wrapper saw.
double expect_rate_unobservable(sim::Simulator simulator,
                                const std::vector<sim::Event>& events,
                                sim::InferenceModel& model,
                                sim::ExitPolicy& bare,
                                sim::ExitPolicy& twin) {
    EXPECT_FALSE(bare.reads_charge_rate());
    const sim::SimResult a = simulator.run(events, model, bare);
    RateReader reader(twin);
    const sim::SimResult b = simulator.run(events, model, reader);
    expect_sim_bitwise(a, b);
    EXPECT_GT(a.processed_count(), 0);
    return reader.max_rate_seen;
}

TEST(ChargeRate, UnreadRateIsUnobservable) {
    const auto desc = core::make_paper_network_desc();
    core::OracleInferenceModel model(desc, core::reference_nonuniform_policy(),
                                     {60.0, 68.0, 70.0});
    sim::PolicyContext context;
    context.num_exits = model.num_exits();

    sim::SimConfig base;
    base.storage = core::paper_storage_config();
    base.storage.capacity_mj = 6.0;
    base.storage.death_threshold_mj = 0.3;
    base.mcu = core::paper_mcu_config();

    // A recovery cell: checkpointed units with a stall draw, on RF bursts.
    sim::SimConfig recovery = base;
    recovery.recovery.enabled = true;
    recovery.recovery.strategy = "checkpoint";
    recovery.recovery.active_power_mw = 0.02;
    // A queue-16 cell under MMPP arrivals and a 60 s deadline.
    sim::SimConfig queue = base;
    queue.queue_capacity = 16;
    queue.deadline_s = 60.0;

    const energy::PowerTrace rf = short_trace("rf-bursty");
    const energy::PowerTrace solar = short_trace("solar");
    const auto uniform = sim::generate_arrivals("uniform", {80, 3000.0, 5});
    const auto mmpp = sim::generate_arrivals("mmpp", {80, 3000.0, 5});
    double max_rate = 0.0;
    for (const char* name : kGreedyFamily) {
        SCOPED_TRACE(name);
        for (const bool queued : {false, true}) {
            const auto bare = sim::make_policy(name, context);
            const auto twin = sim::make_policy(name, context);
            max_rate = std::max(
                max_rate, expect_rate_unobservable(
                              sim::Simulator(queued ? solar : rf,
                                             queued ? queue : recovery),
                              queued ? mmpp : uniform, model, *bare, *twin));
        }
    }

    // A checkpointed baseline, whose policy commits at pickup.
    const sim::SimConfig checkpointed =
        baselines::checkpointed_sim_config(base);
    auto sonic = baselines::make_sonic_net(
        1234, baselines::step_unit_macs(checkpointed.mcu, checkpointed.dt_s));
    baselines::CommitAtPickupPolicy bare;
    baselines::CommitAtPickupPolicy twin;
    max_rate = std::max(max_rate,
                        expect_rate_unobservable(
                            sim::Simulator(solar, checkpointed), uniform,
                            sonic, bare, twin));
    // The wrapped runs did track a rate; otherwise this compared nothing.
    EXPECT_GT(max_rate, 0.0);
}

TEST(ChargeRate, StaysZeroForAPolicyThatDoesNotReadIt) {
    const auto desc = core::make_paper_network_desc();
    core::OracleInferenceModel model(desc, core::reference_nonuniform_policy(),
                                     {60.0, 68.0, 70.0});
    sim::SimConfig cfg;
    cfg.storage = core::paper_storage_config();
    cfg.mcu = core::paper_mcu_config();
    sim::Simulator simulator(short_trace("solar"), cfg);
    const auto events = sim::generate_arrivals("uniform", {80, 3000.0, 5});
    for (const bool reads : {false, true}) {
        sim::GreedyAffordablePolicy greedy;
        RateReader probe(greedy, reads);
        (void)simulator.run(events, model, probe);
        if (reads) {
            EXPECT_GT(probe.max_rate_seen, 0.0);
        } else {
            EXPECT_EQ(probe.max_rate_seen, 0.0);
        }
    }
}

// --- the outcome shape: a SimResult for the canonical replica only ---------

core::SetupConfig mini_setup_config(int event_count) {
    core::SetupConfig config;
    config.event_count = event_count;
    config.duration_s = 1500.0;
    config.total_harvest_mj = 35.0;
    return config;
}

/// `setup` with `patch` applied the way build_paper_scenarios() applies it.
core::ExperimentSetup patched(core::ExperimentSetup setup,
                              const exp::SimPatch& patch) {
    if (patch.apply) {
        patch.apply(setup.multi_exit_sim);
        patch.apply(setup.checkpointed_sim);
    }
    if (patch.apply_setup) patch.apply_setup(setup);
    return setup;
}

/// An independent restatement of run_system_scenario()'s inputs, with every
/// run — training episodes included — made by Simulator::run into a fresh
/// SimResult: the evaluation run's result.
sim::SimResult reference_run(const core::ExperimentSetup& setup,
                             const exp::SystemSpec& system, int replica,
                             std::uint64_t seed) {
    const int n = static_cast<int>(setup.events.size());
    const double duration = setup.trace.duration();
    std::vector<sim::Event> events = setup.events;
    if (replica != 0) {
        std::uint64_t state = seed ^ 0x6576656eULL;
        const sim::ArrivalContext stream{n, duration, util::splitmix64(state)};
        events = sim::generate_arrivals(setup.config.arrival_source, stream,
                                        setup.config.arrival_params);
    }
    if (system.kind == exp::SystemKind::kSonicNet) {
        const sim::SimConfig& cfg = setup.checkpointed_sim;
        const auto unit = baselines::step_unit_macs(cfg.mcu, cfg.dt_s);
        auto model = baselines::make_sonic_net(1234, unit);
        baselines::CommitAtPickupPolicy policy;
        sim::Simulator simulator(setup.trace, cfg);
        return simulator.run(events, model, policy);
    }
    core::OracleInferenceModel model(setup.network, setup.deployed_policy,
                                     setup.exit_accuracy);
    sim::PolicyContext context;
    context.num_exits = setup.network.num_exits;
    context.runtime = system.runtime;
    if (replica != 0) {
        std::uint64_t state = seed ^ 0x71706f6cULL;
        context.runtime.seed = util::splitmix64(state);
    }
    const bool learning = system.kind == exp::SystemKind::kOursQLearning;
    std::string name = system.policy;
    if (name.empty()) name = learning ? "qlearning" : "greedy";
    const auto policy = sim::make_policy(name, context);
    sim::Simulator simulator(setup.trace, setup.multi_exit_sim);
    if (auto* learner =
            dynamic_cast<sim::QLearningExitPolicy*>(policy.get())) {
        const auto uniform = sim::make_arrival_source("uniform");
        for (int ep = 0; ep < system.train_episodes; ++ep) {
            std::uint64_t train_seed = 2000 + static_cast<std::uint64_t>(ep);
            if (replica != 0) {
                std::uint64_t state = seed ^ 0x7261696eULL;
                (void)util::splitmix64(state);
                state += static_cast<std::uint64_t>(ep);
                train_seed = util::splitmix64(state);
            }
            const auto episode = uniform->generate({n, duration, train_seed});
            (void)simulator.run(episode, model, *policy);
        }
        learner->set_eval_mode(true);
    }
    return simulator.run(events, model, *policy);
}

struct OutcomeCase {
    std::string name;
    exp::SystemSpec system;
    exp::SimPatch patch;
};

/// Greedy, Q-learning, a checkpointed baseline, a recovery cell and a
/// bounded-queue cell under bursty arrivals.
std::vector<OutcomeCase> outcome_cases() {
    using exp::SystemKind;
    const exp::SystemSpec greedy{"greedy", SystemKind::kOursStatic, 0, {}, ""};
    const exp::SystemSpec ql{"ql", SystemKind::kOursQLearning, 3, {}, ""};
    const exp::SystemSpec sonic{"SonicNet", SystemKind::kSonicNet, 0, {}, ""};
    const std::string policy = "queue-slack-greedy";
    const exp::SystemSpec qsg{"qsg", SystemKind::kOursPolicy, 0, {}, policy};

    sim::RecoveryConfig checkpoint;
    checkpoint.enabled = true;
    checkpoint.strategy = "checkpoint";
    checkpoint.active_power_mw = 0.02;
    const exp::SimPatch recovery = exp::recovery_patch({"", checkpoint, 0.3});
    const exp::SimPatch bursty = exp::arrival_patch({"", "bursty", {}, {}});
    const auto queue = exp::cross_patches({exp::queue_patch(4)}, {bursty})[0];

    std::vector<OutcomeCase> cases;
    cases.push_back({"greedy", greedy, {}});
    cases.push_back({"qlearning", ql, {}});
    cases.push_back({"checkpointed", sonic, {}});
    cases.push_back({"recovery", greedy, recovery});
    cases.push_back({"queue", qsg, queue});
    return cases;
}

TEST(OutcomeShape, OnlyTheCanonicalReplicaKeepsASimResult) {
    const std::vector<OutcomeCase> cases = outcome_cases();
    const core::ExperimentSetup base =
        core::make_paper_setup(mini_setup_config(60));
    // A larger Q-learning scenario, run through the workspace before every
    // case, so its result buffer holds more (stale) records than the case
    // writes.
    const core::ExperimentSetup larger =
        core::make_paper_setup(mini_setup_config(150));
    const exp::SystemSpec& larger_system = cases[1].system;
    for (const OutcomeCase& c : cases) {
        const core::ExperimentSetup setup = patched(base, c.patch);
        for (int replica = 0; replica < 4; ++replica) {
            const std::uint64_t seed = exp::scenario_seed(11, c.name, replica);
            const sim::SimResult reference =
                reference_run(setup, c.system, replica, seed);
            ASSERT_GT(reference.processed_count(), 0);
            for (const bool attached : {false, true}) {
                SCOPED_TRACE(c.name + "#" + std::to_string(replica) +
                             (attached ? " workspace" : " no workspace"));
                sim::ScenarioWorkspace workspace;
                exp::ScenarioContext ctx;
                ctx.seed = seed;
                ctx.replica = replica;
                if (attached) {
                    exp::ScenarioContext warm;
                    warm.seed = 5;
                    warm.replica = 1;
                    warm.workspace = &workspace;
                    (void)exp::run_system_scenario(larger, larger_system, warm);
                    ASSERT_GT(workspace.result.records.size(),
                              reference.records.size());
                    ctx.workspace = &workspace;
                }
                const exp::ScenarioOutcome outcome =
                    exp::run_system_scenario(setup, c.system, ctx);
                expect_metrics_bitwise(outcome.metrics,
                                       exp::sim_metrics(reference));
                if (replica == 0) {
                    ASSERT_NE(outcome.sim, nullptr);
                    expect_sim_bitwise(*outcome.sim, reference);
                } else {
                    EXPECT_EQ(outcome.sim, nullptr);
                }
            }
        }
    }
}

TEST(OutcomeShape, SweepKeepsASimResultForReplicaZeroOnly) {
    const std::vector<OutcomeCase> cases = outcome_cases();
    exp::PaperSweep sweep;
    sweep.traces = {{"mini", mini_setup_config(60)}};
    sweep.systems = {cases[0].system, cases[1].system, cases[2].system};
    sweep.replicas = 4;
    const auto specs = exp::build_paper_scenarios(sweep);
    ASSERT_EQ(specs.size(), 12u);
    const auto one = exp::run_sweep(specs, exp::RunnerConfig{1});
    const auto four = exp::run_sweep(specs, exp::RunnerConfig{4});
    expect_outcomes_bitwise(one, four);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].id);
        EXPECT_EQ(one[i].sim != nullptr, specs[i].replica == 0);
    }
}

// --- sim_metrics: one pass, bit for bit the per-metric walks ---------------

/// The percentile sim_metrics() read before the one-pass summary: 0.0 for
/// no sample, else util::percentile() over the fully sorted sample.
double sorted_percentile(const std::vector<double>& sorted, double q) {
    return sorted.empty() ? 0.0 : util::percentile(sorted, q);
}

/// sim_metrics() as it was before the one-pass summary: one walk of the
/// records per metric, and a full sort of the latencies.
exp::MetricMap per_metric_walks(const sim::SimResult& r) {
    int processed = 0;
    for (const auto& e : r.records) processed += e.processed ? 1 : 0;
    int correct = 0;
    for (const auto& e : r.records) {
        correct += (e.processed && e.correct) ? 1 : 0;
    }
    double latency_sum = 0.0;
    int n = 0;
    for (const auto& e : r.records) {
        if (!e.processed) continue;
        latency_sum += e.completion_time_s - e.arrival_time_s;
        ++n;
    }
    std::vector<double> latencies;
    for (const auto& e : r.records) {
        if (!e.processed) continue;
        latencies.push_back(e.completion_time_s - e.arrival_time_s);
    }
    std::sort(latencies.begin(), latencies.end());
    double inference_sum = 0.0;
    for (const auto& e : r.records) {
        if (!e.processed) continue;
        inference_sum += e.completion_time_s - e.inference_start_s;
    }
    double macs_sum = 0.0;
    for (const auto& e : r.records) {
        if (e.processed) macs_sum += static_cast<double>(e.macs);
    }
    double miss_rate = 0.0;
    if (!r.records.empty() &&
        r.deadline_s != std::numeric_limits<double>::infinity()) {
        int missed = 0;
        for (const auto& e : r.records) {
            const bool on_time =
                e.processed &&
                e.completion_time_s - e.arrival_time_s <= r.deadline_s;
            missed += on_time ? 0 : 1;
        }
        miss_rate = static_cast<double>(missed) /
                    static_cast<double>(r.records.size());
    }
    double consumed = 0.0;
    for (const auto& e : r.records) consumed += e.energy_spent_mj;
    const int total = static_cast<int>(r.records.size());

    exp::MetricMap m;
    m["iepmj"] = static_cast<double>(correct) / r.total_harvested_mj;
    m["acc_all_pct"] =
        100.0 * (r.records.empty() ? 0.0
                                   : static_cast<double>(correct) /
                                         static_cast<double>(r.records.size()));
    m["acc_processed_pct"] =
        100.0 * (processed == 0 ? 0.0
                                : static_cast<double>(correct) /
                                      static_cast<double>(processed));
    m["processed"] = static_cast<double>(processed);
    m["missed"] = static_cast<double>(total - processed);
    m["event_latency_s"] = n == 0 ? 0.0 : latency_sum / n;
    m["p50_latency_s"] = sorted_percentile(latencies, 0.50);
    m["p95_latency_s"] = sorted_percentile(latencies, 0.95);
    m["p99_latency_s"] = sorted_percentile(latencies, 0.99);
    m["inference_latency_s"] = n == 0 ? 0.0 : inference_sum / n;
    m["inference_macs_m"] = (n == 0 ? 0.0 : macs_sum / n) / 1e6;
    m["deadline_miss_pct"] = 100.0 * miss_rate;
    m["harvested_mj"] = r.total_harvested_mj;
    m["consumed_mj"] = consumed;
    m["dropped"] = static_cast<double>(r.dropped);
    m["in_flight"] = static_cast<double>(r.in_flight);
    m["deaths"] = static_cast<double>(r.deaths);
    m["recovery_mj"] = r.recovery_energy_mj;
    m["wasted_macs_m"] = static_cast<double>(r.wasted_macs) / 1e6;
    return m;
}

/// A random result: `processed_share` of the events processed, latencies
/// from a four-value set when `tied` (so percentiles fall on ties), and the
/// deadline infinite, random, or exactly one of the tied latencies.
sim::SimResult random_result(util::Rng& rng, int events,
                             double processed_share, bool tied,
                             int deadline_kind) {
    sim::SimResult r;
    const double tied_latencies[] = {0.0, 1.0, 2.5, 10.0};
    for (int i = 0; i < events; ++i) {
        sim::EventRecord e;
        e.event_id = i;
        e.arrival_time_s = rng.uniform(0.0, 1000.0);
        e.processed = rng.uniform(0.0, 1.0) < processed_share;
        e.correct = rng.uniform(0.0, 1.0) < 0.7;
        e.energy_spent_mj = rng.uniform(0.0, 3.0);
        if (e.processed) {
            const double latency =
                tied ? tied_latencies[rng.uniform_int(0, 3)]
                     : rng.uniform(0.0, 200.0);
            e.completion_time_s = e.arrival_time_s + latency;
            e.inference_start_s =
                rng.uniform(e.arrival_time_s, e.completion_time_s);
            e.macs = static_cast<std::int64_t>(rng.uniform_int(1, 3000000));
            e.exit_taken = static_cast<int>(rng.uniform_int(0, 2));
        }
        r.records.push_back(e);
    }
    r.total_harvested_mj = rng.uniform(1.0, 500.0);
    r.deadline_s = deadline_kind == 0 ? std::numeric_limits<double>::infinity()
                   : deadline_kind == 1 ? rng.uniform(0.5, 150.0)
                                        : 2.5;
    r.deaths = static_cast<int>(rng.uniform_int(0, 5));
    r.recovery_energy_mj = rng.uniform(0.0, 2.0);
    r.wasted_macs = static_cast<std::int64_t>(rng.uniform_int(0, 5000000));
    r.dropped = static_cast<int>(rng.uniform_int(0, 5));
    r.in_flight = static_cast<int>(rng.uniform_int(0, 2));
    return r;
}

void expect_double_bitwise(double a, double b, const char* what) {
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
        << what << ": " << a << " vs " << b;
}

TEST(SimMetrics, OnePassEqualsThePerMetricWalksBitwise) {
    util::Rng rng(31);
    int cases = 0;
    for (const int events : {0, 1, 2, 7, 100, 500}) {
        for (const double share : {0.0, 0.5, 1.0}) {
            for (const bool tied : {false, true}) {
                for (int deadline_kind = 0; deadline_kind < 3;
                     ++deadline_kind) {
                    for (int trial = 0; trial < 3; ++trial) {
                        SCOPED_TRACE(std::to_string(events) +
                                     " events, share " +
                                     std::to_string(share) +
                                     (tied ? ", tied" : "") + ", deadline " +
                                     std::to_string(deadline_kind));
                        const sim::SimResult r = random_result(
                            rng, events, share, tied, deadline_kind);
                        const exp::MetricMap old = per_metric_walks(r);
                        expect_metrics_bitwise(exp::sim_metrics(r), old);
                        // The accessors read the same summary.
                        expect_double_bitwise(r.iepmj(), old.at("iepmj"),
                                              "iepmj");
                        expect_double_bitwise(
                            100.0 * r.accuracy_all_events(),
                            old.at("acc_all_pct"), "acc_all");
                        expect_double_bitwise(
                            100.0 * r.accuracy_processed(),
                            old.at("acc_processed_pct"), "acc_processed");
                        EXPECT_EQ(r.processed_count(), old.at("processed"));
                        EXPECT_EQ(r.missed_count(), old.at("missed"));
                        expect_double_bitwise(r.mean_event_latency_s(),
                                              old.at("event_latency_s"),
                                              "event_latency");
                        expect_double_bitwise(r.latency_percentile_s(0.95),
                                              old.at("p95_latency_s"), "p95");
                        expect_double_bitwise(r.mean_inference_latency_s(),
                                              old.at("inference_latency_s"),
                                              "inference_latency");
                        expect_double_bitwise(r.mean_inference_macs() / 1e6,
                                              old.at("inference_macs_m"),
                                              "inference_macs");
                        expect_double_bitwise(
                            100.0 * r.deadline_miss_rate(),
                            old.at("deadline_miss_pct"), "miss");
                        expect_double_bitwise(r.total_consumed_mj(),
                                              old.at("consumed_mj"),
                                              "consumed");
                        ++cases;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 6 * 3 * 2 * 3 * 3);
}

TEST(SimMetrics, SelectedPercentilesEqualSortedOnes) {
    util::Rng rng(8);
    for (const int n : {1, 2, 3, 10, 99, 100, 101, 1000}) {
        for (const bool tied : {false, true}) {
            std::vector<double> sample;
            for (int i = 0; i < n; ++i) {
                sample.push_back(
                    tied ? static_cast<double>(rng.uniform_int(0, 3))
                         : rng.uniform(0.0, 50.0));
            }
            std::vector<double> sorted = sample;
            std::sort(sorted.begin(), sorted.end());
            const sim::LatencyPercentiles p =
                sim::select_latency_percentiles(sample);
            expect_double_bitwise(p.p50_s, util::percentile(sorted, 0.50),
                                  "p50");
            expect_double_bitwise(p.p95_s, util::percentile(sorted, 0.95),
                                  "p95");
            expect_double_bitwise(p.p99_s, util::percentile(sorted, 0.99),
                                  "p99");
        }
    }
    std::vector<double> empty;
    const sim::LatencyPercentiles none = sim::select_latency_percentiles(empty);
    EXPECT_EQ(none.p50_s, 0.0);
    EXPECT_EQ(none.p99_s, 0.0);
}

TEST(SimMetrics, KeepsTheContractChecks) {
    sim::SimResult r;
    r.records.resize(2);
    r.records[0].processed = true;
    r.records[0].arrival_time_s = 5.0;
    r.records[0].completion_time_s = 7.0;
    r.total_harvested_mj = 0.0;  // IEpmJ needs a positive harvest
    EXPECT_THROW((void)exp::sim_metrics(r), util::ContractViolation);
    r.total_harvested_mj = 1.0;
    r.deadline_s = 0.0;  // a deadline must be positive
    EXPECT_THROW((void)exp::sim_metrics(r), util::ContractViolation);
    r.deadline_s = 10.0;
    EXPECT_NO_THROW((void)exp::sim_metrics(r));
    r.records[0].completion_time_s = 4.0;  // completes before it arrives
    EXPECT_THROW((void)exp::sim_metrics(r), util::ContractViolation);
}

}  // namespace
