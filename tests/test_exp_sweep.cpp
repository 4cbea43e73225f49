// Tests for the exp:: scenario-sweep engine: seed derivation,
// parallel runner determinism (1 vs N threads bitwise identical), replica
// aggregation statistics, grid composition, what replicas share with their
// cell, the MetricMap against the ordered map it replaced (on a shared name
// table too) and the one table a grid's outcomes share, edge cases, and
// concurrent name resolution in the registries the sweep workers read.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "energy/trace_registry.hpp"
#include "exp/aggregate.hpp"
#include "exp/experiment.hpp"
#include "exp/paper_scenarios.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "scratch_dir.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/policies/registry.hpp"
#include "sim/recovery/registry.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;

// --- Registries under concurrency -----------------------------------------

/// Resolve every name of all five registries; returns how many resolved.
std::size_t resolve_every_name(const std::string& trace_csv,
                               const std::string& arrivals_csv) {
    std::size_t resolved = 0;
    for (const auto& name : sim::policy_names()) {
        resolved += sim::make_policy(name) != nullptr ? 1 : 0;
    }
    energy::TraceSourceContext trace_ctx;
    trace_ctx.duration_s = 60.0;
    for (const auto& name : energy::trace_source_names()) {
        energy::TraceParams params;
        if (name == "csv") params["path"] = trace_csv;
        resolved += energy::make_trace(name, trace_ctx, params).size() > 0 ? 1 : 0;
    }
    for (const auto& name : sim::arrival_source_names()) {
        sim::ArrivalParams params;
        if (name == "csv") params["path"] = arrivals_csv;
        resolved += sim::make_arrival_source(name, params) != nullptr ? 1 : 0;
    }
    for (const auto& name : sim::recovery_strategy_names()) {
        resolved += sim::make_recovery_strategy(name) != nullptr ? 1 : 0;
    }
    for (const auto& name : exp::experiment_names()) {
        resolved += exp::make_experiment(name).spec.name == name ? 1 : 0;
    }
    return resolved;
}

TEST(Registries, EightThreadsResolveEveryNameAtOnce) {
    // Every registry is a function-local static table, built on first use
    // and only read afterwards, with no lock. This test is the first in the
    // binary and ctest runs each test in its own process, so these threads
    // race the tables' construction as well as the lookups; the
    // ThreadSanitizer CI job runs this binary.
    const std::string dir = test::scratch_dir();
    const std::string trace_csv = dir + "trace.csv";
    const std::string arrivals_csv = dir + "arrivals.csv";
    std::ofstream(trace_csv) << "time_s,power_mw\n0,0.1\n1,0.1\n2,0.1\n";
    std::ofstream(arrivals_csv) << "1\n2\n3\n";

    constexpr int kThreads = 8;
    std::atomic<bool> go{false};
    std::vector<std::size_t> resolved(kThreads, 0);
    std::vector<std::string> errors(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load()) std::this_thread::yield();
            try {
                resolved[t] = resolve_every_name(trace_csv, arrivals_csv);
            } catch (const std::exception& e) {
                errors[t] = e.what();
            }
        });
    }
    go.store(true);
    for (auto& thread : threads) thread.join();

    const std::size_t expected =
        sim::policy_names().size() + energy::trace_source_names().size() +
        sim::arrival_source_names().size() +
        sim::recovery_strategy_names().size() + exp::experiment_names().size();
    EXPECT_GE(expected, 30u);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(errors[t], "") << "thread " << t;
        EXPECT_EQ(resolved[t], expected) << "thread " << t;
    }
}

// --- Seed derivation ------------------------------------------------------

TEST(ScenarioSeed, DeterministicAndDistinct) {
    const auto a0 = exp::scenario_seed(7, "trace/sysA", 0);
    EXPECT_EQ(a0, exp::scenario_seed(7, "trace/sysA", 0));
    EXPECT_NE(a0, exp::scenario_seed(7, "trace/sysA", 1));
    EXPECT_NE(a0, exp::scenario_seed(7, "trace/sysB", 0));
    EXPECT_NE(a0, exp::scenario_seed(8, "trace/sysA", 0));
}

// --- Runner ---------------------------------------------------------------

exp::ScenarioSpec synthetic_scenario(const std::string& group, int replica,
                                     std::uint64_t base_seed) {
    exp::ScenarioSpec spec;
    spec.group = group;
    spec.id = group + "#" + std::to_string(replica);
    spec.replica = replica;
    spec.seed = exp::scenario_seed(base_seed, group, replica);
    spec.run = [](const exp::ScenarioContext& ctx) {
        util::Rng rng(ctx.seed);
        exp::ScenarioOutcome outcome;
        double sum = 0.0;
        for (int i = 0; i < 1000; ++i) sum += rng.uniform();
        outcome.metrics["sum"] = sum;
        outcome.metrics["first"] = util::Rng(ctx.seed).uniform();
        return outcome;
    };
    return spec;
}

TEST(RunSweep, EmptyGridYieldsEmptyResults) {
    const auto outcomes = exp::run_sweep({}, {4});
    EXPECT_TRUE(outcomes.empty());
}

TEST(RunSweep, SingleScenario) {
    std::vector<exp::ScenarioSpec> specs = {synthetic_scenario("solo", 0, 1)};
    const auto outcomes = exp::run_sweep(specs, {4});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_GT(outcomes[0].metrics.at("sum"), 0.0);
}

TEST(RunSweep, ResultsInSpecOrderForAnyThreadCount) {
    std::vector<exp::ScenarioSpec> specs;
    for (int g = 0; g < 4; ++g) {
        for (int r = 0; r < 4; ++r) {
            specs.push_back(
                synthetic_scenario("group" + std::to_string(g), r, 42));
        }
    }
    const auto serial = exp::run_sweep(specs, {1});
    const auto parallel = exp::run_sweep(specs, {8});
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        // Bitwise equality: same scenario, same seed, same slot.
        EXPECT_EQ(serial[i].metrics.at("sum"), parallel[i].metrics.at("sum"))
            << "scenario " << specs[i].id;
    }
}

TEST(RunSweep, AggregatedMetricsThreadCountInvariant) {
    std::vector<exp::ScenarioSpec> specs;
    for (int g = 0; g < 3; ++g) {
        for (int r = 0; r < 5; ++r) {
            specs.push_back(
                synthetic_scenario("group" + std::to_string(g), r, 7));
        }
    }
    const auto agg1 = exp::aggregate(specs, exp::run_sweep(specs, {1}));
    const auto aggN = exp::aggregate(specs, exp::run_sweep(specs, {5}));
    ASSERT_EQ(agg1.size(), aggN.size());
    for (std::size_t i = 0; i < agg1.size(); ++i) {
        EXPECT_EQ(agg1[i].group, aggN[i].group);
        EXPECT_EQ(agg1[i].replicas, aggN[i].replicas);
        for (const auto& [name, stats] : agg1[i].metrics) {
            const auto& other = aggN[i].metrics.at(name);
            // Bitwise identical, not approximately equal.
            EXPECT_EQ(stats.mean, other.mean) << agg1[i].group << "/" << name;
            EXPECT_EQ(stats.stddev, other.stddev);
            EXPECT_EQ(stats.ci95, other.ci95);
            EXPECT_EQ(stats.min, other.min);
            EXPECT_EQ(stats.max, other.max);
        }
    }
}

TEST(RunSweep, LowestIndexExceptionWins) {
    std::vector<exp::ScenarioSpec> specs;
    for (int i = 0; i < 6; ++i) {
        exp::ScenarioSpec spec;
        spec.group = "err";
        spec.id = "err#" + std::to_string(i);
        spec.replica = i;
        spec.run = [i](const exp::ScenarioContext&) -> exp::ScenarioOutcome {
            if (i == 2) throw std::runtime_error("boom-2");
            if (i == 4) throw std::runtime_error("boom-4");
            return {};
        };
        specs.push_back(std::move(spec));
    }
    try {
        exp::run_sweep(specs, {4});
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom-2");
    }
}

// --- Aggregation statistics -----------------------------------------------

TEST(Aggregate, ReplicaStatsMatchClosedForm) {
    std::vector<exp::ScenarioSpec> specs;
    std::vector<exp::ScenarioOutcome> outcomes;
    const double values[] = {1.0, 2.0, 3.0, 4.0};
    for (int r = 0; r < 4; ++r) {
        exp::ScenarioSpec spec;
        spec.group = "g";
        spec.id = "g#" + std::to_string(r);
        spec.replica = r;
        specs.push_back(spec);
        exp::ScenarioOutcome outcome;
        outcome.metrics["m"] = values[r];
        outcomes.push_back(std::move(outcome));
    }
    const auto groups = exp::aggregate(specs, outcomes);
    ASSERT_EQ(groups.size(), 1u);
    const auto& stats = groups[0].metrics.at("m");
    EXPECT_EQ(stats.count, 4u);
    EXPECT_DOUBLE_EQ(stats.mean, 2.5);
    const double expected_sd = std::sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3.0);
    EXPECT_DOUBLE_EQ(stats.stddev, expected_sd);
    EXPECT_DOUBLE_EQ(stats.ci95, 1.96 * expected_sd / 2.0);
    EXPECT_DOUBLE_EQ(stats.min, 1.0);
    EXPECT_DOUBLE_EQ(stats.max, 4.0);
}

TEST(Aggregate, SingleReplicaHasZeroSpread) {
    exp::ScenarioSpec spec;
    spec.group = "g";
    spec.id = "g#0";
    exp::ScenarioOutcome outcome;
    outcome.metrics["m"] = 3.25;
    const auto groups = exp::aggregate({spec}, {outcome});
    ASSERT_EQ(groups.size(), 1u);
    const auto& stats = groups[0].metrics.at("m");
    EXPECT_EQ(stats.count, 1u);
    EXPECT_DOUBLE_EQ(stats.mean, 3.25);
    EXPECT_DOUBLE_EQ(stats.stddev, 0.0);
    EXPECT_DOUBLE_EQ(stats.ci95, 0.0);
}

TEST(Aggregate, EmptyInputYieldsNoGroups) {
    EXPECT_TRUE(exp::aggregate({}, {}).empty());
}

TEST(Aggregate, CsvRoundTripsGroupsAndColumns) {
    std::vector<exp::ScenarioSpec> specs;
    std::vector<exp::ScenarioOutcome> outcomes;
    for (int r = 0; r < 3; ++r) {
        exp::ScenarioSpec spec;
        spec.group = "cell";
        spec.id = "cell#" + std::to_string(r);
        spec.replica = r;
        spec.dims = {{"system", "ours"}};
        specs.push_back(spec);
        exp::ScenarioOutcome outcome;
        outcome.metrics["iepmj"] = 0.5 + 0.1 * r;
        outcomes.push_back(std::move(outcome));
    }
    const std::string path = test::scratch_dir() + "test_exp_sweep_agg.csv";
    exp::write_aggregate_csv(path, exp::aggregate(specs, outcomes));
    const auto table = util::read_csv(path);
    std::remove(path.c_str());
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.rows[0][table.column_index("group")], "cell");
    EXPECT_EQ(table.rows[0][table.column_index("dim_system")], "ours");
    EXPECT_NEAR(table.numeric_column("iepmj_mean")[0], 0.6, 1e-9);
    EXPECT_NEAR(table.numeric_column("iepmj_stddev")[0], 0.1, 1e-9);
}

// --- Grid composition -----------------------------------------------------

TEST(PaperGrid, ComposesTraceSystemReplicaProduct) {
    exp::PaperSweep sweep;
    sweep.traces = {{"t1", {}}, {"t2", {}}};
    sweep.systems = exp::paper_systems(2);
    sweep.replicas = 3;
    const auto specs = exp::build_paper_scenarios(sweep);
    EXPECT_EQ(specs.size(), 2u * 4u * 3u);

    std::vector<std::string> ids;
    for (const auto& spec : specs) {
        ids.push_back(spec.id);
        EXPECT_FALSE(spec.dims.at("trace").empty());
        EXPECT_FALSE(spec.dims.at("system").empty());
        EXPECT_TRUE(spec.run != nullptr);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
        << "scenario ids must be unique";
}

TEST(PaperGrid, SeedsIndependentOfGridPosition) {
    exp::PaperSweep small;
    small.traces = {{"t1", {}}};
    small.systems = {{"sys", exp::SystemKind::kOursStatic, 0, {}, ""}};
    small.replicas = 2;

    exp::PaperSweep large = small;
    large.systems.insert(large.systems.begin(),
                         {"other", exp::SystemKind::kSonicNet, 0, {}, ""});

    const auto specs_small = exp::build_paper_scenarios(small);
    const auto specs_large = exp::build_paper_scenarios(large);
    // The t1/sys scenarios keep their seeds when other scenarios are added.
    for (const auto& s : specs_small) {
        bool found = false;
        for (const auto& l : specs_large) {
            if (l.id == s.id) {
                EXPECT_EQ(l.seed, s.seed);
                found = true;
            }
        }
        EXPECT_TRUE(found) << s.id;
    }
}

// --- End-to-end: real simulation scenarios --------------------------------

exp::PaperSweep small_real_sweep() {
    exp::PaperSweep sweep;
    core::SetupConfig config;
    config.event_count = 60;
    config.duration_s = 1500.0;
    config.total_harvest_mj = 35.0;
    sweep.traces = {{"mini", config}};
    sweep.systems = {{"ours-static", exp::SystemKind::kOursStatic, 0, {}, ""},
                     {"ours-ql", exp::SystemKind::kOursQLearning, 2, {}, ""},
                     {"sonic", exp::SystemKind::kSonicNet, 0, {}, ""}};
    sweep.replicas = 2;
    return sweep;
}

TEST(PaperGrid, RealSimulationThreadCountInvariant) {
    const auto specs = exp::build_paper_scenarios(small_real_sweep());
    const auto agg1 = exp::aggregate(specs, exp::run_sweep(specs, {1}));
    const auto agg4 = exp::aggregate(specs, exp::run_sweep(specs, {4}));
    ASSERT_EQ(agg1.size(), agg4.size());
    for (std::size_t i = 0; i < agg1.size(); ++i) {
        for (const auto& [name, stats] : agg1[i].metrics) {
            EXPECT_EQ(stats.mean, agg4[i].metrics.at(name).mean)
                << agg1[i].group << "/" << name;
            EXPECT_EQ(stats.stddev, agg4[i].metrics.at(name).stddev)
                << agg1[i].group << "/" << name;
        }
    }
}

TEST(PaperGrid, ReplicaZeroMatchesDirectCanonicalRun) {
    // The engine's replica 0 must reproduce the historical single-run path.
    const auto sweep = small_real_sweep();
    const auto setup = core::make_paper_setup(sweep.traces[0].config);
    const auto specs = exp::build_paper_scenarios(sweep);
    const auto outcomes = exp::run_sweep(specs, {2});

    exp::SystemSpec static_spec{"ours-static", exp::SystemKind::kOursStatic,
                                0, {}, ""};
    const auto direct =
        exp::run_system_scenario(setup, static_spec, exp::ScenarioContext{});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].dims.at("system") == "ours-static" &&
            specs[i].replica == 0) {
            EXPECT_EQ(outcomes[i].metrics.at("iepmj"),
                      direct.metrics.at("iepmj"));
            EXPECT_EQ(outcomes[i].metrics.at("processed"),
                      direct.metrics.at("processed"));
        }
    }
}

TEST(PaperGrid, ReplicasDifferButAggregateDeterministic) {
    const auto specs = exp::build_paper_scenarios(small_real_sweep());
    const auto outcomes = exp::run_sweep(specs, {3});
    // Replicas of the learning system see different event streams, so their
    // metrics should not all collapse to a single value across the sweep.
    bool any_difference = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        for (std::size_t j = i + 1; j < specs.size(); ++j) {
            if (specs[i].group == specs[j].group &&
                outcomes[i].metrics.at("processed") !=
                    outcomes[j].metrics.at("processed")) {
                any_difference = true;
            }
        }
    }
    EXPECT_TRUE(any_difference)
        << "independent replicas should differ in at least one metric";

    // And a repeated run of the same grid is bitwise reproducible.
    const auto again = exp::run_sweep(specs, {2});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(outcomes[i].metrics.at("iepmj"),
                  again[i].metrics.at("iepmj"));
    }
}

TEST(SimPatch, AppliesToScenarioConfigs) {
    exp::PaperSweep sweep;
    core::SetupConfig config;
    config.event_count = 40;
    config.duration_s = 1000.0;
    config.total_harvest_mj = 20.0;
    sweep.traces = {{"mini", config}};
    sweep.systems = {{"ours-static", exp::SystemKind::kOursStatic, 0, {}, ""}};
    sweep.patches = {
        {"base", [](sim::SimConfig&) {}, {}, {}, ""},
        {"tiny-storage",
         [](sim::SimConfig& c) { c.storage.capacity_mj = 0.8; },
         {},
         {},
         ""},
    };
    const auto specs = exp::build_paper_scenarios(sweep);
    ASSERT_EQ(specs.size(), 2u);
    const auto outcomes = exp::run_sweep(specs, {2});
    // A much smaller buffer changes what the greedy policy can afford.
    EXPECT_NE(outcomes[0].metrics.at("consumed_mj"),
              outcomes[1].metrics.at("consumed_mj"));
    EXPECT_EQ(specs[1].dims.at("patch"), "tiny-storage");
}

/// A registered simulator grid at three replicas, run on four threads.
std::pair<std::vector<exp::ScenarioSpec>, std::vector<exp::ScenarioOutcome>>
run_replicated_grid(const char* name) {
    exp::SweepCli options;
    options.quick = true;
    options.replicas = 3;
    options.replicas_given = true;
    auto specs =
        exp::build_experiment_scenarios(exp::make_experiment(name), options);
    auto outcomes = exp::run_sweep(specs, {4});
    return {std::move(specs), std::move(outcomes)};
}

TEST(PaperGrid, EveryOutcomeSharesOneNameTable) {
    for (const char* name : {"recovery-ablation", "traffic-ablation"}) {
        SCOPED_TRACE(name);
        const auto [specs, outcomes] = run_replicated_grid(name);
        ASSERT_EQ(outcomes.size(), specs.size());
        const auto& table = outcomes.front().metrics.names();
        ASSERT_NE(table, nullptr);
        EXPECT_EQ(table->size(), 19u);
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_EQ(outcomes[i].metrics.names(), table) << specs[i].id;
        }
    }
}

TEST(PaperGrid, ReplicasShareTheirCellsLabelsAndClosure) {
    for (const char* name : {"recovery-ablation", "traffic-ablation"}) {
        SCOPED_TRACE(name);
        exp::SweepCli options;
        options.replicas = 4;
        options.replicas_given = true;
        const auto specs = exp::build_experiment_scenarios(
            exp::make_experiment(name), options);
        ASSERT_FALSE(specs.empty());
        // A copy of the grid, like the one a traced benchmark pass runs,
        // shares the same cells.
        const auto copy = specs;

        using Shared = std::pair<const exp::Dims::Map*, const exp::ScenarioFn*>;
        std::map<std::string, Shared> cells;
        std::map<const exp::ScenarioFn*, std::string> closure_owner;
        for (const auto* grid : {&specs, &copy}) {
            for (const auto& spec : *grid) {
                const auto* run = spec.run.target<exp::SharedScenarioFn>();
                ASSERT_NE(run, nullptr) << spec.id;
                const Shared shared{
                    &static_cast<const exp::Dims::Map&>(spec.dims),
                    run->fn.get()};
                const auto [it, first] = cells.emplace(spec.group, shared);
                EXPECT_TRUE(first || it->second == shared) << spec.id;
                // No two cells share a closure.
                const auto owner =
                    closure_owner.emplace(run->fn.get(), spec.group).first;
                EXPECT_EQ(owner->second, spec.group) << spec.id;
            }
        }
        EXPECT_EQ(cells.size() * 4, specs.size());
    }
}

// --- MetricMap ------------------------------------------------------------

/// Every (name, value) of a MetricMap, in iteration order.
std::vector<std::pair<std::string, double>> entries(const exp::MetricMap& m) {
    return {m.begin(), m.end()};
}

/// Every (name, value) of the reference map, in iteration order.
std::vector<std::pair<std::string, double>> entries(
    const std::map<std::string, double>& m) {
    return {m.begin(), m.end()};
}

TEST(MetricMap, BehavesAsTheOrderedMapItReplaced) {
    // Keys around the small-string size (15 chars in libstdc++) and keys
    // that are prefixes of one another.
    const std::vector<std::string> keys = {
        "",
        "a",
        "ab",
        "abc",
        "b",
        "p50_latency_s",
        "p5",
        "iepmj",
        "in_flight",
        "inference_macs_m",
        "inference_latency_s",
        std::string(14, 'k'),
        std::string(15, 'k'),
        std::string(16, 'k'),
        std::string(17, 'k'),
        std::string(15, 'k') + "a",
        std::string(14, 'k') + "z",
        "acc_processed_pct",
        "acc_processed_pct_",
        "zzz"};
    util::Rng rng(0x6d6d6170ULL);
    const auto any_key = [&] {
        return keys[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(keys.size()) - 1))];
    };
    for (int trial = 0; trial < 40; ++trial) {
        exp::MetricMap flat;
        std::map<std::string, double> ref;
        // Odd trials start from a shared name table, as a producer's
        // outcomes do, with a sibling map on the same table: inserts must
        // give `flat` a table of its own and leave the shared one, and the
        // sibling, untouched.
        std::shared_ptr<const exp::MetricNames> shared;
        if (trial % 2 == 1) {
            for (int k = 0; k < 6; ++k) ref[any_key()] = rng.uniform(-1.0, 1.0);
            std::vector<std::string> names;
            std::vector<double> values;
            for (const auto& [name, value] : ref) {
                names.push_back(name);
                values.push_back(value);
            }
            shared = exp::MetricNames::make(names);
            flat = exp::MetricMap(shared, values);
        }
        const exp::MetricMap sibling = flat;
        const auto sibling_entries = entries(ref);
        const std::size_t shared_size = ref.size();
        for (int step = 0; step < 60; ++step) {
            const std::string key = any_key();
            const double value = rng.uniform(-1.0, 1.0);
            const auto op = static_cast<int>(rng.uniform_int(0, 6));
            SCOPED_TRACE("trial " + std::to_string(trial) + " step " +
                         std::to_string(step) + " op " + std::to_string(op) +
                         " key '" + key + "'");
            switch (op) {
                case 0:  // operator[] writes, new or existing key
                    flat[key] = value;
                    ref[key] = value;
                    break;
                case 1:  // operator[] reads, inserting 0 when absent
                    EXPECT_EQ(flat[key], ref[key]);
                    break;
                case 2: {
                    const auto got = flat.emplace(key, value);
                    const auto want = ref.emplace(key, value);
                    EXPECT_EQ(got.second, want.second);
                    EXPECT_EQ(got.first->first, want.first->first);
                    EXPECT_EQ(got.first->second, want.first->second);
                    break;
                }
                case 3: {  // hint at end(): in order, or out of order
                    const auto got = flat.emplace_hint(flat.end(), key, value);
                    const auto want = ref.emplace_hint(ref.end(), key, value);
                    EXPECT_EQ(got->first, want->first);
                    EXPECT_EQ(got->second, want->second);
                    break;
                }
                case 4: {  // hint anywhere, right or wrong
                    const auto at = static_cast<std::ptrdiff_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(
                                               flat.size())));
                    const auto got =
                        flat.emplace_hint(std::next(flat.begin(), at), key,
                                          value);
                    const auto want = ref.emplace_hint(
                        std::next(ref.begin(), at), key, value);
                    EXPECT_EQ(got->first, want->first);
                    EXPECT_EQ(got->second, want->second);
                    break;
                }
                case 5: {  // lookups, present and absent
                    const auto want = ref.find(key);
                    const auto got = flat.find(key);
                    EXPECT_EQ(flat.count(key), ref.count(key));
                    if (want == ref.end()) {
                        EXPECT_TRUE(got == flat.end());
                        EXPECT_THROW((void)flat.at(key), std::out_of_range);
                    } else {
                        ASSERT_TRUE(got != flat.end());
                        EXPECT_EQ(got->first, want->first);
                        EXPECT_EQ(flat.at(key), ref.at(key));
                    }
                    break;
                }
                default: {  // copy and ==
                    exp::MetricMap copy = flat;
                    EXPECT_TRUE(copy == flat);
                    copy[key] += 1.0;
                    EXPECT_FALSE(copy == flat);
                    flat = copy;
                    ref[key] += 1.0;
                    break;
                }
            }
            ASSERT_EQ(entries(flat), entries(ref));
            EXPECT_EQ(flat.size(), ref.size());
            EXPECT_EQ(flat.empty(), ref.empty());
            if (shared) {
                // Names are only ever added, so `flat` keeps the shared
                // table exactly as long as it has inserted nothing.
                EXPECT_EQ(flat.names() == shared, flat.size() == shared_size);
                EXPECT_EQ(shared->size(), shared_size);
            }
        }
        EXPECT_EQ(entries(sibling), sibling_entries);
        EXPECT_EQ(sibling.names(), shared);
    }
}

TEST(MetricMap, OutcomesOnOneTableShareItAndOwnOnlyTheirValues) {
    const auto table = exp::MetricNames::make({"a", "b", "c"});
    const exp::MetricMap on_table(table, {1.0, 2.0, 3.0});
    exp::MetricMap inserted;
    inserted["c"] = 3.0;
    inserted["a"] = 1.0;
    inserted["b"] = 2.0;
    // Equal by names and values, whichever tables hold the names.
    EXPECT_TRUE(on_table == inserted);
    EXPECT_NE(on_table.names(), inserted.names());
    EXPECT_EQ(on_table.values(), (std::vector<double>{1.0, 2.0, 3.0}));

    exp::MetricMap copy = on_table;
    EXPECT_EQ(copy.names(), table);  // a copy shares the table
    copy["b"] = 5.0;                 // writing a present name keeps it
    EXPECT_EQ(copy.names(), table);
    EXPECT_FALSE(copy == on_table);
    copy["bb"] = 6.0;  // a new name gives the copy a table of its own
    EXPECT_NE(copy.names(), table);
    EXPECT_EQ(entries(copy),
              (std::vector<std::pair<std::string, double>>{
                  {"a", 1.0}, {"b", 5.0}, {"bb", 6.0}, {"c", 3.0}}));
    EXPECT_EQ(table->size(), 3u);
    EXPECT_EQ(on_table.at("b"), 2.0);

    // A zeroed map on the table, and names that are not a sorted set.
    const exp::MetricMap zeros(table);
    EXPECT_EQ(entries(zeros), (std::vector<std::pair<std::string, double>>{
                                  {"a", 0.0}, {"b", 0.0}, {"c", 0.0}}));
    EXPECT_THROW((void)exp::MetricNames::make({"b", "a"}),
                 util::ContractViolation);
    EXPECT_THROW((void)exp::MetricNames::make({"a", "a"}),
                 util::ContractViolation);
    EXPECT_THROW(exp::MetricMap(table, {1.0}), util::ContractViolation);
}

}  // namespace
