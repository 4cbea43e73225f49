// Arrival-source registry suite: bitwise pins of the historical
// uniform/poisson/bursty streams, registry and parameter-reader error
// paths, the new mmpp/diurnal/csv sources, [arrivals.<label>] /
// [patch.queue] spec sections, the bounded-queue conservation law, and
// thread/shard invariance of the new queue and latency metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baseline_models.hpp"
#include "energy/power_trace.hpp"
#include "exp/experiment.hpp"
#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "exp/spec_parser.hpp"
#include "scratch_dir.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/event_gen.hpp"
#include "sim/policies/greedy.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;

void expect_same_events(const std::vector<sim::Event>& a,
                        const std::vector<sim::Event>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << i;
        // Bitwise, not approximate: the registry must reproduce the
        // historical draw order exactly.
        EXPECT_EQ(a[i].time_s, b[i].time_s) << i;
    }
}

std::vector<sim::Event> sort_and_number(std::vector<sim::Event> events) {
    std::sort(events.begin(), events.end(),
              [](const sim::Event& a, const sim::Event& b) {
                  return a.time_s < b.time_s;
              });
    for (std::size_t i = 0; i < events.size(); ++i) {
        events[i].id = static_cast<int>(i);
    }
    return events;
}

// --- Bitwise pins of the historical generators -----------------------------

TEST(ArrivalPins, UniformReproducesTheHistoricalStreamBitwise) {
    // The pre-registry uniform generator body, verbatim.
    util::Rng rng(99);
    std::vector<sim::Event> expected;
    for (int i = 0; i < 500; ++i) {
        expected.push_back({0, rng.uniform(0.0, 13000.0)});
    }
    expected = sort_and_number(std::move(expected));
    expect_same_events(sim::generate_arrivals("uniform", {500, 13000.0, 99}),
                       expected);
}

TEST(ArrivalPins, PoissonReproducesTheHistoricalStreamBitwise) {
    // The pre-registry Poisson generator body, verbatim.
    util::Rng rng(7);
    std::vector<sim::Event> expected;
    const double rate = 200.0 / 5000.0;
    double t = 0.0;
    while (static_cast<int>(expected.size()) < 200) {
        t += rng.exponential(rate);
        if (t >= 5000.0) t = rng.uniform(0.0, 5000.0);
        expected.push_back({0, t});
    }
    expected = sort_and_number(std::move(expected));
    expect_same_events(sim::generate_arrivals("poisson", {200, 5000.0, 7}),
                       expected);
}

TEST(ArrivalPins, BurstyReproducesTheHistoricalStreamBitwise) {
    // The pre-registry bursty generator body, verbatim (bursts of 2-5
    // events jittered within 5 s).
    util::Rng rng(123);
    std::vector<sim::Event> expected;
    while (static_cast<int>(expected.size()) < 150) {
        const double burst_time = rng.uniform(0.0, 4000.0);
        const auto burst_size = static_cast<int>(rng.uniform_int(2, 5));
        for (int b = 0;
             b < burst_size && static_cast<int>(expected.size()) < 150; ++b) {
            const double jitter = rng.uniform(0.0, 5.0);
            expected.push_back(
                {0, std::min(burst_time + jitter, 4000.0 - 1e-6)});
        }
    }
    expected = sort_and_number(std::move(expected));
    expect_same_events(sim::generate_arrivals("bursty", {150, 4000.0, 123}),
                       expected);
}

TEST(ArrivalPins, MmppEqualsItsDrawsSortedByStdSort) {
    // The mmpp source's draw loop at default parameters, restated.
    util::Rng rng(41);
    const int count = 300;
    const double duration = 9000.0;
    const double mean_burst = 120.0;
    const double mean_idle = 600.0;
    const double factor = 8.0;
    std::vector<sim::Event> expected;
    const double mean_rate = static_cast<double>(count) / duration;
    const double burst_fraction = mean_burst / (mean_burst + mean_idle);
    const double idle_rate =
        mean_rate / (burst_fraction * factor + (1.0 - burst_fraction));
    const double burst_rate = factor * idle_rate;
    bool burst = false;
    double t = 0.0;
    double dwell_end = rng.exponential(1.0 / mean_idle);
    while (static_cast<int>(expected.size()) < count) {
        const double gap = rng.exponential(burst ? burst_rate : idle_rate);
        if (t + gap >= dwell_end) {
            t = dwell_end;
            burst = !burst;
            dwell_end = t + rng.exponential(burst ? 1.0 / mean_burst
                                                  : 1.0 / mean_idle);
            continue;
        }
        t += gap;
        if (t >= duration) {
            t = rng.uniform(0.0, duration);
            dwell_end = t + rng.exponential(burst ? 1.0 / mean_burst
                                                  : 1.0 / mean_idle);
        }
        expected.push_back({0, t});
    }
    expected = sort_and_number(std::move(expected));
    expect_same_events(sim::generate_arrivals("mmpp", {count, duration, 41}),
                       expected);
}

TEST(ArrivalPins, DiurnalEqualsItsDrawsSortedByStdSort) {
    // The diurnal source's rejection loop at default parameters, restated.
    util::Rng rng(43);
    const int count = 300;
    const double duration = 9000.0;
    const double depth = 0.8;
    const double peak_frac = 0.5;
    const double two_pi = 2.0 * 3.14159265358979323846;
    std::vector<sim::Event> expected;
    while (static_cast<int>(expected.size()) < count) {
        const double t = rng.uniform(0.0, duration);
        const double weight =
            1.0 + depth * std::cos(two_pi * (t / duration - peak_frac));
        if (rng.uniform(0.0, 1.0 + depth) <= weight) expected.push_back({0, t});
    }
    expected = sort_and_number(std::move(expected));
    expect_same_events(
        sim::generate_arrivals("diurnal", {count, duration, 43}), expected);
}

// --- The schedule sort ------------------------------------------------------

/// Replays fixed draws in their given order, so generate_into()'s sort is
/// all that stands between them and the schedule.
class ReplaySource final : public sim::ArrivalSource {
public:
    explicit ReplaySource(std::vector<sim::Event> draws)
        : draws_(std::move(draws)) {}

protected:
    void sample_into(const sim::ArrivalContext&,
                     std::vector<sim::Event>& out) const override {
        out = draws_;
    }

private:
    std::vector<sim::Event> draws_;
};

/// Field by field (Event has padding, so no memcmp), times bit for bit.
void expect_same_schedule(const std::vector<sim::Event>& a,
                          const std::vector<sim::Event>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << i;
        EXPECT_EQ(std::memcmp(&a[i].time_s, &b[i].time_s, sizeof(double)), 0)
            << i << ": " << a[i].time_s << " vs " << b[i].time_s;
    }
}

TEST(ArrivalSort, ScheduleEqualsTheDrawsSortedByStdSort) {
    constexpr double kDuration = 13000.0;
    util::Rng rng(17);
    std::vector<std::pair<std::string, std::vector<double>>> shapes;
    for (const int n : {0, 1, 2, 3, 17, 500, 2000}) {
        const std::string size = "/" + std::to_string(n);
        std::vector<double> uniform;
        for (int i = 0; i < n; ++i) {
            uniform.push_back(rng.uniform(0.0, kDuration));
        }
        std::vector<double> ascending = uniform;
        std::sort(ascending.begin(), ascending.end());
        std::vector<double> descending(ascending.rbegin(), ascending.rend());
        std::vector<double> bursts;  // 5 s jitter around random epochs
        while (static_cast<int>(bursts.size()) < n) {
            const double epoch = rng.uniform(0.0, kDuration - 5.0);
            for (int b = 0; b < 7 && static_cast<int>(bursts.size()) < n; ++b) {
                bursts.push_back(epoch + rng.uniform(0.0, 5.0));
            }
        }
        std::vector<double> duplicates;
        const double values[] = {0.0, 1.0, 2.5, kDuration / 2,
                                 std::nextafter(kDuration, 0.0)};
        for (int i = 0; i < n; ++i) {
            duplicates.push_back(values[rng.uniform_int(0, 4)]);
        }
        // Everything inside the first bucket, in reverse order.
        std::vector<double> one_bucket;
        for (int i = n; i > 0; --i) {
            one_bucket.push_back(static_cast<double>(i) * 1e-3);
        }
        // Outside [0, duration): the sort stays exact, only slower.
        std::vector<double> out_of_range = uniform;
        const double strays[] = {-5.0, kDuration, 2.0 * kDuration,
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};
        for (std::size_t i = 0; i < out_of_range.size(); i += 3) {
            out_of_range[i] = strays[(i / 3) % 5];
        }
        shapes.emplace_back("uniform" + size, uniform);
        shapes.emplace_back("ascending" + size, ascending);
        shapes.emplace_back("descending" + size, descending);
        shapes.emplace_back("bursts" + size, bursts);
        shapes.emplace_back("duplicates" + size, duplicates);
        shapes.emplace_back("one-bucket" + size, one_bucket);
        shapes.emplace_back("out-of-range" + size, out_of_range);
    }
    // Every built-in stochastic source's schedule, shuffled back into a
    // random draw order.
    for (const char* source : {"uniform", "poisson", "bursty", "mmpp",
                               "diurnal"}) {
        std::vector<double> times;
        for (const sim::Event& e :
             sim::generate_arrivals(source, {500, kDuration, 3})) {
            times.push_back(e.time_s);
        }
        for (std::size_t i = times.size(); i > 1; --i) {
            std::swap(times[i - 1],
                      times[static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(i - 1)))]);
        }
        shapes.emplace_back(std::string(source) + "/shuffled", times);
    }

    for (const auto& [name, times] : shapes) {
        SCOPED_TRACE(name);
        std::vector<sim::Event> draws;
        for (const double t : times) draws.push_back({0, t});
        const ReplaySource source(draws);
        std::vector<sim::Event> schedule = {{9, 9.0}};  // stale contents
        source.generate_into(
            {static_cast<int>(draws.size()), kDuration, 1}, schedule);
        expect_same_schedule(schedule, sort_and_number(draws));
    }
}

TEST(ArrivalSort, CsvKeepsFileOrderAmongEqualTimes) {
    // The csv source accepts -0, which compares equal to 0. Equal times
    // keep their file order through both sorts, so the signs read in file
    // order; std::sort left the order of -0 against 0 unspecified.
    const std::string path = test::scratch_dir() + "ties.csv";
    {
        std::ofstream file(path);
        file << "7\n0\n-0\n3\n0\n7\n-0\n";
    }
    const auto events =
        sim::generate_arrivals("csv", {10, 100.0, 1}, {{"path", path}});
    const double times[] = {0.0, 0.0, 0.0, 0.0, 3.0, 7.0, 7.0};
    const bool negative[] = {false, true, false, true, false, false, false};
    ASSERT_EQ(events.size(), 7u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].id, static_cast<int>(i));
        EXPECT_EQ(events[i].time_s, times[i]) << i;
        EXPECT_EQ(std::signbit(events[i].time_s), negative[i]) << i;
    }
}

// --- Registry API and parameter validation ---------------------------------

TEST(ArrivalRegistry, BuiltinsAreRegisteredAndDescribed) {
    const auto names = sim::arrival_source_names();
    for (const char* name :
         {"uniform", "poisson", "bursty", "mmpp", "diurnal", "csv"}) {
        EXPECT_TRUE(sim::has_arrival_source(name)) << name;
        EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
        EXPECT_FALSE(sim::arrival_source_description(name).empty()) << name;
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_FALSE(sim::has_arrival_source("nope"));
    // Parameter declarations drive spec validation and docs.
    EXPECT_TRUE(sim::arrival_source_param_names("uniform").empty());
    const auto bursty = sim::arrival_source_param_names("bursty");
    EXPECT_NE(std::find(bursty.begin(), bursty.end(), "burst_min"),
              bursty.end());
}

TEST(ArrivalRegistry, UnknownSourceDiagnosticListsRegisteredNames) {
    try {
        (void)sim::make_arrival_source("martian");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("martian"), std::string::npos);
        EXPECT_NE(message.find("uniform"), std::string::npos);
        EXPECT_NE(message.find("poisson"), std::string::npos);
    }
}

TEST(ArrivalRegistry, ParamReaderRejectsBadValues) {
    // Unknown key.
    EXPECT_THROW(
        (void)sim::make_arrival_source("poisson", {{"rate_scael", "2"}}),
        std::invalid_argument);
    // Non-numeric / non-positive where positive is required.
    EXPECT_THROW(
        (void)sim::make_arrival_source("poisson", {{"rate_scale", "fast"}}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)sim::make_arrival_source("poisson", {{"rate_scale", "0"}}),
        std::invalid_argument);
    // Cross-field contract.
    EXPECT_THROW((void)sim::make_arrival_source(
                     "bursty", {{"burst_min", "9"}, {"burst_max", "3"}}),
                 std::invalid_argument);
    // Fraction bounds.
    EXPECT_THROW((void)sim::make_arrival_source("diurnal", {{"depth", "1.5"}}),
                 std::invalid_argument);
    // mmpp contract: factor >= 1.
    EXPECT_THROW((void)sim::make_arrival_source(
                     "mmpp", {{"burst_rate_factor", "0.5"}}),
                 std::invalid_argument);
    // The diagnostics carry the source name.
    try {
        (void)sim::make_arrival_source("poisson", {{"rate_scale", "-1"}});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("arrival source 'poisson'"),
                  std::string::npos)
            << e.what();
    }
}

// --- The new stochastic sources --------------------------------------------

void expect_well_formed(const std::vector<sim::Event>& events, int count,
                        double duration_s) {
    ASSERT_EQ(events.size(), static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].id, static_cast<int>(i));
        EXPECT_GE(events[i].time_s, 0.0);
        EXPECT_LT(events[i].time_s, duration_s);
        if (i > 0) {
            EXPECT_GE(events[i].time_s, events[i - 1].time_s);
        }
    }
}

TEST(ArrivalSources, MmppAndDiurnalAreWellFormedAndSeedDeterministic) {
    for (const char* name : {"mmpp", "diurnal"}) {
        const auto a = sim::generate_arrivals(name, {300, 6000.0, 42});
        expect_well_formed(a, 300, 6000.0);
        expect_same_events(sim::generate_arrivals(name, {300, 6000.0, 42}),
                           a);
        const auto other = sim::generate_arrivals(name, {300, 6000.0, 43});
        bool differs = false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            differs = differs || a[i].time_s != other[i].time_s;
        }
        EXPECT_TRUE(differs) << name << " ignores its seed";
    }
}

TEST(ArrivalSources, MmppIsBurstierThanUniform) {
    // Dispersion check: the MMPP stream's inter-arrival variance must
    // exceed the uniform stream's (that is its whole point).
    const auto spread = [](const std::vector<sim::Event>& events) {
        double mean = 0.0, var = 0.0;
        for (std::size_t i = 1; i < events.size(); ++i) {
            mean += events[i].time_s - events[i - 1].time_s;
        }
        mean /= static_cast<double>(events.size() - 1);
        for (std::size_t i = 1; i < events.size(); ++i) {
            const double d = events[i].time_s - events[i - 1].time_s - mean;
            var += d * d;
        }
        return var / mean / mean;  // scale-free
    };
    const auto uniform = sim::generate_arrivals("uniform", {400, 8000.0, 5});
    const auto mmpp = sim::generate_arrivals(
        "mmpp", {400, 8000.0, 5}, {{"burst_rate_factor", "16"}});
    EXPECT_GT(spread(mmpp), spread(uniform));
}

TEST(ArrivalSources, CsvReplaysScalesAndFilters) {
    const std::string path = test::scratch_dir() + "imx_arrivals_test.csv";
    {
        std::ofstream file(path);
        file << "# request log\n"
             << "30.0, whatever\n"
             << "10.5\n"
             << "\n"
             << "999.0\n"
             << "20.25 trailing\n";
    }
    const auto events =
        sim::generate_arrivals("csv", {10, 100.0, 1}, {{"path", path}});
    // 999.0 falls past the 100 s horizon; the rest replay sorted. Replay is
    // seed-independent.
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].time_s, 10.5);
    EXPECT_EQ(events[1].time_s, 20.25);
    EXPECT_EQ(events[2].time_s, 30.0);
    expect_same_events(
        sim::generate_arrivals("csv", {10, 100.0, 77}, {{"path", path}}),
        events);

    // time_scale stretches the replay; the context count caps it.
    const auto scaled = sim::generate_arrivals(
        "csv", {2, 100.0, 1}, {{"path", path}, {"time_scale", "2"}});
    ASSERT_EQ(scaled.size(), 2u);
    EXPECT_EQ(scaled[0].time_s, 21.0);
    EXPECT_EQ(scaled[1].time_s, 40.5);

    EXPECT_THROW((void)sim::make_arrival_source(
                     "csv", {{"path", path + ".does-not-exist"}}),
                 std::invalid_argument);
    EXPECT_THROW((void)sim::make_arrival_source("csv", {}),
                 std::invalid_argument);
    {
        std::ofstream file(path);
        file << "not-a-number\n";
    }
    EXPECT_THROW((void)sim::make_arrival_source("csv", {{"path", path}}),
                 std::invalid_argument);
    std::remove(path.c_str());
}

// --- Spec sections ----------------------------------------------------------

std::string valid_spec() {
    return "[sweep]\n"
           "name = t\n"
           "[system]\n"
           "label = s\n"
           "kind = ours-static\n";
}

void expect_parse_error(const std::string& text, const std::string& needle) {
    try {
        (void)exp::parse_experiment_spec(text, "spec.ini");
        FAIL() << "expected failure containing '" << needle << "'";
    } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
        // Schema failures must carry a file:line anchor.
        EXPECT_EQ(std::string(e.what()).find("spec.ini:"), 0u) << e.what();
    }
}

TEST(ArrivalSpec, SectionsPopulateTheAxis) {
    const auto spec = exp::parse_experiment_spec(
        valid_spec() +
        "[arrivals.base]\nsource = uniform\n"
        "[arrivals.crowd]\nsource = bursty\nburst_min = 6\n"
        "burst_max = 12\n"
        "[patch.queue]\ncapacity = 0, 4, 16\n");
    ASSERT_EQ(spec.arrivals.size(), 2u);
    EXPECT_EQ(spec.arrivals[0].label, "base");
    EXPECT_EQ(spec.arrivals[0].source, "uniform");
    EXPECT_EQ(spec.arrivals[1].label, "crowd");
    EXPECT_EQ(spec.arrivals[1].params.at("burst_min"), "6");
    EXPECT_EQ(spec.queue_capacity, (std::vector<int>{0, 4, 16}));

    const auto specs = exp::expand_experiment(spec, {});
    // 1 trace x 1 system x 2 arrivals x 3 capacities.
    ASSERT_EQ(specs.size(), 6u);
    EXPECT_EQ(specs[0].dims.at("arrivals"), "base");
    EXPECT_EQ(specs[0].dims.at("queue_capacity"), "0");
    EXPECT_NE(specs[5].id.find("arr-crowd"), std::string::npos);
    EXPECT_NE(specs[5].id.find("q16"), std::string::npos);
}

TEST(ArrivalSpec, CsvCellReadsItsLogOnceForEveryReplica) {
    const std::string path = test::scratch_dir() + "requests.csv";
    {
        std::ofstream log(path);
        for (int i = 0; i < 40; ++i) log << 3.0 + 21.5 * i << "\n";
    }
    const auto spec = exp::parse_experiment_spec(
        "[sweep]\nname = csv-replicas\nreplicas = 8\n"
        "[trace]\nlabel = tr\nduration_s = 900\nevent_count = 40\n"
        "total_harvest_mj = 30\n"
        "[system]\nlabel = s\nkind = ours-policy\npolicy = slack-greedy\n"
        "[arrivals.log]\nsource = csv\npath = " +
        path + "\n");
    // The parser built the cell's source to check it, and the grid keeps
    // that one: expanding and running the specs, twice, must not reopen
    // the log.
    ASSERT_EQ(std::remove(path.c_str()), 0);
    std::vector<exp::ScenarioSpec> specs;
    ASSERT_NO_THROW(specs = exp::expand_experiment(spec, {}));
    ASSERT_EQ(specs.size(), 8u);
    const auto first = exp::run_sweep(specs, {4});
    std::vector<exp::ScenarioOutcome> second;
    ASSERT_NO_THROW(second = exp::run_sweep(specs, {4}));
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE(specs[i].id);
        ASSERT_EQ(second[i].metrics.size(), first[i].metrics.size());
        auto a = first[i].metrics.begin();
        for (const auto& [name, value] : second[i].metrics) {
            EXPECT_EQ(name, a->first);
            EXPECT_EQ(std::memcmp(&value, &a->second, sizeof value), 0)
                << name;
            ++a;
        }
    }
}

TEST(ArrivalSpec, SchemaErrorsAreHardAndAnchored) {
    expect_parse_error(valid_spec() + "[arrivals.x]\nsource = martian\n",
                       "unknown arrival source");
    expect_parse_error(valid_spec() + "[arrivals.x]\nburst_min = 2\n",
                       "requires 'source = <name>'");
    expect_parse_error(
        valid_spec() + "[arrivals.x]\nsource = poisson\nburst_min = 2\n",
        "which accepts");
    expect_parse_error(
        valid_spec() + "[arrivals.x]\nsource = uniform\nbogus = 1\n",
        "spec.ini:8: unknown key 'bogus'");
    expect_parse_error(
        valid_spec() + "[arrivals.x]\nsource = poisson\nrate_scale = -2\n",
        "rate_scale");
    expect_parse_error(valid_spec() + "[arrivals.]\nsource = uniform\n",
                       "requires a label after the dot");
    expect_parse_error(valid_spec() +
                           "[arrivals.x]\nsource = uniform\n"
                           "[arrivals.x]\nsource = poisson\n",
                       "duplicate arrivals label 'x'");
    expect_parse_error(valid_spec() + "[patch.queue]\ncapacity = 4, -1\n",
                       "non-negative integers");
    expect_parse_error(valid_spec() + "[patch.queue]\ncapacity = 2.5\n",
                       "non-negative integers");
    expect_parse_error(valid_spec() + "[patch.queue]\nsize = 4\n",
                       "unknown key");
    expect_parse_error(valid_spec() +
                           "[patch.queue]\ncapacity = 1\n"
                           "[patch.queue]\ncapacity = 2\n",
                       "duplicate [patch.queue]");
}

// --- Bounded-queue conservation --------------------------------------------

/// Counts observe_missed() feedback; otherwise the plain greedy rule.
class CountingPolicy final : public sim::ExitPolicy {
public:
    int select_exit(const sim::EnergyState& state,
                    const sim::InferenceModel& model) override {
        return delegate_.select_exit(state, model);
    }
    bool continue_inference(const sim::EnergyState& state,
                            const sim::InferenceModel& model, int exit,
                            double confidence) override {
        return delegate_.continue_inference(state, model, exit, confidence);
    }
    void observe_missed() override { ++missed_observed; }

    int missed_observed = 0;

private:
    sim::GreedyAffordablePolicy delegate_;
};

TEST(QueueConservation, EveryArrivalIsAccountedForExactlyOnce) {
    // Slow MCU (2 s per 0.1 MMAC inference) against three 8-event bursts:
    // the capacity-3 queue must fill, drop the overflow, and leave the
    // tail burst's remainder in flight when the trace ends.
    sim::SimConfig cfg;
    cfg.storage.capacity_mj = 50.0;
    cfg.storage.initial_mj = 50.0;
    cfg.storage.leakage_mw = 0.0;
    cfg.mcu.mmacs_per_second = 0.05;
    cfg.queue_capacity = 3;
    const auto trace = energy::PowerTrace::constant(1.0, 60.0, 1.0);
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);

    std::vector<sim::Event> events;
    for (const double base : {5.0, 20.0, 56.0}) {
        for (int i = 0; i < 8; ++i) {
            events.push_back({static_cast<int>(events.size()),
                              base + 0.01 * static_cast<double>(i)});
        }
    }
    sim::Simulator simulator(trace, cfg);
    CountingPolicy policy;
    const auto r = simulator.run(events, model, policy);

    EXPECT_GT(r.dropped, 0);
    EXPECT_GT(r.in_flight, 0);
    // The conservation law: every arrival is processed or missed, and the
    // misses decompose into drops + in-flight leftovers + expired events —
    // the policy hears about every miss except the in-flight leftovers.
    EXPECT_EQ(r.total_events(), r.processed_count() + r.missed_count());
    EXPECT_LE(r.dropped + r.in_flight, r.missed_count());
    EXPECT_EQ(policy.missed_observed, r.missed_count() - r.in_flight);
}

TEST(QueueConservation, NoQueueKeepsTheHistoricalAccounting) {
    sim::SimConfig cfg;
    cfg.storage.capacity_mj = 50.0;
    cfg.storage.initial_mj = 50.0;
    cfg.storage.leakage_mw = 0.0;
    cfg.mcu.mmacs_per_second = 0.05;  // 2 s service
    const auto trace = energy::PowerTrace::constant(1.0, 40.0, 1.0);
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    std::vector<sim::Event> events = {
        {0, 5.0}, {1, 5.5}, {2, 6.0}, {3, 20.0}};
    sim::Simulator simulator(trace, cfg);
    CountingPolicy policy;
    const auto r = simulator.run(events, model, policy);
    // Arrivals during the busy window are missed outright, never queued or
    // dropped; nothing is pending at the end of this quiet trace.
    EXPECT_EQ(r.dropped, 0);
    EXPECT_EQ(r.in_flight, 0);
    EXPECT_EQ(r.processed_count(), 2);
    EXPECT_EQ(policy.missed_observed, 2);
}

TEST(QueueConservation, BoundedQueueConvertsBusyMissesIntoCompletions) {
    // Identical run except for the queue: buffering a burst must recover
    // events the unbuffered model loses.
    sim::SimConfig cfg;
    cfg.storage.capacity_mj = 50.0;
    cfg.storage.initial_mj = 50.0;
    cfg.storage.leakage_mw = 0.0;
    cfg.mcu.mmacs_per_second = 0.05;
    const auto trace = energy::PowerTrace::constant(1.0, 60.0, 1.0);
    auto model = baselines::FixedBaselineModel("m", 0.1, 90.0, 1.0);
    std::vector<sim::Event> events = {
        {0, 5.0}, {1, 5.5}, {2, 6.0}, {3, 6.5}};

    sim::GreedyAffordablePolicy unbuffered_policy;
    sim::Simulator unbuffered(trace, cfg);
    const auto r0 = unbuffered.run(events, model, unbuffered_policy);

    cfg.queue_capacity = 8;
    sim::GreedyAffordablePolicy buffered_policy;
    sim::Simulator buffered(trace, cfg);
    const auto r8 = buffered.run(events, model, buffered_policy);

    EXPECT_EQ(r0.processed_count(), 1);
    EXPECT_EQ(r8.processed_count(), 4);
    EXPECT_EQ(r8.dropped, 0);
    // Queued completions wait, so their sojourn percentiles stretch.
    EXPECT_GT(r8.latency_percentile_s(0.95), r0.latency_percentile_s(0.95));
}

TEST(QueueBackpressure, ShedDepthIsMonotoneInBacklog) {
    using sim::QueueSlackGreedyPolicy;
    const int exits = 4;  // depths 0..3
    EXPECT_EQ(QueueSlackGreedyPolicy::max_depth_for_backlog(0.0, exits), 3);
    EXPECT_EQ(QueueSlackGreedyPolicy::max_depth_for_backlog(1.0, exits), 0);
    int previous = exits - 1;
    for (double backlog = 0.0; backlog <= 1.0; backlog += 0.05) {
        const int depth =
            QueueSlackGreedyPolicy::max_depth_for_backlog(backlog, exits);
        EXPECT_LE(depth, previous) << backlog;
        previous = depth;
    }
    // Out-of-range backlogs clamp instead of over/underflowing the depth.
    EXPECT_EQ(QueueSlackGreedyPolicy::max_depth_for_backlog(7.0, exits), 0);
    EXPECT_EQ(QueueSlackGreedyPolicy::max_depth_for_backlog(-1.0, exits), 3);
}

TEST(QueueBackpressure, QueueAwarePolicyImprovesABurstyCell) {
    // The traffic-ablation acceptance cell at full scale: oversized bursts
    // against a capacity-4 queue under a 60 s deadline. Shedding exit depth
    // under backlog must strictly lower the p95 sojourn or the drop count
    // (and never worsen both) versus the queue-blind slack policy.
    const auto run_policy = [](const char* policy) {
        const auto spec = exp::parse_experiment_spec(
            std::string("[sweep]\n"
                        "name = qvs\n"
                        "[system]\n"
                        "label = s\n"
                        "kind = ours-policy\n"
                        "policy = ") +
            policy +
            "\n"
            "[arrivals.crowd]\n"
            "source = bursty\n"
            "burst_min = 6\n"
            "burst_max = 12\n"
            "jitter_s = 2\n"
            "[patch.deadline]\n"
            "deadline_s = 60\n"
            "[patch.queue]\n"
            "capacity = 4\n");
        const auto specs = exp::expand_experiment(spec, {});
        return exp::run_sweep(specs, {1}).at(0).metrics;
    };
    const auto blind = run_policy("slack-greedy");
    const auto aware = run_policy("queue-slack-greedy");
    EXPECT_LE(aware.at("p95_latency_s"), blind.at("p95_latency_s"));
    EXPECT_LE(aware.at("dropped"), blind.at("dropped"));
    EXPECT_TRUE(aware.at("p95_latency_s") < blind.at("p95_latency_s") ||
                aware.at("dropped") < blind.at("dropped"))
        << "p95 " << blind.at("p95_latency_s") << " -> "
        << aware.at("p95_latency_s") << ", dropped " << blind.at("dropped")
        << " -> " << aware.at("dropped");
}

// --- Thread and shard invariance of the new metrics ------------------------

std::vector<exp::ScenarioSpec> mini_traffic_grid() {
    const auto spec = exp::parse_experiment_spec(
        "[sweep]\n"
        "name = traffic-mini\n"
        "metrics = processed, dropped, in_flight, p95_latency_s\n"
        "[trace]\n"
        "label = tr\n"
        "duration_s = 900\n"
        "event_count = 40\n"
        "total_harvest_mj = 30\n"
        "[system]\n"
        "label = s\n"
        "kind = ours-policy\n"
        "policy = slack-greedy\n"
        "[arrivals.crowd]\n"
        "source = bursty\n"
        "burst_min = 5\n"
        "burst_max = 9\n"
        "[patch.deadline]\n"
        "deadline_s = 60\n"
        "[patch.queue]\n"
        "capacity = 0, 3\n"
        "[recovery.none]\n"
        "strategy = none\n"
        "[recovery.restart]\n"
        "strategy = restart\n"
        "active_power_mw = 0.02\n"
        "death_threshold_mj = 0.3\n");
    return exp::expand_experiment(spec, {});
}

TEST(TrafficInvariance, MetricsAreIdenticalForAnyThreadCount) {
    const auto specs = mini_traffic_grid();
    // 1 trace x 1 system x 1 arrival cell x 2 capacities x 2 recoveries.
    ASSERT_EQ(specs.size(), 4u);
    const auto serial = exp::run_sweep(specs, {1});
    const auto parallel = exp::run_sweep(specs, {3});
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].metrics, parallel[i].metrics) << specs[i].id;
        EXPECT_EQ(serial[i].metrics.count("dropped"), 1u);
        EXPECT_EQ(serial[i].metrics.count("in_flight"), 1u);
        EXPECT_EQ(serial[i].metrics.count("p95_latency_s"), 1u);
    }
    // The unbuffered cells cannot drop; the queue x recovery cross runs.
    EXPECT_EQ(serial[0].metrics.at("dropped"), 0.0);
}

TEST(TrafficInvariance, MetricsSurviveShardJournalAndMergeByteExactly) {
    const auto specs = mini_traffic_grid();
    const auto full = exp::run_sweep(specs, {2});

    const auto header_for = [&](const exp::ShardSpec& shard) {
        exp::JournalHeader header;
        header.experiment = "traffic-mini";
        header.total_specs = specs.size();
        header.shard = shard;
        header.base_seed = exp::kDefaultBaseSeed;
        header.replicas = 1;
        return header;
    };
    std::vector<std::string> paths;
    for (int i = 0; i < 3; ++i) {
        const std::string path = test::scratch_dir() + "imx_traffic_shard_" +
                                 std::to_string(i) + ".jsonl";
        (void)exp::run_shard(specs, header_for({i, 3}), {1}, path,
                             /*resume=*/false);
        paths.push_back(path);
    }
    const auto merged =
        exp::merge_journal_outcomes(header_for({0, 1}), specs, paths);
    ASSERT_EQ(merged.size(), full.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
        // Bit-exact through the %.17g journal round-trip, including the
        // queue and latency-percentile columns.
        EXPECT_EQ(merged[i].metrics, full[i].metrics) << specs[i].id;
    }
}

}  // namespace
