// Tests for the harvesting-source trace registry: golden bitwise stability
// of the canonical solar path (the registry's "solar" source with default
// parameters must reproduce the pre-registry hard-coded trace exactly),
// per-source generator properties, parameter-map validation errors for
// every built-in source, and runtime registration of custom sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment_setup.hpp"
#include "energy/ou.hpp"
#include "energy/power_trace.hpp"
#include "energy/rf.hpp"
#include "energy/solar.hpp"
#include "energy/trace_registry.hpp"
#include "scratch_dir.hpp"

namespace {

using namespace imx;

// --- Golden stability of the canonical solar path -------------------------

/// The exact trace construction core::make_paper_setup() hard-coded before
/// label resolution moved onto the registry. The registry's default "solar"
/// source must reproduce it bitwise — this is the contract that keeps every
/// solar-labelled grid's replica-0 output byte-identical across the move.
energy::PowerTrace legacy_paper_trace(const core::SetupConfig& config) {
    energy::SolarConfig solar;
    solar.days = 1.0;
    solar.dt_s = 1.0;
    solar.peak_power_mw = 0.08;
    solar.window_start_hour = solar.sunrise_hour;
    solar.window_end_hour = solar.sunset_hour;
    solar.envelope_exponent = 2.0;
    solar.time_compression =
        (solar.window_end_hour - solar.window_start_hour) * 3600.0 /
        config.duration_s;
    solar.seed = config.trace_seed;
    energy::PowerTrace trace = energy::make_solar_trace(solar);
    trace.rescale_total_energy(config.total_harvest_mj);
    return trace;
}

TEST(TraceRegistryGolden, DefaultSolarSourceIsBitwiseTheLegacyPaperTrace) {
    const core::SetupConfig config;
    const auto legacy = legacy_paper_trace(config);

    energy::TraceSourceContext ctx;
    ctx.duration_s = config.duration_s;
    ctx.dt_s = 1.0;
    ctx.seed = config.trace_seed;
    auto registry = energy::make_trace("solar", ctx, {});
    registry.rescale_total_energy(config.total_harvest_mj);

    ASSERT_EQ(registry.size(), legacy.size());
    EXPECT_EQ(registry.dt(), legacy.dt());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        ASSERT_EQ(registry.samples()[i], legacy.samples()[i]) << "sample " << i;
    }
}

TEST(TraceRegistryGolden, PaperSetupTraceStillMatchesTheLegacyPath) {
    // End-to-end: the setup every solar-labelled scenario shares must carry
    // the legacy trace bitwise (make_paper_setup now resolves through the
    // registry).
    core::SetupConfig config;
    config.duration_s = 1500.0;
    config.total_harvest_mj = 35.0;
    const auto setup = core::make_paper_setup(config);
    const auto legacy = legacy_paper_trace(config);
    ASSERT_EQ(setup.trace.size(), legacy.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        ASSERT_EQ(setup.trace.samples()[i], legacy.samples()[i])
            << "sample " << i;
    }
}

// --- Registry behaviour ---------------------------------------------------

TEST(TraceRegistry, BuiltInsAreRegistered) {
    const auto names = energy::trace_source_names();
    for (const char* name : {"solar", "rf-bursty", "ou-wind", "duty-cycle",
                             "constant", "csv"}) {
        EXPECT_TRUE(energy::has_trace_source(name)) << name;
        EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
            << name;
        EXPECT_FALSE(energy::trace_source_description(name).empty()) << name;
        EXPECT_FALSE(energy::trace_source_param_names(name).empty()) << name;
    }
}

TEST(TraceRegistry, UnknownSourceListsEveryRegisteredName) {
    try {
        (void)energy::make_trace("no-such-source");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no-such-source"), std::string::npos);
        EXPECT_NE(what.find("rf-bursty"), std::string::npos);
        EXPECT_NE(what.find("solar"), std::string::npos);
    }
}

// --- Parameter validation per built-in source -----------------------------

void expect_param_error(const std::string& source,
                        const energy::TraceParams& params,
                        const std::string& needle) {
    energy::TraceSourceContext ctx;
    ctx.duration_s = 600.0;
    try {
        (void)energy::make_trace(source, ctx, params);
        FAIL() << source << ": expected failure containing '" << needle
               << "'";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("trace source '" + source + "'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
}

TEST(TraceParams, UnknownKeysFailNamingEverythingTheSourceAccepts) {
    expect_param_error("solar", {{"peak", "1"}},
                       "unknown parameter 'peak'");
    expect_param_error("solar", {{"peak", "1"}}, "peak_power_mw");
    expect_param_error("rf-bursty", {{"burst", "1"}}, "mean_on_s");
    expect_param_error("ou-wind", {{"theta", "0.1"}}, "reversion_rate");
    expect_param_error("duty-cycle", {{"duty_cycle", "0.5"}},
                       "accepts: duty, period_s, power_mw");
    expect_param_error("constant", {{"mw", "1"}}, "power_mw");
    expect_param_error("csv", {{"path", "x"}, {"rescale", "no"}},
                       "unknown parameter 'rescale'");
}

TEST(TraceParams, MalformedAndOutOfRangeValuesFail) {
    expect_param_error("rf-bursty", {{"burst_power_mw", "strong"}},
                       "expects a number");
    expect_param_error("rf-bursty", {{"burst_power_mw", "-1"}},
                       "must be > 0");
    expect_param_error("rf-bursty", {{"mean_off_s", "0"}}, "must be > 0");
    expect_param_error("ou-wind",
                       {{"mean_power_mw", "0.01"}, {"floor_mw", "0.02"}},
                       "floor_mw must not exceed mean_power_mw");
    expect_param_error("duty-cycle", {{"duty", "1.5"}}, "in [0, 1]");
    expect_param_error("duty-cycle", {{"duty", "0"}}, "duty must be > 0");
    expect_param_error("solar", {{"sunrise_hour", "19"}},
                       "sunrise_hour < sunset_hour");
    expect_param_error("solar", {{"window", "noon"}},
                       "daylight or full-day");
    expect_param_error("csv", {}, "requires parameter 'path'");
    expect_param_error("csv", {{"path", "/no/such/file.csv"}},
                       "cannot load");
}

TEST(TraceParams, SolarRejectsDurationsBeyondTheHarvestingWindow) {
    energy::TraceSourceContext ctx;
    ctx.duration_s = 50000.0;  // > the 43200 s daylight window
    EXPECT_THROW((void)energy::make_trace("solar", ctx, {}),
                 std::invalid_argument);
    // The full-day window (86400 s) accommodates the same duration.
    const auto trace =
        energy::make_trace("solar", ctx, {{"window", "full-day"}});
    EXPECT_EQ(trace.size(), 50000u);
}

// --- Generator properties -------------------------------------------------

TEST(RfBursty, IsDeterministicAndMarkovModulated) {
    energy::TraceSourceContext ctx;
    ctx.duration_s = 4000.0;
    ctx.seed = 11;
    const energy::TraceParams params = {{"burst_power_mw", "0.5"},
                                        {"mean_on_s", "3"},
                                        {"mean_off_s", "27"},
                                        {"power_jitter", "0"}};
    const auto a = energy::make_trace("rf-bursty", ctx, params);
    const auto b = energy::make_trace("rf-bursty", ctx, params);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.samples()[i], b.samples()[i]);
    }

    // With no jitter every sample is exactly idle (0) or burst power, and
    // the on-fraction concentrates near mean_on / (mean_on + mean_off).
    std::size_t on = 0;
    for (const double p : a.samples()) {
        EXPECT_TRUE(p == 0.0 || p == 0.5) << p;
        if (p == 0.5) ++on;
    }
    const double on_fraction =
        static_cast<double>(on) / static_cast<double>(a.size());
    EXPECT_GT(on_fraction, 0.02);
    EXPECT_LT(on_fraction, 0.35);

    ctx.seed = 12;
    const auto c = energy::make_trace("rf-bursty", ctx, params);
    bool any_different = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.samples()[i] != c.samples()[i]) any_different = true;
    }
    EXPECT_TRUE(any_different) << "seed must re-roll the burst pattern";
}

TEST(OuWind, RevertsToTheMeanAndRespectsTheFloor) {
    energy::TraceSourceContext ctx;
    ctx.duration_s = 8000.0;
    ctx.seed = 5;
    const auto trace = energy::make_trace(
        "ou-wind", ctx,
        {{"mean_power_mw", "0.05"}, {"sigma", "0.01"}, {"floor_mw", "0.002"},
         {"reversion_rate", "0.02"}});
    double sum = 0.0;
    for (const double p : trace.samples()) {
        EXPECT_GE(p, 0.002);
        sum += p;
    }
    const double mean = sum / static_cast<double>(trace.size());
    EXPECT_NEAR(mean, 0.05, 0.02);
}

TEST(DutyCycle, MatchesThePowerTraceSquareWaveFactory) {
    energy::TraceSourceContext ctx;
    ctx.duration_s = 600.0;
    const auto from_registry = energy::make_trace(
        "duty-cycle", ctx,
        {{"power_mw", "0.08"}, {"period_s", "50"}, {"duty", "0.3"}});
    const auto direct =
        energy::PowerTrace::square_wave(0.08, 50.0, 0.3, 600.0, 1.0);
    ASSERT_EQ(from_registry.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        ASSERT_EQ(from_registry.samples()[i], direct.samples()[i]);
    }
}

TEST(ConstantSource, IsFlat) {
    energy::TraceSourceContext ctx;
    ctx.duration_s = 100.0;
    const auto trace =
        energy::make_trace("constant", ctx, {{"power_mw", "0.033"}});
    for (const double p : trace.samples()) EXPECT_DOUBLE_EQ(p, 0.033);
}

TEST(CsvSource, RoundTripsATraceWrittenByToCsv) {
    energy::TraceSourceContext ctx;
    ctx.duration_s = 300.0;
    ctx.seed = 3;
    const auto original = energy::make_trace("rf-bursty", ctx, {});
    const std::string path = test::scratch_dir() + "imx_trace_roundtrip.csv";
    original.to_csv(path);

    const auto replayed = energy::make_trace("csv", {}, {{"path", path}});
    ASSERT_EQ(replayed.size(), original.size());
    EXPECT_EQ(replayed.dt(), original.dt());
    for (std::size_t i = 0; i < original.size(); ++i) {
        ASSERT_EQ(replayed.samples()[i], original.samples()[i]);
    }
}

TEST(CsvSource, RejectsNonUniformOrNonIncreasingTimeGrids) {
    // An irregular logger export (dropped samples) must fail loudly: the
    // trace representation is a uniform grid, so replaying it at the
    // first-two-rows dt would silently use the wrong time base.
    const std::string path = test::scratch_dir() + "imx_nonuniform.csv";
    {
        std::ofstream file(path);
        file << "time_s,power_mw\n0,0.1\n1,0.1\n5,0.1\n6,0.1\n";
    }
    EXPECT_THROW((void)energy::make_trace("csv", {}, {{"path", path}}),
                 std::invalid_argument);
    {
        std::ofstream file(path);
        file << "time_s,power_mw\n2,0.1\n1,0.1\n0,0.1\n";
    }
    EXPECT_THROW((void)energy::make_trace("csv", {}, {{"path", path}}),
                 std::invalid_argument);
}

TEST(SetupIntegration, NonSolarSourcesBuildFullSetupsAtTheSameBudget) {
    // A registry source threaded through SetupConfig yields a complete,
    // runnable setup: trace rescaled to the harvest budget, events spread
    // over the trace duration.
    core::SetupConfig config;
    config.duration_s = 1200.0;
    config.event_count = 40;
    config.total_harvest_mj = 30.0;
    config.trace_source = "rf-bursty";
    config.trace_params = {{"burst_power_mw", "0.8"}, {"mean_off_s", "10"}};
    const auto setup = core::make_paper_setup(config);
    EXPECT_NEAR(setup.trace.total_energy(), 30.0, 1e-9);
    ASSERT_EQ(setup.events.size(), 40u);
    EXPECT_LE(setup.events.back().time_s, setup.trace.duration());
}

}  // namespace
