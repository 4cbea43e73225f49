// Energy substrate tests: traces, solar generator, capacitor storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "energy/income.hpp"
#include "energy/power_trace.hpp"
#include "energy/solar.hpp"
#include "energy/storage.hpp"
#include "scratch_dir.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;
using energy::PowerTrace;

TEST(PowerTrace, ConstantTraceIntegrals) {
    const PowerTrace t = PowerTrace::constant(2.0, 100.0, 1.0);
    EXPECT_NEAR(t.total_energy(), 200.0, 1e-9);
    EXPECT_NEAR(t.mean_power(), 2.0, 1e-9);
    EXPECT_NEAR(t.energy_between(10.0, 20.0), 20.0, 1e-9);
    EXPECT_NEAR(t.energy_between(10.5, 10.75), 0.5, 1e-9);
    EXPECT_EQ(t.power_at(50.0), 2.0);
    EXPECT_EQ(t.power_at(1000.0), 0.0);
    EXPECT_EQ(t.power_at(-1.0), 0.0);
}

TEST(PowerTrace, EnergyBetweenIsAdditive) {
    const PowerTrace t = PowerTrace::square_wave(3.0, 10.0, 0.5, 100.0, 1.0);
    const double whole = t.energy_between(0.0, 100.0);
    const double split = t.energy_between(0.0, 37.3) + t.energy_between(37.3, 100.0);
    EXPECT_NEAR(whole, split, 1e-9);
    EXPECT_NEAR(whole, t.total_energy(), 1e-9);
}

TEST(PowerTrace, SquareWaveDutyCycle) {
    // dt must divide the duty window for the energy to be exact.
    const PowerTrace t = PowerTrace::square_wave(4.0, 10.0, 0.25, 100.0, 0.5);
    EXPECT_NEAR(t.total_energy(), 4.0 * 100.0 * 0.25, 1e-6);
    EXPECT_EQ(t.power_at(0.5), 4.0);
    EXPECT_EQ(t.power_at(5.0), 0.0);
}

TEST(PowerTrace, RescaleHitsTarget) {
    PowerTrace t = PowerTrace::constant(1.0, 50.0, 1.0);
    t.rescale_total_energy(123.0);
    EXPECT_NEAR(t.total_energy(), 123.0, 1e-9);
}

TEST(PowerTrace, RejectsNegativePower) {
    EXPECT_THROW(PowerTrace(1.0, {1.0, -0.5}), util::ContractViolation);
    EXPECT_THROW(PowerTrace(0.0, {1.0}), util::ContractViolation);
}

TEST(PowerTrace, CsvRoundTrip) {
    const std::string path = test::scratch_dir() + "imx_trace_test.csv";
    {
        util::CsvWriter w(path);
        w.write_header({"time_s", "power_mw"});
        for (int i = 0; i < 10; ++i) {
            w.write_row(std::vector<double>{static_cast<double>(i), 0.5 * i});
        }
    }
    const PowerTrace t = PowerTrace::from_csv(path);
    EXPECT_EQ(t.size(), 10u);
    EXPECT_NEAR(t.power_at(4.5), 2.0, 1e-9);
    std::remove(path.c_str());
}

TEST(Solar, DeterministicNonNegativeAndDiurnal) {
    energy::SolarConfig cfg;
    cfg.days = 1.0;
    cfg.dt_s = 60.0;
    cfg.seed = 5;
    const PowerTrace a = energy::make_solar_trace(cfg);
    const PowerTrace b = energy::make_solar_trace(cfg);
    EXPECT_EQ(a.samples(), b.samples());
    for (const double p : a.samples()) EXPECT_GE(p, 0.0);
    // Night (first samples, before 6 am) is dark.
    EXPECT_EQ(a.power_at(0.0), 0.0);
    EXPECT_EQ(a.power_at(3600.0), 0.0);
    // Noon is bright.
    EXPECT_GT(a.power_at(12.0 * 3600.0), 0.2 * cfg.peak_power_mw);
}

TEST(Solar, PeakNeverExceedsConfiguredPeak) {
    energy::SolarConfig cfg;
    cfg.dt_s = 30.0;
    cfg.peak_power_mw = 1.5;
    const PowerTrace t = energy::make_solar_trace(cfg);
    EXPECT_LE(*std::max_element(t.samples().begin(), t.samples().end()),
              cfg.peak_power_mw + 1e-9);
}

TEST(Solar, DaylightWindowCoversWholeTrace) {
    energy::SolarConfig cfg;
    cfg.window_start_hour = cfg.sunrise_hour;
    cfg.window_end_hour = cfg.sunset_hour;
    cfg.dt_s = 10.0;
    const PowerTrace t = energy::make_solar_trace(cfg);
    EXPECT_NEAR(t.duration(), 12.0 * 3600.0, 15.0);
    // Mid-trace (solar noon) should carry substantial power.
    EXPECT_GT(t.power_at(t.duration() / 2.0), 0.3 * cfg.peak_power_mw);
}

TEST(Solar, TimeCompressionShortensDuration) {
    energy::SolarConfig cfg;
    cfg.dt_s = 1.0;
    cfg.time_compression = 8.0;
    const PowerTrace t = energy::make_solar_trace(cfg);
    EXPECT_NEAR(t.duration(), 86400.0 / 8.0, 2.0);
}

TEST(Solar, CloudsCreateVariability) {
    energy::SolarConfig cfg;
    cfg.dt_s = 10.0;
    cfg.window_start_hour = 10.0;
    cfg.window_end_hour = 14.0;  // near-constant clear-sky envelope
    cfg.cloud_sigma = 0.15;
    const PowerTrace cloudy = energy::make_solar_trace(cfg);
    cfg.cloud_sigma = 0.0;
    cfg.cloud_theta = 1.0;  // pin attenuation at clear sky
    const PowerTrace clear = energy::make_solar_trace(cfg);
    double var_cloudy = 0.0;
    double var_clear = 0.0;
    const double mean_cloudy = cloudy.mean_power();
    const double mean_clear = clear.mean_power();
    for (std::size_t i = 0; i < cloudy.size(); ++i) {
        var_cloudy += (cloudy.samples()[i] - mean_cloudy) *
                      (cloudy.samples()[i] - mean_cloudy);
        var_clear +=
            (clear.samples()[i] - mean_clear) * (clear.samples()[i] - mean_clear);
    }
    EXPECT_GT(var_cloudy, var_clear);
}

TEST(Storage, HarvestConservesEnergyWithEfficiency) {
    energy::StorageConfig cfg;
    cfg.capacity_mj = 10.0;
    cfg.initial_mj = 0.0;
    cfg.leakage_mw = 0.0;
    cfg.efficiency_max = 0.8;
    cfg.efficiency_half_power_mw = 0.0;  // flat efficiency
    energy::EnergyStorage s(cfg);
    const double stored = s.harvest(2.0, 3.0);  // 6 mJ gross
    EXPECT_NEAR(stored, 6.0 * 0.8, 1e-9);
    EXPECT_NEAR(s.level(), 4.8, 1e-9);
}

TEST(Storage, EfficiencyRisesWithPower) {
    energy::StorageConfig cfg;
    cfg.efficiency_max = 0.9;
    cfg.efficiency_half_power_mw = 0.1;
    energy::EnergyStorage s(cfg);
    EXPECT_EQ(s.efficiency_at(0.0), 0.0);
    EXPECT_LT(s.efficiency_at(0.05), s.efficiency_at(0.5));
    EXPECT_NEAR(s.efficiency_at(0.1), 0.45, 1e-9);  // half-power point
    EXPECT_LT(s.efficiency_at(100.0), 0.9 + 1e-9);
}

TEST(Storage, CapsAtCapacity) {
    energy::StorageConfig cfg;
    cfg.capacity_mj = 1.0;
    cfg.efficiency_max = 1.0;
    cfg.efficiency_half_power_mw = 0.0;
    cfg.leakage_mw = 0.0;
    energy::EnergyStorage s(cfg);
    (void)s.harvest(10.0, 10.0);  // 100 mJ gross
    EXPECT_NEAR(s.level(), 1.0, 1e-9);
}

TEST(Storage, TryConsumeAllOrNothing) {
    energy::StorageConfig cfg;
    cfg.capacity_mj = 5.0;
    cfg.initial_mj = 2.0;
    energy::EnergyStorage s(cfg);
    EXPECT_FALSE(s.try_consume(3.0));
    EXPECT_NEAR(s.level(), 2.0, 1e-12);  // unchanged on failure
    EXPECT_TRUE(s.try_consume(1.5));
    EXPECT_NEAR(s.level(), 0.5, 1e-12);
}

TEST(Storage, LeakageDrainsOverTime) {
    energy::StorageConfig cfg;
    cfg.capacity_mj = 5.0;
    cfg.initial_mj = 1.0;
    cfg.leakage_mw = 0.01;
    energy::EnergyStorage s(cfg);
    (void)s.harvest(0.0, 50.0);  // no input, 50 s of leakage
    EXPECT_NEAR(s.level(), 0.5, 1e-9);
}

TEST(Storage, ThresholdHysteresis) {
    energy::StorageConfig cfg;
    cfg.capacity_mj = 2.0;
    cfg.on_threshold_mj = 1.0;
    cfg.death_threshold_mj = 0.2;
    cfg.initial_mj = 0.5;
    energy::EnergyStorage s(cfg);
    EXPECT_FALSE(s.can_turn_on());
    EXPECT_FALSE(s.below_death_threshold());
    s.reset(1.5);
    EXPECT_TRUE(s.can_turn_on());
    EXPECT_FALSE(s.below_death_threshold());
    s.reset(1.0);
    EXPECT_TRUE(s.can_turn_on());  // the on threshold is inclusive
    s.reset(0.2);
    EXPECT_FALSE(s.below_death_threshold());  // the death threshold is strict
    s.reset(0.1);
    EXPECT_FALSE(s.can_turn_on());
    EXPECT_TRUE(s.below_death_threshold());
}

TEST(Storage, RandomScheduleNeverViolatesInvariants) {
    // Property: level stays in [0, capacity] under arbitrary harvest/consume.
    energy::StorageConfig cfg;
    cfg.capacity_mj = 4.0;
    cfg.initial_mj = 1.0;
    cfg.leakage_mw = 0.002;
    energy::EnergyStorage s(cfg);
    util::Rng rng(77);
    for (int i = 0; i < 5000; ++i) {
        if (rng.bernoulli(0.6)) {
            (void)s.harvest(rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0));
        } else if (rng.bernoulli(0.5)) {
            (void)s.try_consume(rng.uniform(0.0, 2.0));
        } else {
            s.drain(rng.uniform(0.0, 1.0));
        }
        EXPECT_GE(s.level(), 0.0);
        EXPECT_LE(s.level(), cfg.capacity_mj + 1e-12);
    }
}

// --- per-step income tables -------------------------------------------------

TEST(IncomeTable, StepsFollowTheAccumulatedClockBitwise) {
    // At dt = 0.1 the simulator's running sum of steps drifts from k * dt,
    // and the drift decides which sample power_at() reads at a sample
    // boundary (0.1 x 10 sums to 0.9999999999999999, in sample 0). The
    // table must replay exactly that sum, and harvesting its entries must
    // leave the buffer bitwise where harvest() at the same times does.
    std::vector<double> samples;
    for (int i = 0; i < 40; ++i) samples.push_back(0.05 * (i % 7));
    const PowerTrace trace(1.0, samples);
    energy::StorageConfig config;
    config.capacity_mj = 0.8;
    const double dt = 0.1;
    const auto table = trace.income(energy::IncomeKey::of(dt, config));
    energy::EnergyStorage reference(config);
    energy::EnergyStorage tabled(config);
    std::size_t step = 0;
    bool drift_changes_a_sample = false;
    for (double now = 0.0; now < trace.duration(); now += dt, ++step) {
        ASSERT_LT(step, table->steps());
        drift_changes_a_sample =
            drift_changes_a_sample ||
            trace.power_at(now) !=
                trace.power_at(static_cast<double>(step) * dt);
        const double stored = reference.harvest(trace.power_at(now), dt);
        EXPECT_EQ(tabled.harvest_net(table->net_mj(step),
                                     config.leakage_mw * dt),
                  stored);
        EXPECT_EQ(tabled.level(), reference.level());
    }
    EXPECT_EQ(step, table->steps());
    EXPECT_TRUE(drift_changes_a_sample);
}

TEST(IncomeTable, BuiltOncePerKeyAndSharedByCopiesUntilRescaled) {
    PowerTrace trace = PowerTrace::square_wave(1.0, 10.0, 0.5, 100.0, 1.0);
    energy::StorageConfig config;
    const auto key = energy::IncomeKey::of(1.0, config);
    const auto table = trace.income(key);
    EXPECT_EQ(table->key(), key);
    EXPECT_EQ(trace.income(key), table);
    const PowerTrace copy = trace;
    EXPECT_EQ(copy.income(key), table);
    config.efficiency_max = 0.5;
    const auto other = trace.income(energy::IncomeKey::of(1.0, config));
    EXPECT_NE(other, table);
    const double p0 = trace.power_at(0.0);
    EXPECT_EQ(other->net_mj(0),
              p0 * 1.0 * energy::charging_efficiency(0.5, 0.15, p0));

    // Rescaling changes the samples: the trace gets fresh tables and a
    // fresh total, and the copy keeps the old ones.
    const double total = trace.total_energy();
    trace.rescale_total_energy(2.0 * total);
    EXPECT_EQ(trace.total_energy(), 2.0 * total);
    const auto rescaled = trace.income(key);
    EXPECT_NE(rescaled, table);
    EXPECT_GT(rescaled->net_mj(0), table->net_mj(0));
    EXPECT_EQ(copy.income(key), table);
    EXPECT_EQ(copy.total_energy(), total);
}

}  // namespace
