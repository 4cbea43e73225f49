// Persistence round-trip of power traces (CSV exchange format).
#include <gtest/gtest.h>

#include <cstdio>

#include "energy/power_trace.hpp"
#include "energy/solar.hpp"
#include "scratch_dir.hpp"

namespace {

using namespace imx;

TEST(TracePersistence, CsvRoundTripIsExact) {
    energy::SolarConfig cfg;
    cfg.dt_s = 30.0;
    cfg.window_start_hour = 8.0;
    cfg.window_end_hour = 16.0;
    const energy::PowerTrace original = energy::make_solar_trace(cfg);
    const std::string path = test::scratch_dir() + "imx_trace_roundtrip.csv";
    original.to_csv(path);
    const energy::PowerTrace restored = energy::PowerTrace::from_csv(path);
    ASSERT_EQ(restored.size(), original.size());
    EXPECT_DOUBLE_EQ(restored.dt(), original.dt());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_NEAR(restored.samples()[i], original.samples()[i],
                    1e-6 * (1.0 + original.samples()[i]));
    }
    EXPECT_NEAR(restored.total_energy(), original.total_energy(), 1e-4);
    std::remove(path.c_str());
}

}  // namespace
