// Persistence round-trips: Q-table LUTs (deployment artifact) and power
// traces (CSV exchange format).
#include <gtest/gtest.h>

#include <cstdio>

#include "energy/power_trace.hpp"
#include "energy/solar.hpp"
#include "rl/qtable.hpp"
#include "scratch_dir.hpp"
#include "util/contracts.hpp"

namespace {

using namespace imx;

TEST(QTablePersistence, SaveLoadRoundTrip) {
    rl::QLearningConfig cfg;
    cfg.alpha = 0.5;
    cfg.epsilon = 0.0;
    rl::QTable original(4, 3, cfg, 1);
    for (std::size_t s = 0; s < 4; ++s) {
        for (std::size_t a = 0; a < 3; ++a) {
            original.update_terminal(s, a, static_cast<double>(s * 10 + a));
        }
    }
    const std::string path = test::scratch_dir() + "imx_qtable_test.csv";
    original.save(path);

    rl::QTable restored(4, 3, cfg, 2);
    restored.load(path);
    for (std::size_t s = 0; s < 4; ++s) {
        for (std::size_t a = 0; a < 3; ++a) {
            EXPECT_DOUBLE_EQ(restored.q(s, a), original.q(s, a));
        }
        EXPECT_EQ(restored.greedy(s), original.greedy(s));
    }
    std::remove(path.c_str());
}

TEST(QTablePersistence, LoadRejectsWrongShape) {
    rl::QLearningConfig cfg;
    rl::QTable small(2, 2, cfg);
    const std::string path = test::scratch_dir() + "imx_qtable_shape.csv";
    small.save(path);
    rl::QTable big(4, 4, cfg);
    EXPECT_THROW(big.load(path), util::ContractViolation);
    std::remove(path.c_str());
}

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
