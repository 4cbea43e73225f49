// Unit tests for the util module: RNG, math, stats, CSV, table, contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <vector>

#include "scratch_dir.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace imx::util;

TEST(Contracts, ExpectsThrowsOnViolation) {
    EXPECT_THROW([] { IMX_EXPECTS(1 == 2); }(), ContractViolation);
    EXPECT_NO_THROW([] { IMX_EXPECTS(1 == 1); }());
    EXPECT_THROW([] { IMX_ENSURES(false); }(), ContractViolation);
    EXPECT_THROW([] { IMX_ASSERT(false); }(), ContractViolation);
}

TEST(Contracts, MessageNamesExpressionAndLocation) {
    try {
        IMX_EXPECTS(2 + 2 == 5);
        FAIL() << "should have thrown";
    } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
        EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
    }
}

TEST(Rng, DeterministicForSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(2, 5));
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(*seen.begin(), 2);
    EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
    Rng rng(17);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(2.0));
    EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(MathTest, SigmoidSymmetry) {
    EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
    EXPECT_NEAR(sigmoid(3.0) + sigmoid(-3.0), 1.0, 1e-12);
    EXPECT_FALSE(std::isnan(sigmoid(-1000.0)));
    EXPECT_FALSE(std::isnan(sigmoid(1000.0)));
}

TEST(MathTest, Clamp) {
    EXPECT_EQ(clamp(5, 0, 3), 3);
    EXPECT_EQ(clamp(-1, 0, 3), 0);
    EXPECT_EQ(clamp(2, 0, 3), 2);
}

TEST(Stats, RunningStatsMatchesNaive) {
    Rng rng(31);
    RunningStats stats;
    std::vector<double> values;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-5.0, 9.0);
        stats.add(v);
        values.push_back(v);
    }
    EXPECT_NEAR(stats.mean(), mean(values), 1e-9);
    EXPECT_NEAR(stats.stddev(), stddev(values), 1e-9);
    EXPECT_EQ(stats.count(), 1000u);
}

TEST(Stats, MergeEqualsCombinedStream) {
    Rng rng(37);
    RunningStats a;
    RunningStats b;
    RunningStats all;
    for (int i = 0; i < 500; ++i) {
        const double v = rng.normal(2.0, 3.0);
        (i % 2 == 0 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
}

TEST(Stats, PercentileIsExactNearestRank) {
    const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
    // Nearest rank never interpolates: every answer is a sample value.
    EXPECT_EQ(percentile(sorted, 0.0), 1.0);
    EXPECT_EQ(percentile(sorted, 0.2), 1.0);  // ceil(0.2 * 5) = rank 1
    EXPECT_EQ(percentile(sorted, 0.5), 3.0);
    EXPECT_EQ(percentile(sorted, 0.9), 5.0);
    EXPECT_EQ(percentile(sorted, 1.0), 5.0);
}

TEST(Stats, PercentileEdgeCases) {
    // Empty sample: quiet NaN, not a crash or a sentinel.
    EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
    // A single sample is every percentile.
    const std::vector<double> one = {42.0};
    EXPECT_EQ(percentile(one, 0.0), 42.0);
    EXPECT_EQ(percentile(one, 0.5), 42.0);
    EXPECT_EQ(percentile(one, 1.0), 42.0);
    // NaNs at the tail propagate into high percentiles instead of silently
    // vanishing; low percentiles stay finite.
    const std::vector<double> tail_nan = {1.0, 2.0,
                                          std::numeric_limits<double>::quiet_NaN()};
    EXPECT_EQ(percentile(tail_nan, 0.5), 2.0);
    EXPECT_TRUE(std::isnan(percentile(tail_nan, 1.0)));
}

TEST(Stats, RunningStatsSingleSampleIsDegenerateButDefined) {
    RunningStats stats;
    stats.add(3.25);
    EXPECT_EQ(stats.count(), 1u);
    EXPECT_EQ(stats.mean(), 3.25);
    EXPECT_EQ(stats.min(), 3.25);
    EXPECT_EQ(stats.max(), 3.25);
    EXPECT_EQ(stats.variance(), 0.0);
    // Bessel's correction is undefined at n = 1; the accumulator reports 0
    // rather than dividing by zero, so downstream confidence intervals
    // collapse to a point instead of going NaN.
    EXPECT_EQ(stats.sample_variance(), 0.0);
    EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(Stats, RunningStatsEmptyAccessorsAreZero) {
    const RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_EQ(stats.mean(), 0.0);
    EXPECT_EQ(stats.variance(), 0.0);
    EXPECT_EQ(stats.min(), 0.0);
    EXPECT_EQ(stats.max(), 0.0);
    EXPECT_EQ(stats.sum(), 0.0);
}

TEST(Stats, RunningStatsPropagatesNanAndInf) {
    RunningStats with_nan;
    with_nan.add(1.0);
    with_nan.add(std::nan(""));
    // A NaN sample must poison the moments, not vanish silently.
    EXPECT_TRUE(std::isnan(with_nan.mean()));
    EXPECT_TRUE(std::isnan(with_nan.variance()));
    EXPECT_EQ(with_nan.count(), 2u);

    RunningStats with_inf;
    with_inf.add(1.0);
    with_inf.add(std::numeric_limits<double>::infinity());
    EXPECT_TRUE(std::isinf(with_inf.mean()));
    EXPECT_EQ(with_inf.max(), std::numeric_limits<double>::infinity());
    EXPECT_EQ(with_inf.min(), 1.0);
}

TEST(Stats, RunningStatsMergeWithEmptyIsIdentityBitwise) {
    RunningStats stats;
    for (const double v : {0.5, -1.25, 3.0, 7.75}) stats.add(v);
    const double mean_before = stats.mean();
    const double var_before = stats.variance();

    RunningStats empty;
    stats.merge(empty);  // right identity
    EXPECT_EQ(stats.count(), 4u);
    EXPECT_EQ(stats.mean(), mean_before);
    EXPECT_EQ(stats.variance(), var_before);

    RunningStats other;  // left identity: empty.merge(x) == x
    other.merge(stats);
    EXPECT_EQ(other.count(), 4u);
    EXPECT_EQ(other.mean(), mean_before);
    EXPECT_EQ(other.variance(), var_before);
}

TEST(Stats, RunningStatsMergeIsAssociativeBitwiseOnBinaryFractions) {
    // Welford's parallel merge is NOT bitwise-associative for arbitrary
    // doubles (the correction term rounds differently under different
    // groupings). On samples whose partial means and M2 terms are exactly
    // representable binary fractions, every intermediate is exact, so any
    // merge tree must agree bit for bit. This pins the merge arithmetic:
    // a regression to a naive (and inexact-on-exact-input) formula fails.
    // The odd integers 1..15 are chosen so every intermediate — running
    // means, merge deltas, delta*n_b/n corrections, M2 terms — is a small
    // integer under every grouping below (hand-checked).
    const std::vector<double> chunk_a = {1.0, 3.0};
    const std::vector<double> chunk_b = {5.0, 7.0};
    const std::vector<double> chunk_c = {9.0, 11.0, 13.0, 15.0};
    const auto fill = [](const std::vector<double>& values) {
        RunningStats stats;
        for (const double v : values) stats.add(v);
        return stats;
    };

    // (a + b) + c
    RunningStats left = fill(chunk_a);
    left.merge(fill(chunk_b));
    left.merge(fill(chunk_c));
    // a + (b + c)
    RunningStats bc = fill(chunk_b);
    bc.merge(fill(chunk_c));
    RunningStats right = fill(chunk_a);
    right.merge(bc);
    // The single-stream fold is the reference.
    RunningStats serial;
    for (const auto* chunk : {&chunk_a, &chunk_b, &chunk_c}) {
        for (const double v : *chunk) serial.add(v);
    }

    EXPECT_EQ(left.count(), right.count());
    EXPECT_EQ(left.mean(), right.mean());
    EXPECT_EQ(left.variance(), right.variance());
    EXPECT_EQ(left.mean(), serial.mean());
    EXPECT_EQ(left.variance(), serial.variance());
    EXPECT_EQ(left.min(), serial.min());
    EXPECT_EQ(left.max(), serial.max());
}

TEST(Stats, EmaConvergesToConstant) {
    Ema ema(0.5);
    EXPECT_FALSE(ema.initialized());
    ema.update(10.0);
    EXPECT_NEAR(ema.value(), 10.0, 1e-12);  // first sample initializes
    for (int i = 0; i < 50; ++i) ema.update(4.0);
    EXPECT_NEAR(ema.value(), 4.0, 1e-9);
}

TEST(Csv, ParseWithHeader) {
    const auto t = parse_csv("a,b,c\n1,2,3\n4,5,6\n");
    ASSERT_EQ(t.header.size(), 3u);
    ASSERT_EQ(t.rows.size(), 2u);
    EXPECT_EQ(t.column_index("b"), 1u);
    const auto col = t.numeric_column("c");
    EXPECT_EQ(col, (std::vector<double>{3.0, 6.0}));
}

TEST(Csv, SkipsCommentsAndBlankLines) {
    const auto t = parse_csv("# comment\nx,y\n\n1,2\n");
    EXPECT_EQ(t.rows.size(), 1u);
}

TEST(Csv, MissingColumnThrows) {
    const auto t = parse_csv("a,b\n1,2\n");
    EXPECT_THROW((void)t.column_index("zz"), std::out_of_range);
}

TEST(Csv, WriterRoundTrip) {
    const std::string path = imx::test::scratch_dir() + "imx_csv_test.csv";
    {
        CsvWriter w(path);
        w.write_header({"time_s", "power_mw"});
        w.write_row(std::vector<double>{0.0, 1.5});
        w.write_row(std::vector<double>{1.0, 2.5});
    }
    const auto t = read_csv(path);
    EXPECT_EQ(t.rows.size(), 2u);
    EXPECT_NEAR(t.numeric_column("power_mw")[1], 2.5, 1e-12);
    std::remove(path.c_str());
}

TEST(TableTest, RendersAlignedColumns) {
    Table t("demo");
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"beta", fixed(2.5, 1)});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(TableTest, BarScalesWithValue) {
    EXPECT_EQ(bar(10.0, 10.0, 10), std::string(10, '#'));
    const std::string half = bar(5.0, 10.0, 10);
    EXPECT_EQ(half.substr(0, 5), "#####");
    EXPECT_EQ(half.substr(5), std::string(5, ' '));
}

}  // namespace
