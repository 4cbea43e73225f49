// Streaming and batch statistics used by the metrics and benchmark layers.
#ifndef IMX_UTIL_STATS_HPP
#define IMX_UTIL_STATS_HPP

#include <cstddef>
#include <vector>

namespace imx::util {

/// Welford one-pass mean/variance accumulator; O(1) memory.
class RunningStats {
public:
    void add(double x);
    void merge(const RunningStats& other);
    void reset();

    [[nodiscard]] std::size_t count() const { return count_; }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double variance() const;  ///< population variance
    [[nodiscard]] double sample_variance() const;
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;
    [[nodiscard]] double sum() const { return mean() * static_cast<double>(count_); }

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Exact nearest-rank percentile of an already-sorted sample: the smallest
/// element with at least ceil(q * n) elements at or below it (q = 0 yields
/// the minimum, q = 1 the maximum). It never interpolates — the result is
/// always an actual sample value — which is what the latency columns report.
/// An empty sample yields quiet NaN; NaN samples placed at the tail
/// propagate into high percentiles rather than silently vanishing.
/// \pre `sorted` is ascending (NaNs, if any, at the tail); \pre 0 <= q <= 1.
double percentile(const std::vector<double>& sorted, double q);

/// The 0-based sorted index percentile() reads for a sample of n values:
/// max(1, ceil(q * n)) - 1. A caller that selects that order statistic
/// (std::nth_element) gets percentile()'s value without a full sort.
/// \pre n > 0; \pre 0 <= q <= 1.
std::size_t nearest_rank_index(double q, std::size_t n);

/// Arithmetic mean of a sample. Empty sample yields 0.
double mean(const std::vector<double>& sample);

/// Population standard deviation of a sample. Fewer than 2 points yields 0.
double stddev(const std::vector<double>& sample);

/// Exponential moving average helper. update() is inline: the simulator
/// calls it once per step and the cross-TU call dominated the two flops.
class Ema {
public:
    explicit Ema(double alpha);
    double update(double x) {
        if (!initialized_) {
            value_ = x;
            initialized_ = true;
        } else {
            value_ = alpha_ * x + (1.0 - alpha_) * value_;
        }
        return value_;
    }
    [[nodiscard]] double value() const { return value_; }
    [[nodiscard]] bool initialized() const { return initialized_; }

private:
    double alpha_;
    double value_ = 0.0;
    bool initialized_ = false;
};

}  // namespace imx::util

#endif  // IMX_UTIL_STATS_HPP
