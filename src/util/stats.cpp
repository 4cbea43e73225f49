#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace imx::util {

void RunningStats::add(double x) {
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double n_a = static_cast<double>(count_);
    const double n_b = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = n_a + n_b;
    mean_ += delta * n_b / n;
    m2_ += other.m2_ + delta * delta * n_a * n_b / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
    return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::sample_variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

double percentile(const std::vector<double>& sorted, double q) {
    IMX_EXPECTS(q >= 0.0 && q <= 1.0);
    IMX_ASSERT(std::is_sorted(sorted.begin(), sorted.end(),
                              [](double a, double b) { return a < b; }));
    if (sorted.empty()) return std::nan("");
    return sorted[nearest_rank_index(q, sorted.size())];
}

std::size_t nearest_rank_index(double q, std::size_t n) {
    IMX_EXPECTS(q >= 0.0 && q <= 1.0);
    IMX_EXPECTS(n > 0);
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(n))));
    return rank - 1;
}

double mean(const std::vector<double>& sample) {
    if (sample.empty()) return 0.0;
    RunningStats rs;
    for (const double x : sample) rs.add(x);
    return rs.mean();
}

double stddev(const std::vector<double>& sample) {
    if (sample.size() < 2) return 0.0;
    RunningStats rs;
    for (const double x : sample) rs.add(x);
    return rs.stddev();
}

Ema::Ema(double alpha) : alpha_(alpha) {
    IMX_EXPECTS(alpha > 0.0 && alpha <= 1.0);
}

}  // namespace imx::util
