// Deterministic, seedable random number generation.
//
// Everything stochastic in this repository (solar traces, event arrivals,
// RL exploration) draws from imx::util::Rng so that every experiment is
// reproducible from a single seed. The generator is xoshiro256** (Blackman &
// Vigna) seeded via splitmix64, which is both faster and statistically
// stronger than std::mt19937 while keeping the object trivially copyable.
#ifndef IMX_UTIL_RNG_HPP
#define IMX_UTIL_RNG_HPP

#include <array>
#include <cmath>
#include <cstdint>

#include "util/contracts.hpp"

namespace imx::util {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// xoshiro256** PRNG with convenience distributions.
class Rng {
public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x1a2b3c4d5e6f7788ULL) { reseed(seed); }

    void reseed(std::uint64_t seed) {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64(sm);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    result_type operator()() { return next(); }

    std::uint64_t next() {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1).
    double uniform() {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) {
        IMX_EXPECTS(lo <= hi);
        return lo + (hi - lo) * uniform();
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        IMX_EXPECTS(lo <= hi);
        const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
        // Rejection-free Lemire reduction is overkill here; modulo bias is
        // < 2^-40 for all spans used in this project.
        return lo + static_cast<std::int64_t>(next() % span);
    }

    /// Standard normal via Marsaglia polar method.
    double normal() {
        if (has_spare_) {
            has_spare_ = false;
            return spare_;
        }
        double u = 0.0;
        double v = 0.0;
        double s = 0.0;
        do {
            u = uniform(-1.0, 1.0);
            v = uniform(-1.0, 1.0);
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        const double scale = std::sqrt(-2.0 * std::log(s) / s);
        spare_ = v * scale;
        has_spare_ = true;
        return u * scale;
    }

    double normal(double mean, double stddev) {
        IMX_EXPECTS(stddev >= 0.0);
        return mean + stddev * normal();
    }

    /// Bernoulli trial.
    bool bernoulli(double p) {
        IMX_EXPECTS(p >= 0.0 && p <= 1.0);
        return uniform() < p;
    }

    /// Exponential inter-arrival sample with the given rate (events/unit).
    double exponential(double rate) {
        IMX_EXPECTS(rate > 0.0);
        double u = uniform();
        while (u <= 0.0) u = uniform();  // guard log(0)
        return -std::log(u) / rate;
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
    double spare_ = 0.0;
    bool has_spare_ = false;
};

}  // namespace imx::util

#endif  // IMX_UTIL_RNG_HPP
