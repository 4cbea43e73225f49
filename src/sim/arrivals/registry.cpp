// The built-in arrival sources and their fixed util::Registry table.
#include "sim/arrivals/registry.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"
#include "util/registry.hpp"
#include "util/rng.hpp"

namespace imx::sim {

namespace {

/// Builds (and validates) a source for one parameter map; rejects unknown
/// keys and bad values with std::invalid_argument via ArrivalParamReader.
using ArrivalSourceFactory =
    std::function<std::unique_ptr<ArrivalSource>(const ArrivalParams&)>;

/// One table row. `param_names` lets the spec parser reject unknown keys
/// early with file:line diagnostics.
struct ArrivalSourceEntry {
    ArrivalSourceFactory factory;
    std::string description;
    std::vector<std::string> param_names;
};

/// The paper's Sec. V-A stream: `count` arrival times drawn independently
/// and uniformly over the duration. The sampling order (one uniform() draw
/// per event, before the shared sort) MUST stay in lockstep with the
/// pre-registry uniform generator: the "uniform" source is
/// the canonical event schedule, bitwise (tests/test_arrivals.cpp pins it).
class UniformArrivalSource final : public ArrivalSource {
public:
    explicit UniformArrivalSource(const ArrivalParams& params) {
        ArrivalParamReader reader("uniform", params);
        reader.done();
    }

protected:
    // The Q-learning training loop regenerates this stream once per episode
    // per scenario; appending into the workspace buffer makes that
    // allocation-free in steady state.
    void sample_into(const ArrivalContext& ctx,
                     std::vector<Event>& out) const override {
        util::Rng rng(ctx.seed);
        out.clear();
        out.reserve(static_cast<std::size_t>(ctx.count));
        for (int i = 0; i < ctx.count; ++i) {
            out.push_back({0, rng.uniform(0.0, ctx.duration_s)});
        }
    }
};

/// Exponential inter-arrivals at rate_scale x (count / duration). Arrivals
/// that would fall past the horizon wrap to a uniform draw so the schedule
/// always carries exactly `count` events (the historical kPoisson rule).
class PoissonArrivalSource final : public ArrivalSource {
public:
    explicit PoissonArrivalSource(const ArrivalParams& params) {
        ArrivalParamReader reader("poisson", params);
        rate_scale_ = reader.positive("rate_scale", 1.0);
        reader.done();
    }

protected:
    void sample_into(const ArrivalContext& ctx,
                     std::vector<Event>& out) const override {
        util::Rng rng(ctx.seed);
        out.clear();
        out.reserve(static_cast<std::size_t>(ctx.count));
        const double rate =
            rate_scale_ * static_cast<double>(ctx.count) / ctx.duration_s;
        double t = 0.0;
        while (static_cast<int>(out.size()) < ctx.count) {
            t += rng.exponential(rate);
            if (t >= ctx.duration_s) t = rng.uniform(0.0, ctx.duration_s);
            out.push_back({0, t});
        }
    }

private:
    double rate_scale_ = 1.0;
};

/// Uniformly placed bursts of burst_min..burst_max arrivals, each jittered
/// within jitter_s of the burst epoch — the historical kBursty stress
/// stream with its constants exposed as parameters.
class BurstyArrivalSource final : public ArrivalSource {
public:
    explicit BurstyArrivalSource(const ArrivalParams& params) {
        ArrivalParamReader reader("bursty", params);
        burst_min_ = static_cast<int>(reader.positive("burst_min", 2.0));
        burst_max_ = static_cast<int>(reader.positive("burst_max", 5.0));
        jitter_s_ = reader.positive("jitter_s", 5.0);
        reader.done();
        if (burst_min_ > burst_max_) {
            reader.fail("needs burst_min <= burst_max");
        }
    }

protected:
    void sample_into(const ArrivalContext& ctx,
                     std::vector<Event>& out) const override {
        util::Rng rng(ctx.seed);
        out.clear();
        out.reserve(static_cast<std::size_t>(ctx.count));
        while (static_cast<int>(out.size()) < ctx.count) {
            const double burst_time = rng.uniform(0.0, ctx.duration_s);
            const auto burst_size =
                static_cast<int>(rng.uniform_int(burst_min_, burst_max_));
            for (int b = 0;
                 b < burst_size && static_cast<int>(out.size()) < ctx.count;
                 ++b) {
                const double jitter = rng.uniform(0.0, jitter_s_);
                out.push_back({0, std::min(burst_time + jitter,
                                           ctx.duration_s - 1e-6)});
            }
        }
    }

private:
    int burst_min_ = 2;
    int burst_max_ = 5;
    double jitter_s_ = 5.0;
};

/// Two-state Markov-modulated Poisson process: exponential idle and burst
/// dwells, with arrivals burst_rate_factor times denser during bursts. The
/// per-state rates are solved so the long-run mean matches count/duration;
/// like "poisson", arrivals past the horizon wrap to a uniform draw so the
/// schedule carries exactly `count` events.
class MmppArrivalSource final : public ArrivalSource {
public:
    explicit MmppArrivalSource(const ArrivalParams& params) {
        ArrivalParamReader reader("mmpp", params);
        mean_burst_s_ = reader.positive("mean_burst_s", 120.0);
        mean_idle_s_ = reader.positive("mean_idle_s", 600.0);
        burst_rate_factor_ = reader.positive("burst_rate_factor", 8.0);
        reader.done();
        if (burst_rate_factor_ < 1.0) {
            reader.fail("burst_rate_factor must be >= 1");
        }
    }

protected:
    void sample_into(const ArrivalContext& ctx,
                     std::vector<Event>& out) const override {
        util::Rng rng(ctx.seed);
        out.clear();
        out.reserve(static_cast<std::size_t>(ctx.count));
        const double mean_rate =
            static_cast<double>(ctx.count) / ctx.duration_s;
        // Solve f * (k * r) + (1 - f) * r = mean_rate for the idle rate r,
        // where f is the long-run burst-state fraction and k the factor.
        const double burst_fraction =
            mean_burst_s_ / (mean_burst_s_ + mean_idle_s_);
        const double idle_rate =
            mean_rate / (burst_fraction * burst_rate_factor_ +
                         (1.0 - burst_fraction));
        const double burst_rate = burst_rate_factor_ * idle_rate;

        bool burst = false;
        double t = 0.0;
        double dwell_end = rng.exponential(1.0 / mean_idle_s_);
        while (static_cast<int>(out.size()) < ctx.count) {
            const double gap =
                rng.exponential(burst ? burst_rate : idle_rate);
            if (t + gap >= dwell_end) {
                // State switch before the next arrival would land.
                t = dwell_end;
                burst = !burst;
                dwell_end =
                    t + rng.exponential(burst ? 1.0 / mean_burst_s_
                                              : 1.0 / mean_idle_s_);
                continue;
            }
            t += gap;
            if (t >= ctx.duration_s) {
                // Horizon wrap (poisson rule): restart the walk at a
                // uniform epoch so the count is always met.
                t = rng.uniform(0.0, ctx.duration_s);
                dwell_end = t + rng.exponential(burst ? 1.0 / mean_burst_s_
                                                      : 1.0 / mean_idle_s_);
            }
            out.push_back({0, t});
        }
    }

private:
    double mean_burst_s_ = 120.0;
    double mean_idle_s_ = 600.0;
    double burst_rate_factor_ = 8.0;
};

/// Poisson arrivals whose rate follows a day-cycle profile: intensity
/// 1 + depth * cos(2 pi (t / period - peak_frac)), peaking at
/// peak_frac * period into each cycle. Exactly `count` events are placed by
/// rejection sampling against the intensity envelope.
class DiurnalArrivalSource final : public ArrivalSource {
public:
    explicit DiurnalArrivalSource(const ArrivalParams& params) {
        ArrivalParamReader reader("diurnal", params);
        depth_ = reader.fraction("depth", 0.8);
        peak_frac_ = reader.fraction("peak_frac", 0.5);
        period_s_ = reader.non_negative("period_s", 0.0);
        reader.done();
    }

protected:
    void sample_into(const ArrivalContext& ctx,
                     std::vector<Event>& out) const override {
        util::Rng rng(ctx.seed);
        out.clear();
        out.reserve(static_cast<std::size_t>(ctx.count));
        // period_s = 0 (the default) means one cycle per run: the horizon
        // is the day.
        const double period = period_s_ > 0.0 ? period_s_ : ctx.duration_s;
        const double two_pi = 2.0 * 3.14159265358979323846;
        while (static_cast<int>(out.size()) < ctx.count) {
            const double t = rng.uniform(0.0, ctx.duration_s);
            const double weight =
                1.0 + depth_ * std::cos(two_pi * (t / period - peak_frac_));
            if (rng.uniform(0.0, 1.0 + depth_) <= weight) {
                out.push_back({0, t});
            }
        }
    }

private:
    double depth_ = 0.8;
    double peak_frac_ = 0.5;
    double period_s_ = 0.0;
};

/// Time-stamped replay of a real request trace: one arrival per data line,
/// first comma/whitespace-separated field = arrival time in seconds
/// (blank lines and '#' comments skipped). Replay is seed-independent;
/// times outside [0, duration_s) are dropped and the schedule is capped at
/// the context's event count (quick mode shrinks real traces this way).
class CsvArrivalSource final : public ArrivalSource {
public:
    explicit CsvArrivalSource(const ArrivalParams& params) {
        ArrivalParamReader reader("csv", params);
        const std::string path = reader.required_text("path");
        time_scale_ = reader.positive("time_scale", 1.0);
        reader.done();

        std::ifstream file(path);
        if (!file) {
            reader.fail("cannot open '" + path + "'");
        }
        std::string line;
        int line_no = 0;
        while (std::getline(file, line)) {
            ++line_no;
            const auto first = line.find_first_not_of(" \t\r");
            if (first == std::string::npos || line[first] == '#') continue;
            const auto end = line.find_first_of(", \t\r", first);
            const std::string field =
                line.substr(first, end == std::string::npos ? std::string::npos
                                                            : end - first);
            char* parse_end = nullptr;
            errno = 0;
            const double value = std::strtod(field.c_str(), &parse_end);
            if (parse_end == field.c_str() || *parse_end != '\0' ||
                errno == ERANGE || !(value >= 0.0)) {
                reader.fail("'" + path + "' line " + std::to_string(line_no) +
                            ": expects a non-negative arrival time, got '" +
                            field + "'");
            }
            times_s_.push_back(value);
        }
        if (times_s_.empty()) {
            reader.fail("'" + path + "' contains no arrival times");
        }
    }

protected:
    void sample_into(const ArrivalContext& ctx,
                     std::vector<Event>& out) const override {
        std::vector<double> times;
        times.reserve(times_s_.size());
        for (const double t : times_s_) {
            const double scaled = t * time_scale_;
            if (scaled < ctx.duration_s) times.push_back(scaled);
        }
        // Stable, so equal times (-0 and 0 among them) keep file order.
        std::stable_sort(times.begin(), times.end());
        if (static_cast<int>(times.size()) > ctx.count) {
            times.resize(static_cast<std::size_t>(ctx.count));
        }
        out.clear();
        out.reserve(times.size());
        for (const double t : times) out.push_back({0, t});
    }

private:
    std::vector<double> times_s_;
    double time_scale_ = 1.0;
};

/// Sorts `events` ascending by time, equal times in their input order, in
/// expected linear time for times spread over [0, duration_s): one counting
/// pass into n buckets on floor(t * n / duration_s), clamped to the first
/// and last bucket, then an insertion sort. The bucket index never
/// decreases as t grows, so every inversion the scatter leaves sits inside
/// one bucket; a clustered or out-of-range input still sorts exactly, only
/// with more insertion steps. Scratch lives per thread, so a steady-state
/// sweep worker allocates nothing here.
void sort_by_time(std::vector<Event>& events, double duration_s) {
    const std::size_t n = events.size();
    if (n < 2) return;
    thread_local std::vector<Event> scratch;
    thread_local std::vector<std::size_t> starts;
    scratch.assign(events.begin(), events.end());
    starts.assign(n + 1, 0);
    const double scale = static_cast<double>(n) / duration_s;
    const double last = static_cast<double>(n - 1);
    auto bucket = [scale, last](double t) -> std::size_t {
        const double b = t * scale;
        return b >= 1.0 ? static_cast<std::size_t>(std::min(b, last)) : 0;
    };
    for (const Event& e : scratch) ++starts[bucket(e.time_s) + 1];
    for (std::size_t b = 1; b <= n; ++b) starts[b] += starts[b - 1];
    for (const Event& e : scratch) events[starts[bucket(e.time_s)]++] = e;
    for (std::size_t i = 1; i < n; ++i) {
        const Event e = events[i];
        std::size_t j = i;
        for (; j > 0 && e.time_s < events[j - 1].time_s; --j) {
            events[j] = events[j - 1];
        }
        events[j] = e;
    }
}

template <typename Source>
std::unique_ptr<ArrivalSource> build_source(const ArrivalParams& params) {
    return std::make_unique<Source>(params);
}

/// The fixed table of built-in sources, built once on first use.
const util::Registry<ArrivalSourceEntry>& registry() {
    static const util::Registry<ArrivalSourceEntry> instance(
        "arrival source",
        {{"uniform",
          {build_source<UniformArrivalSource>,
           "independent uniform arrival times (paper Sec. V-A stream)",
           {}}},
         {"poisson",
          {build_source<PoissonArrivalSource>,
           "exponential inter-arrivals at the count-implied mean rate",
           {"rate_scale"}}},
         {"bursty",
          {build_source<BurstyArrivalSource>,
           "uniformly placed bursts of jittered arrivals",
           {"burst_min", "burst_max", "jitter_s"}}},
         {"mmpp",
          {build_source<MmppArrivalSource>,
           "Markov-modulated Poisson process (exponential idle/burst "
           "dwells)",
           {"mean_burst_s", "mean_idle_s", "burst_rate_factor"}}},
         {"diurnal",
          {build_source<DiurnalArrivalSource>,
           "Poisson arrivals under a day-cycle (cosine) rate profile",
           {"depth", "peak_frac", "period_s"}}},
         {"csv",
          {build_source<CsvArrivalSource>,
           "time-stamped replay of a request trace from a CSV file",
           {"path", "time_scale"}}}});
    return instance;
}

}  // namespace

std::vector<Event> ArrivalSource::generate(const ArrivalContext& ctx) const {
    std::vector<Event> events;
    generate_into(ctx, events);
    return events;
}

void ArrivalSource::generate_into(const ArrivalContext& ctx,
                                  std::vector<Event>& out) const {
    IMX_EXPECTS(ctx.count >= 0);
    IMX_EXPECTS(ctx.duration_s > 0.0);
    sample_into(ctx, out);
    // Events with equal times are indistinguishable here (every source
    // emits {0, t}), so this is the schedule any ascending sort gives.
    sort_by_time(out, ctx.duration_s);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].id = static_cast<int>(i);
    }
}

std::unique_ptr<ArrivalSource> make_arrival_source(
    const std::string& source, const ArrivalParams& params) {
    auto built = registry().get(source).factory(params);
    IMX_EXPECTS(built != nullptr);
    return built;
}

std::vector<Event> generate_arrivals(const std::string& source,
                                     const ArrivalContext& context,
                                     const ArrivalParams& params) {
    return make_arrival_source(source, params)->generate(context);
}

bool has_arrival_source(const std::string& name) {
    return registry().contains(name);
}

std::vector<std::string> arrival_source_names() { return registry().names(); }

std::string arrival_source_description(const std::string& name) {
    return registry().get(name).description;
}

std::vector<std::string> arrival_source_param_names(const std::string& name) {
    auto names = registry().get(name).param_names;
    std::sort(names.begin(), names.end());
    return names;
}

}  // namespace imx::sim
