// The built-in harvesting sources and their fixed util::Registry table.
#include "energy/trace_registry.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "energy/ou.hpp"
#include "energy/rf.hpp"
#include "energy/solar.hpp"
#include "util/contracts.hpp"
#include "util/registry.hpp"

namespace imx::energy {

namespace {

/// Builds the trace for one context + parameter map; validates `params`
/// (unknown keys, bad values) with std::invalid_argument via
/// TraceParamReader.
using TraceSourceFactory =
    std::function<PowerTrace(const TraceSourceContext&, const TraceParams&)>;

/// One table row. `param_names` lets the spec parser reject unknown keys
/// early with file:line diagnostics. `uses_context_duration` is false for
/// file-backed sources, which take their length from the file.
struct TraceSource {
    TraceSourceFactory factory;
    std::string description;
    std::vector<std::string> param_names;
    bool uses_context_duration = true;
};

/// The paper's canonical daylight-windowed solar profile. The default
/// parameter values below MUST stay in lockstep with what
/// core::make_paper_setup() historically hard-coded: the "solar" source
/// with an empty parameter map is the canonical trace, bitwise
/// (tests/test_energy_sources.cpp pins this).
PowerTrace solar_source(const TraceSourceContext& ctx,
                        const TraceParams& params) {
    TraceParamReader reader("solar", params);
    SolarConfig solar;
    solar.days = 1.0;
    solar.dt_s = ctx.dt_s;
    solar.peak_power_mw = reader.positive("peak_power_mw", 0.08);
    solar.sunrise_hour = reader.number("sunrise_hour", 6.0);
    solar.sunset_hour = reader.number("sunset_hour", 18.0);
    solar.envelope_exponent = reader.positive("envelope_exponent", 2.0);
    solar.cloud_theta = reader.non_negative("cloud_theta", 0.02);
    solar.cloud_sigma = reader.non_negative("cloud_sigma", 0.06);
    solar.cloud_floor = reader.fraction("cloud_floor", 0.05);
    const std::string window = reader.text("window", "daylight");
    reader.done();

    if (solar.sunrise_hour < 0.0 || solar.sunset_hour > 24.0 ||
        solar.sunrise_hour >= solar.sunset_hour) {
        reader.fail("needs 0 <= sunrise_hour < sunset_hour <= 24");
    }
    if (window == "daylight") {
        // The paper evaluation schedules every event inside the harvesting
        // day, so the trace covers sunrise..sunset compressed into the
        // experiment duration.
        solar.window_start_hour = solar.sunrise_hour;
        solar.window_end_hour = solar.sunset_hour;
    } else if (window == "full-day") {
        solar.window_start_hour = 0.0;
        solar.window_end_hour = 24.0;
    } else {
        reader.fail("parameter 'window' expects daylight or full-day, got '" +
                    window + "'");
    }
    const double window_s =
        (solar.window_end_hour - solar.window_start_hour) * 3600.0;
    if (ctx.duration_s > window_s) {
        reader.fail("duration " + std::to_string(ctx.duration_s) +
                    " s exceeds the " + std::to_string(window_s) +
                    " s harvesting window (the profile compresses wall-clock "
                    "time, it never stretches it)");
    }
    solar.time_compression = window_s / ctx.duration_s;
    solar.seed = ctx.seed;
    return make_solar_trace(solar);
}

PowerTrace rf_bursty_source(const TraceSourceContext& ctx,
                            const TraceParams& params) {
    TraceParamReader reader("rf-bursty", params);
    RfBurstyConfig rf;
    rf.duration_s = ctx.duration_s;
    rf.dt_s = ctx.dt_s;
    rf.seed = ctx.seed;
    rf.burst_power_mw = reader.positive("burst_power_mw", 0.5);
    rf.idle_power_mw = reader.non_negative("idle_power_mw", 0.0);
    rf.mean_on_s = reader.positive("mean_on_s", 3.0);
    rf.mean_off_s = reader.positive("mean_off_s", 27.0);
    rf.power_jitter = reader.non_negative("power_jitter", 0.25);
    reader.done();
    return make_rf_bursty_trace(rf);
}

PowerTrace ou_wind_source(const TraceSourceContext& ctx,
                          const TraceParams& params) {
    TraceParamReader reader("ou-wind", params);
    OuDriftConfig ou;
    ou.duration_s = ctx.duration_s;
    ou.dt_s = ctx.dt_s;
    ou.seed = ctx.seed;
    ou.mean_power_mw = reader.positive("mean_power_mw", 0.03);
    ou.reversion_rate = reader.positive("reversion_rate", 0.005);
    ou.sigma = reader.non_negative("sigma", 0.004);
    ou.floor_mw = reader.non_negative("floor_mw", 0.0);
    reader.done();
    if (ou.floor_mw > ou.mean_power_mw) {
        reader.fail("floor_mw must not exceed mean_power_mw");
    }
    return make_ou_drift_trace(ou);
}

PowerTrace duty_cycle_source(const TraceSourceContext& ctx,
                             const TraceParams& params) {
    TraceParamReader reader("duty-cycle", params);
    const double power_mw = reader.positive("power_mw", 0.1);
    const double period_s = reader.positive("period_s", 60.0);
    const double duty = reader.fraction("duty", 0.5);
    reader.done();
    if (duty <= 0.0) {
        // duty = 0 would be an all-zero trace, which cannot be rescaled to
        // any harvest budget.
        reader.fail("duty must be > 0 (an all-off trace harvests nothing)");
    }
    return PowerTrace::square_wave(power_mw, period_s, duty, ctx.duration_s,
                                   ctx.dt_s);
}

PowerTrace constant_source(const TraceSourceContext& ctx,
                           const TraceParams& params) {
    TraceParamReader reader("constant", params);
    const double power_mw = reader.positive("power_mw", 0.02);
    reader.done();
    return PowerTrace::constant(power_mw, ctx.duration_s, ctx.dt_s);
}

PowerTrace csv_source(const TraceSourceContext& ctx,
                      const TraceParams& params) {
    (void)ctx;  // duration/dt/seed come from the file
    TraceParamReader reader("csv", params);
    const std::string path = reader.required_text("path");
    reader.done();
    try {
        return PowerTrace::from_csv(path);
    } catch (const std::invalid_argument&) {
        throw;
    } catch (const std::exception& e) {
        reader.fail("cannot load '" + path + "': " + e.what());
    }
}

/// The fixed table of built-in sources, built once on first use.
const util::Registry<TraceSource>& registry() {
    static const util::Registry<TraceSource> instance(
        "trace source",
        {{"solar",
          {solar_source,
           "diurnal solar profile with OU cloud attenuation (paper setup)",
           {"peak_power_mw", "sunrise_hour", "sunset_hour",
            "envelope_exponent", "cloud_theta", "cloud_sigma", "cloud_floor",
            "window"}}},
         {"rf-bursty",
          {rf_bursty_source, "Markov-modulated on/off RF / base-station bursts",
           {"burst_power_mw", "idle_power_mw", "mean_on_s", "mean_off_s",
            "power_jitter"}}},
         {"ou-wind",
          {ou_wind_source,
           "wind/thermal-style mean-reverting (OU) drift around a mean",
           {"mean_power_mw", "reversion_rate", "sigma", "floor_mw"}}},
         {"duty-cycle",
          {duty_cycle_source, "deterministic square wave (duty-cycled charger)",
           {"power_mw", "period_s", "duty"}}},
         {"constant",
          {constant_source, "flat income (no-variability control)",
           {"power_mw"}}},
         {"csv",
          {csv_source, "measured trace from a time_s,power_mw CSV file",
           {"path"},
           /*uses_context_duration=*/false}}});
    return instance;
}

}  // namespace

PowerTrace make_trace(const std::string& source,
                      const TraceSourceContext& context,
                      const TraceParams& params) {
    IMX_EXPECTS(context.duration_s > 0.0);
    IMX_EXPECTS(context.dt_s > 0.0);
    return registry().get(source).factory(context, params);
}

bool has_trace_source(const std::string& name) {
    return registry().contains(name);
}

std::vector<std::string> trace_source_names() { return registry().names(); }

std::string trace_source_description(const std::string& name) {
    return registry().get(name).description;
}

std::vector<std::string> trace_source_param_names(const std::string& name) {
    auto names = registry().get(name).param_names;
    std::sort(names.begin(), names.end());
    return names;
}

bool trace_source_uses_context_duration(const std::string& name) {
    return registry().get(name).uses_context_duration;
}

}  // namespace imx::energy
