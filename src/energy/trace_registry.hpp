// Name-based harvesting-source registry: string -> trace factory, so
// benches, spec files, and tests can select harvesting environments without
// compile-time wiring — the energy-side sibling of sim/policies/registry and
// the exp experiment registry.
//
// Built-in sources (always registered; docs/energy-sources.md documents
// every parameter with defaults):
//  * "solar"      — the paper's RSR-style diurnal profile (energy/solar),
//                   daylight-windowed and time-compressed exactly like the
//                   canonical core::make_paper_setup() trace, so the default
//                   parameter set is bitwise identical to it.
//  * "rf-bursty"  — Markov-modulated on/off RF / base-station harvesting
//                   (energy/rf): exponential burst and gap dwells, per-burst
//                   amplitude jitter.
//  * "ou-wind"    — wind/thermal-style mean-reverting drift (energy/ou):
//                   an Ornstein-Uhlenbeck process clamped at a floor.
//  * "duty-cycle" — deterministic piecewise square wave (period + duty),
//                   the classic wireless-power-transfer duty-cycled charger.
//  * "constant"   — flat income, the no-variability control.
//  * "csv"        — measured trace from a time_s,power_mw CSV file
//                   (PowerTrace::from_csv).
//
// Every source takes a validated key=value parameter map: unknown keys,
// malformed numbers, and out-of-range values throw std::invalid_argument
// naming the source, the parameter, and (for unknown keys) everything the
// source accepts. The table is fixed when first used and only read
// afterwards, so make_trace() is safe from sweep worker threads.
#ifndef IMX_ENERGY_TRACE_REGISTRY_HPP
#define IMX_ENERGY_TRACE_REGISTRY_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "energy/power_trace.hpp"
#include "util/param_reader.hpp"

namespace imx::energy {

/// Source parameters as parsed text, e.g. {{"burst_power_mw", "0.6"}}.
/// Values are validated by the source factory via TraceParamReader.
using TraceParams = std::map<std::string, std::string>;

/// What every source receives besides its own parameters: the requested
/// trace length and grid, and the deterministic seed (stochastic sources
/// only). File-backed sources may return a different duration (the file's).
struct TraceSourceContext {
    double duration_s = 13000.0;
    double dt_s = 1.0;
    std::uint64_t seed = 7;
};

/// \brief Typed, validating view over a TraceParams map.
///
/// A thin subclass of util::ParamReader fixing the diagnostic prefix to
/// "trace source '<name>': " — the getters (number/positive/non_negative/
/// fraction/text/required_text), done()'s unknown-key rejection, and fail()
/// are all inherited, byte-identical to the historical per-registry copy.
///
///     TraceParamReader reader("rf-bursty", params);
///     cfg.burst_power_mw = reader.positive("burst_power_mw", 0.5);
///     cfg.mean_on_s = reader.positive("mean_on_s", 3.0);
///     reader.done();
class TraceParamReader : public util::ParamReader {
public:
    TraceParamReader(std::string source, const TraceParams& params)
        : util::ParamReader("trace source", std::move(source), params) {}
};

/// \brief Build a harvesting trace from a registered source.
/// \param source a built-in source name.
/// \param context trace length/grid/seed.
/// \param params source parameters; unknown keys or bad values throw.
/// \throws std::invalid_argument for unknown sources (the message lists
///   every registered name) and for parameter-map violations.
PowerTrace make_trace(const std::string& source,
                      const TraceSourceContext& context = {},
                      const TraceParams& params = {});

/// \brief Whether `name` is registered.
[[nodiscard]] bool has_trace_source(const std::string& name);

/// \brief Every registered name, sorted.
[[nodiscard]] std::vector<std::string> trace_source_names();

/// \brief One-line description of a registered source.
[[nodiscard]] std::string trace_source_description(const std::string& name);

/// \brief The parameter keys a source accepts, sorted. The spec parser uses
/// them to reject unknown keys early with file:line diagnostics.
[[nodiscard]] std::vector<std::string> trace_source_param_names(
    const std::string& name);

/// \brief Whether the source honours TraceSourceContext::duration_s (every
/// generator) or determines its own length (file-backed sources like
/// "csv"). Quick-mode shrinking only rescales the harvest budget of sources
/// that honour the context duration: scaling a fixed-length replay would
/// starve it instead of shortening it.
[[nodiscard]] bool trace_source_uses_context_duration(
    const std::string& name);

}  // namespace imx::energy

#endif  // IMX_ENERGY_TRACE_REGISTRY_HPP
