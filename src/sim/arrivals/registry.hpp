// Name-based request-arrival registry: string -> ArrivalSource factory, so
// benches, spec files, and tests can select workload processes without
// compile-time wiring — the traffic-side sibling of energy/trace_registry,
// sim/policies/registry, and sim/recovery/registry.
//
// Built-in sources (always registered; docs/workloads.md documents every
// parameter with defaults):
//  * "uniform" — the paper's Sec. V-A stream ("randomly distributed across
//                the duration"); with default parameters it is bitwise
//                identical to the pre-registry uniform stream.
//  * "poisson" — exponential inter-arrivals at the mean rate implied by the
//                requested count (optionally scaled).
//  * "bursty"  — uniformly placed bursts of jittered arrivals (the
//                pre-registry bursty stress stream, parameters exposed).
//  * "mmpp"    — Markov-modulated Poisson process: exponential idle/burst
//                dwells with a rate multiplier during bursts.
//  * "diurnal" — Poisson process whose rate follows a day-cycle profile
//                (cosine modulation around a peak time).
//  * "csv"     — time-stamped replay of a real request trace from a CSV
//                file (first column = arrival time in seconds).
//
// Every source takes a validated key=value parameter map: unknown keys,
// malformed numbers, and out-of-range values throw std::invalid_argument
// naming the source, the parameter, and (for unknown keys) everything the
// source accepts. The table is fixed when first used and only read
// afterwards, so make_arrival_source() is safe from sweep worker threads.
#ifndef IMX_SIM_ARRIVALS_REGISTRY_HPP
#define IMX_SIM_ARRIVALS_REGISTRY_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_gen.hpp"
#include "util/param_reader.hpp"

namespace imx::sim {

/// Source parameters as parsed text, e.g. {{"mean_burst_s", "120"}}.
/// Values are validated by the source factory via ArrivalParamReader.
using ArrivalParams = std::map<std::string, std::string>;

/// What every source receives besides its own parameters: how many events
/// to schedule, over what horizon, and the deterministic seed (stochastic
/// sources only). File-backed sources may return fewer events (the file's).
struct ArrivalContext {
    int count = 500;
    double duration_s = 13000.0;
    std::uint64_t seed = 99;
};

/// \brief One constructed arrival process. Construction (through the
/// factory) validates parameters; generate() may then be called any number
/// of times with different contexts — the replica machinery reuses one
/// source across independently seeded streams.
class ArrivalSource {
public:
    virtual ~ArrivalSource() = default;
    ArrivalSource() = default;
    ArrivalSource(const ArrivalSource&) = delete;
    ArrivalSource& operator=(const ArrivalSource&) = delete;

    /// \brief Generate the event schedule: time-sorted over [0, duration_s)
    /// (equal times in sample order), ids renumbered 0..n-1. Deterministic
    /// for a fixed context.
    [[nodiscard]] std::vector<Event> generate(
        const ArrivalContext& context) const;

    /// \brief generate() into a caller-owned buffer (replaced, capacity
    /// reused) — the allocation-free path the sweep hot loop takes through
    /// sim::ScenarioWorkspace. Produces exactly the bytes generate() would.
    void generate_into(const ArrivalContext& context,
                       std::vector<Event>& out) const;

protected:
    /// Raw arrival times in any order, replacing the contents of `out`;
    /// generate_into() sorts and renumbers. Sources clear and append into
    /// the reused buffer so a steady-state worker makes no heap allocation.
    virtual void sample_into(const ArrivalContext& context,
                             std::vector<Event>& out) const = 0;
};

/// \brief Typed, validating view over an ArrivalParams map.
///
/// A thin subclass of util::ParamReader fixing the diagnostic prefix to
/// "arrival source '<name>': " — the getters (number/positive/non_negative/
/// fraction/text/required_text), done()'s unknown-key rejection, and fail()
/// are all inherited, byte-identical to the historical per-registry copy.
///
///     ArrivalParamReader reader("mmpp", params);
///     cfg.mean_burst_s = reader.positive("mean_burst_s", 120.0);
///     reader.done();
class ArrivalParamReader : public util::ParamReader {
public:
    ArrivalParamReader(std::string source, const ArrivalParams& params)
        : util::ParamReader("arrival source", std::move(source), params) {}
};

/// \brief Build an arrival source from a registered name.
/// \param source a built-in source name.
/// \param params source parameters; unknown keys or bad values throw.
/// \throws std::invalid_argument for unknown sources (the message lists
///   every registered name) and for parameter-map violations.
std::unique_ptr<ArrivalSource> make_arrival_source(
    const std::string& source, const ArrivalParams& params = {});

/// make_arrival_source(source, params)->generate(context) in one call.
std::vector<Event> generate_arrivals(const std::string& source,
                                     const ArrivalContext& context = {},
                                     const ArrivalParams& params = {});

/// \brief Whether `name` is registered.
[[nodiscard]] bool has_arrival_source(const std::string& name);

/// \brief Every registered name, sorted.
[[nodiscard]] std::vector<std::string> arrival_source_names();

/// \brief One-line description of a registered source.
[[nodiscard]] std::string arrival_source_description(const std::string& name);

/// \brief The parameter keys a source accepts, sorted (empty for "uniform",
/// which takes none). The spec parser uses them to reject unknown keys
/// early with file:line diagnostics.
[[nodiscard]] std::vector<std::string> arrival_source_param_names(
    const std::string& name);

}  // namespace imx::sim

#endif  // IMX_SIM_ARRIVALS_REGISTRY_HPP
