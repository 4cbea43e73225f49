// Shared declarations of the in-process benchmark: clocks and process
// counters, the span recorder, the workloads, and the probes.
//
// Every timing here is host time (std::chrono::steady_clock, getrusage).
// Simulated quantities (events, IEpmJ, simulated latency) come from the
// scenarios' own metrics and are only correctness sentinels.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compress/policy.hpp"
#include "core/search.hpp"
#include "exp/experiment.hpp"
#include "nn/kernels/counters.hpp"

namespace perfbench {

namespace compress = imx::compress;
namespace core = imx::core;
namespace energy = imx::energy;
namespace exp = imx::exp;
namespace nn = imx::nn;
namespace rl = imx::rl;
namespace sim = imx::sim;
namespace util = imx::util;

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point start, Clock::time_point end);
/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();
/// Peak resident set of the process so far, MB.
double peak_rss_mb();
/// CPUs this process may run on (what `nproc` prints).
int available_cpus();

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

// --- Spans ------------------------------------------------------------------

struct Span {
    const char* name = "";
    int id = 0;
    int parent = -1;  ///< -1: a root span
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t thread = 0;
    [[nodiscard]] double seconds() const {
        return 1e-9 * static_cast<double>(end_ns - start_ns);
    }
};

/// In-memory span recorder, safe to call from sweep worker threads. Spans
/// are kept until write_jsonl() at the end of the run.
class Tracer {
public:
    /// Start a span now; returns its id.
    int open(const char* name, int parent = -1);
    void close(int id);
    /// Record a finished span.
    void record(const char* name, int parent, Clock::time_point start,
                Clock::time_point end);
    /// The durations (s) of every span named `name` under `parent`.
    [[nodiscard]] std::vector<double> durations(const char* name,
                                                int parent) const;
    void write_jsonl(const std::string& path) const;

private:
    [[nodiscard]] std::int64_t ns(Clock::time_point t) const;

    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

// --- Workloads --------------------------------------------------------------

/// What a pass hands the collected outcomes to.
enum class SinkKind {
    kCollect,           ///< CollectSink (search)
    kCollectAggregate,  ///< CollectSink, then exp::aggregate (sweep-recovery)
    kJournalAggregate,  ///< JournalWriter + AggregateSink, then fold back
};

struct WorkloadDef {
    const char* name;
    const char* experiment;  ///< registry name of the grid
    int replicas;            ///< replicas per cell; parallel searches
    SinkKind sink;
    bool search;
    /// Nominal seconds per timed pass on a 4-core host. A run times
    /// round(--seconds / pass_s) passes, a count fixed before the clock
    /// starts, so a faster library times as many passes as a slower one.
    double pass_s;
};

const WorkloadDef* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// The seed a workload's reference digests were captured at: the library's
/// canonical seeds (SearchConfig::seed for search, kDefaultBaseSeed for the
/// sweeps), so the reference pass is the historical output.
std::uint64_t reference_seed(const WorkloadDef& def);

/// Per-scenario facts the benchmark derives from the grid definition, used
/// for correctness checks and for the probe-times-count reconstruction.
struct ScenarioInfo {
    int events = 0;           ///< expected event count (conservation check)
    bool simulated = false;   ///< false for the search scenario
    bool queue = false;
    bool recovery = false;
    bool fresh_arrivals = false;  ///< replica >= 1 regenerates its schedule
};

struct Grid {
    const WorkloadDef* def = nullptr;
    std::uint64_t seed = 0;
    int threads = 1;
    exp::SweepCli options;
    exp::Experiment experiment;
    std::vector<exp::ScenarioSpec> specs;
    std::vector<ScenarioInfo> info;  ///< parallel to specs
    core::SearchConfig search;       ///< search only
    int search_layers = 0;           ///< search only
};

/// make_experiment + build_experiment_scenarios (sweeps), or
/// make_paper_setup + make_search_scenario with SearchConfig::seed = seed.
Grid build_grid(const WorkloadDef& def, std::uint64_t seed, int threads);

struct PassResult {
    double run_s = 0.0;
    double cpu_s = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;  ///< first few failure reasons
    /// group -> digest of its scenarios' metrics (%.17g, spec order).
    std::map<std::string, std::uint64_t> digests;
    std::map<std::string, std::size_t> group_sizes;
    // search
    double best_racc = 0.0;
    int evaluations = 0;
    std::optional<compress::Policy> best_policy;
    // layer counts and times
    std::size_t sink_calls = 0;
    double sink_s = 0.0;
    double merge_s = 0.0;
    double aggregate_s = 0.0;
    double journal_bytes = 0.0;
    double retained_records = 0.0;
    nn::kernels::KernelCounters kernels;  ///< delta over the pass
    std::vector<double> scenario_s;       ///< traced passes only
    // simulated sentinels, summed over scenarios
    double events = 0.0;
    double processed = 0.0;
    double dropped = 0.0;
    double deaths = 0.0;
    double wasted_macs_m = 0.0;
};

/// One timed pass: hand the grid to exp::run_sweep, drain the sink, then
/// (untimed) check every outcome. With a tracer, each scenario run and
/// sink delivery is recorded as a span.
PassResult run_pass(const Grid& grid, const std::string& workdir,
                    Tracer* tracer);

/// Eq. 10 Racc of the compression policy the sweeps deploy (the canonical
/// setup's reference nonuniform policy), scored like a search candidate.
double deployed_policy_racc();

// --- Reference digests ------------------------------------------------------

/// "<workload>\t<backend>\t<group>\t<hex digest>" lines; sweeps use
/// backend "any" (they run no NN kernel).
using Reference = std::map<std::string, std::uint64_t>;
Reference load_reference(const std::string& path, const std::string& workload,
                         const std::string& backend);
std::string reference_lines(const std::string& workload,
                            const std::string& backend,
                            const PassResult& pass);

// --- Probes -----------------------------------------------------------------

/// Single-threaded timings of public calls on the workloads' own inputs.
/// Keys are the per-layer metric names they feed.
std::map<std::string, double> run_probes(
    const std::optional<compress::Policy>& searched, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
