/// \file
/// \brief Shared CLI surface for sweep-driven binaries — one flag table,
/// consumed identically by `imx_sweep` and the examples:
///
///   flag         value  meaning
///   --quick      —      smoke mode: shorter trace, fewer episodes
///   --replicas   N      seed replicas per scenario group
///   --threads    N      sweep worker threads (0 = hardware concurrency)
///   --csv        PATH   write the aggregate CSV
///   --base-seed  N      sweep base seed (default 0xD5EED re-rolls nothing)
///   --shard      i/N    run only the i-th of N deterministic grid shards
///                       (spec indices j with j % N == i; placement cannot
///                       change numbers — seeds depend only on names)
///   --journal    PATH   stream per-scenario outcomes to a JSONL journal
///   --resume     —      skip scenarios already present in --journal's file
///                       (tolerates a truncated tail from a crashed run)
///   --merge      PATH   repeatable; fold shard journals back into the
///                       exact single-process aggregate table/CSV without
///                       running anything
///   --profile    —      after the report, print the simulator work
///                       counters and per-scenario wall time
///                       (docs/profiling.md)
///
/// Flags are consumed; anything else lands in `positional` in order, so
/// callers can accept e.g. an episode count before or after the flags.
/// Unknown `--flags`, value-taking flags with a missing value, and
/// malformed `--shard i/N` strings (i >= N, N = 0, non-numeric) are hard
/// errors: a misspelled `--thread 4` must not silently become
/// positional[0] and change what the binary computes. The implementation
/// lives in cli.cpp — this header stays declaration-only so the parser is
/// compiled once into the library instead of into every binary.
#ifndef IMX_EXP_CLI_HPP
#define IMX_EXP_CLI_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace imx::exp {

/// The sweep-wide base seed every bench has always run under. CLI overrides
/// (`--base-seed`) re-roll replicated sweeps; this default keeps replica-0
/// outputs bitwise identical to the historical runs.
inline constexpr std::uint64_t kDefaultBaseSeed = 0xD5EEDULL;

/// One deterministic slice of a sweep grid: shard `index` of `count` runs
/// the spec indices j with j % count == index. The default 0/1 is the whole
/// grid. Because scenario seeds depend only on (base_seed, group, replica),
/// shard composition cannot change any number.
struct ShardSpec {
    int index = 0;
    int count = 1;
};

/// \brief Parse an "i/N" shard string.
/// \throws std::invalid_argument on malformed input: not of the form i/N,
///   N = 0, i >= N, or negative/non-numeric components.
ShardSpec parse_shard_spec(const std::string& text);

/// The spec indices belonging to `shard` out of `total` specs, ascending.
/// Shards with index >= total are empty (an uneven split is legal).
std::vector<std::size_t> shard_indices(std::size_t total,
                                       const ShardSpec& shard);

struct SweepCli {
    bool quick = false;   ///< smoke mode: shorter trace, fewer episodes
    int replicas = 1;     ///< seed replicas per scenario group
    int threads = 0;      ///< sweep worker threads; 0 = hardware concurrency
    std::string csv;      ///< optional aggregate CSV output path
    /// Sweep base seed threaded into scenario_seed(); the default keeps
    /// every bench's replica-0 output bitwise identical to the historical
    /// runs, `--base-seed N` re-rolls all replica streams.
    std::uint64_t base_seed = kDefaultBaseSeed;
    ShardSpec shard;           ///< --shard i/N; default 0/1 = whole grid
    std::string journal;       ///< --journal PATH (JSONL outcome journal)
    bool resume = false;       ///< --resume (requires --journal)
    /// --merge PATH, repeatable: shard journals to fold into the exact
    /// single-process aggregate output. Non-empty selects merge mode — no
    /// scenarios are executed.
    std::vector<std::string> merge;
    /// --profile: after the report, print the sweep's summed simulator
    /// counters and per-scenario wall times (exp::SweepProfile). Ignored in
    /// --merge mode (nothing executes there).
    bool profile = false;
    bool replicas_given = false;   ///< --replicas appeared on the command line
    bool base_seed_given = false;  ///< --base-seed appeared on the command line
    bool shard_given = false;      ///< --shard appeared on the command line
    std::vector<std::string> positional;  ///< non-flag arguments, in order
};

/// \brief Parse the shared sweep flags out of argv.
/// \return the parsed options; calls std::exit(2) with a diagnostic on any
///   unknown flag, missing value, malformed number or shard string, or
///   inconsistent combination (--resume without --journal; --merge mixed
///   with --shard/--journal/--resume).
SweepCli parse_sweep_cli(int argc, char** argv);

/// \brief The search experiments' optional episode count: positional
/// argument 0, or `fallback` when absent.
/// \throws std::invalid_argument on non-numeric text or a count below 1.
int positional_episodes(const SweepCli& options, int fallback);

/// \brief For experiments that accept no positional arguments: reject
/// strays so a forgotten flag (`fig5-iepmj 8` instead of
/// `fig5-iepmj --replicas 8`) cannot silently run with defaults.
/// \throws std::invalid_argument naming the first stray argument.
void require_no_positional(const SweepCli& options);

}  // namespace imx::exp

#endif  // IMX_EXP_CLI_HPP
