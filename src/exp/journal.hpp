/// \file
/// \brief Per-shard JSONL outcome journals, resume, and exact merge.
///
/// A journal is one line of JSON per record, machine-written and
/// append-only, so a crashed shard loses at most its final (possibly
/// truncated) line:
///
///   {"imx_journal": 1, "experiment": "fig5-iepmj", "total_specs": 48,
///    "shard": "0/3", "base_seed": "0xd5eed", "quick": true, "replicas": 2}
///   {"spec_index": 0, "id": "paper-solar/Ours#0", "replica": 0,
///    "metrics": {"acc_all_pct": 43.4, ...}}
///   ...
///
/// The versioned header line pins everything that determines the grid a
/// journal belongs to; readers reject mismatches instead of merging apples
/// into oranges. Entries carry the *global* spec index plus the scenario id
/// as a cross-check against the re-expanded grid. Metric doubles are
/// printed with enough digits to round-trip bit-exactly (std::to_chars at
/// 17 significant digits, the same text as %.17g; read back with
/// std::from_chars), which is what makes a merged table/CSV byte-identical
/// to a single-process run.
///
/// The JournalWriter is a ResultSink: because the runner delivers outcomes
/// in spec-index order, a journal is always an in-order prefix of its
/// shard's work — which is exactly what makes --resume a "skip the prefix,
/// run the rest" operation.
#ifndef IMX_EXP_JOURNAL_HPP
#define IMX_EXP_JOURNAL_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/cli.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sink.hpp"

namespace imx::exp {

/// The journal format version this build reads and writes.
inline constexpr int kJournalVersion = 1;

/// Everything that identifies the sweep a journal belongs to. Readers
/// refuse to resume or merge when any field disagrees with the grid in
/// hand — a journal from a different experiment, seed, mode, or replica
/// count cannot silently contaminate a merge.
struct JournalHeader {
    std::string experiment;      ///< ExperimentSpec::name
    std::size_t total_specs = 0; ///< size of the full (unsharded) grid
    ShardSpec shard;             ///< which slice this journal covers
    std::uint64_t base_seed = kDefaultBaseSeed;
    bool quick = false;
    int replicas = 1;
};

/// One journaled scenario outcome (scalar metrics only — per-event
/// SimResults and payloads are not journaled, so merged runs report
/// through the generic aggregate path).
struct JournalEntry {
    std::size_t spec_index = 0;  ///< index into the full grid
    std::string id;              ///< ScenarioSpec::id, cross-checked on read
    int replica = 0;
    MetricMap metrics;
};

/// A parsed journal file.
struct JournalFile {
    JournalHeader header;
    std::vector<JournalEntry> entries;
    /// True when the file ended in an unparseable final line (a write cut
    /// short by a crash). The valid prefix is still returned; --resume
    /// rewrites the file without the torn tail.
    bool truncated = false;
};

/// \brief Serialize one header / entry as its JSONL line (no newline).
std::string journal_header_line(const JournalHeader& header);
std::string journal_entry_line(const JournalEntry& entry);

/// \brief Parse a journal file.
/// \throws std::runtime_error with a path:line diagnostic on a missing
///   file, a bad or unsupported header, or a malformed non-final line
///   (a torn *final* line sets JournalFile::truncated instead).
JournalFile read_journal(const std::string& path);

/// \brief A ResultSink that streams outcomes into a JSONL journal, one
/// flushed line per scenario. Opens `path` truncating and writes the
/// header immediately; replay() re-writes entries recovered from a prior
/// journal (resume) before the live stream starts.
class JournalWriter final : public ResultSink {
public:
    /// \param specs the scenarios the runner will deliver (local order);
    ///   copied metadata only, the vector need not outlive the writer.
    /// \param global_indices specs-parallel absolute grid indices.
    /// \throws std::runtime_error when the path is not writable.
    JournalWriter(const std::string& path, const JournalHeader& header,
                  const std::vector<ScenarioSpec>& specs,
                  std::vector<std::size_t> global_indices);
    ~JournalWriter() override;
    JournalWriter(const JournalWriter&) = delete;
    JournalWriter& operator=(const JournalWriter&) = delete;

    /// Re-write an entry recovered from a previous run of this shard.
    void replay(const JournalEntry& entry);
    void on_outcome(std::size_t spec_index, ScenarioOutcome outcome) override;
    void finish() override;

private:
    struct Impl;
    Impl* impl_;  // pimpl keeps <fstream> out of the header
};

/// \brief The sharded sweep driver: select `header.shard`'s slice of
/// `all_specs`, optionally resume from / stream to a journal, and run the
/// remainder on the parallel runner.
///
/// When `resume` is set and `journal_path` names an existing journal, its
/// entries (validated against the header and the grid) are reused instead
/// of re-run and the journal is rewritten without any torn tail; outcomes
/// reconstructed this way carry metrics only. An empty `journal_path`
/// journals nothing; a missing journal with `resume` simply runs
/// everything (first launch and relaunch share one command line).
struct ShardRunResult {
    std::vector<std::size_t> indices;       ///< global indices of the shard
    std::vector<ScenarioSpec> specs;        ///< the shard's specs
    std::vector<ScenarioOutcome> outcomes;  ///< parallel to specs
    std::size_t reused = 0;  ///< outcomes replayed from the journal
};
ShardRunResult run_shard(const std::vector<ScenarioSpec>& all_specs,
                         const JournalHeader& header,
                         const RunnerConfig& runner,
                         const std::string& journal_path, bool resume);

/// \brief Fold shard journals into the outcomes of the full grid.
/// \param expected the run identity the journals must match (shard field
///   ignored — each journal declares its own slice).
/// \param specs the re-expanded full grid the entries are checked against.
/// \param paths one or more journal files, in any order.
/// \return specs-parallel outcomes (metrics only). Aggregating them yields
///   byte-identical tables/CSV to a single-process run of the same grid.
/// \throws std::runtime_error when a journal mismatches the grid, is
///   truncated, covers an index twice, or the union leaves gaps.
std::vector<ScenarioOutcome> merge_journal_outcomes(
    const JournalHeader& expected, const std::vector<ScenarioSpec>& specs,
    const std::vector<std::string>& paths);

}  // namespace imx::exp

#endif  // IMX_EXP_JOURNAL_HPP
