// Tests for the streaming-sink sweep pipeline: ordered ResultSink delivery
// (serialized, yet no stall for the workers until a lagging sink's backlog
// reaches its bound), TeeSink sharing the SimResult, streaming-vs-batch
// aggregation bitwise equality, shard index arithmetic, the JSONL journal
// round-trip (bit-exact doubles, number text identical to "%.17g"), resume
// after a torn journal, and the exact-merge invariant — shard + merge is
// byte-identical to a single-process run, on a synthetic grid, a registry
// grid, and an unregistered spec-file grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/cli.hpp"
#include "exp/experiment.hpp"
#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sink.hpp"
#include "exp/spec_parser.hpp"
#include "scratch_dir.hpp"
#include "sim/metrics.hpp"
#include "util/rng.hpp"

#ifndef IMX_SPEC_DIR
#error "IMX_SPEC_DIR must point at examples/experiments"
#endif

namespace {

using namespace imx;

std::string temp_path(const std::string& name) {
    return test::scratch_dir() + name;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(static_cast<bool>(out)) << path;
    out << content;
}

exp::ScenarioSpec synthetic_scenario(const std::string& group, int replica,
                                     std::uint64_t base_seed) {
    exp::ScenarioSpec spec;
    spec.group = group;
    spec.id = group + "#" + std::to_string(replica);
    spec.replica = replica;
    spec.seed = exp::scenario_seed(base_seed, group, replica);
    spec.run = [](const exp::ScenarioContext& ctx) {
        util::Rng rng(ctx.seed);
        exp::ScenarioOutcome outcome;
        double sum = 0.0;
        for (int i = 0; i < 500; ++i) sum += rng.uniform();
        outcome.metrics["sum"] = sum;
        outcome.metrics["third"] = sum / 3.0;
        return outcome;
    };
    return spec;
}

std::vector<exp::ScenarioSpec> synthetic_grid(int groups, int replicas,
                                              std::uint64_t base_seed) {
    std::vector<exp::ScenarioSpec> specs;
    for (int g = 0; g < groups; ++g) {
        for (int r = 0; r < replicas; ++r) {
            specs.push_back(synthetic_scenario("group" + std::to_string(g), r,
                                               base_seed));
        }
    }
    return specs;
}

exp::JournalHeader header_for(const std::vector<exp::ScenarioSpec>& specs,
                              const exp::ShardSpec& shard,
                              std::uint64_t base_seed) {
    exp::JournalHeader header;
    header.experiment = "journal-test";
    header.total_specs = specs.size();
    header.shard = shard;
    header.base_seed = base_seed;
    header.quick = false;
    header.replicas = 1;
    return header;
}

void expect_same_metrics(const std::vector<exp::ScenarioOutcome>& a,
                         const std::vector<exp::ScenarioOutcome>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Bitwise equality on every metric — merge must be exact.
        EXPECT_EQ(a[i].metrics, b[i].metrics) << "spec index " << i;
    }
}

// --- Shard arithmetic -----------------------------------------------------

TEST(ParseShardSpec, AcceptsWellFormed) {
    const auto whole = exp::parse_shard_spec("0/1");
    EXPECT_EQ(whole.index, 0);
    EXPECT_EQ(whole.count, 1);
    const auto mid = exp::parse_shard_spec("2/5");
    EXPECT_EQ(mid.index, 2);
    EXPECT_EQ(mid.count, 5);
}

TEST(ParseShardSpec, RejectsMalformed) {
    const char* bad[] = {"",    "1",    "1/",    "/3",  "a/b", "1/2/3",
                         "3/3", "4/3",  "-1/3",  "1/0", "0/0", "1/-2",
                         "1.5/3", "+1/3", "0x1/3"};
    for (const char* text : bad) {
        EXPECT_THROW(exp::parse_shard_spec(text), std::invalid_argument)
            << "'" << text << "' should be rejected";
    }
}

TEST(ShardIndices, RoundRobinPartitionIsDisjointAndComplete) {
    const std::size_t total = 10;
    std::vector<std::size_t> seen;
    for (int i = 0; i < 3; ++i) {
        const auto slice = exp::shard_indices(total, {i, 3});
        for (const std::size_t j : slice) {
            EXPECT_EQ(j % 3, static_cast<std::size_t>(i));
            seen.push_back(j);
        }
    }
    EXPECT_EQ(seen.size(), total);
    EXPECT_EQ(exp::shard_indices(total, {0, 3}),
              (std::vector<std::size_t>{0, 3, 6, 9}));
    EXPECT_EQ(exp::shard_indices(total, {1, 3}),
              (std::vector<std::size_t>{1, 4, 7}));
}

TEST(ShardIndices, ShardBeyondGridIsEmpty) {
    EXPECT_TRUE(exp::shard_indices(2, {2, 3}).empty());
    EXPECT_TRUE(exp::shard_indices(0, {0, 1}).empty());
}

// --- Sink delivery --------------------------------------------------------

struct RecordingSink final : exp::ResultSink {
    std::vector<std::size_t> indices;
    int finish_calls = 0;
    void on_outcome(std::size_t spec_index, exp::ScenarioOutcome) override {
        indices.push_back(spec_index);
    }
    void finish() override { ++finish_calls; }
};

TEST(ResultSink, DeliveryIsStrictlyOrderedUnderParallelism) {
    const auto specs = synthetic_grid(4, 4, 11);
    RecordingSink sink;
    exp::run_sweep(specs, sink, {8});
    ASSERT_EQ(sink.indices.size(), specs.size());
    for (std::size_t i = 0; i < sink.indices.size(); ++i) {
        EXPECT_EQ(sink.indices[i], i);
    }
    EXPECT_EQ(sink.finish_calls, 1);
}

struct ThrowingSink final : exp::ResultSink {
    int finish_calls = 0;
    void on_outcome(std::size_t spec_index, exp::ScenarioOutcome) override {
        if (spec_index == 3) throw std::runtime_error("sink-boom");
    }
    void finish() override { ++finish_calls; }
};

TEST(ResultSink, SinkExceptionAbortsStreamWithoutFinish) {
    const auto specs = synthetic_grid(2, 4, 12);
    ThrowingSink sink;
    EXPECT_THROW(exp::run_sweep(specs, sink, {4}), std::runtime_error);
    EXPECT_EQ(sink.finish_calls, 0);
}

/// Blocks its first delivery until every scenario's run function has
/// executed (or 30 s pass, so a stalled runner fails instead of hanging).
struct BlockingSink final : exp::ResultSink {
    std::mutex mutex;
    std::condition_variable changed;
    std::size_t total = 0;
    std::size_t ran = 0;            ///< run functions finished (guarded)
    bool delivery_started = false;  ///< first on_outcome entered (guarded)
    bool timed_out = false;
    std::vector<std::size_t> indices;

    void on_outcome(std::size_t spec_index, exp::ScenarioOutcome) override {
        if (indices.empty()) {
            std::unique_lock<std::mutex> lock(mutex);
            delivery_started = true;
            changed.notify_all();
            timed_out = !changed.wait_for(lock, std::chrono::seconds(30),
                                          [this] { return ran == total; });
        }
        indices.push_back(spec_index);
    }
    void finish() override {}
};

TEST(ResultSink, SlowSinkDoesNotStallWorkers) {
    // Every scenario but the first waits for the first delivery to begin, so
    // scenarios are still queued while the sink blocks. A runner that called
    // the sink under its slot lock would park the other worker behind it and
    // never run them.
    auto specs = synthetic_grid(1, 6, 31);
    BlockingSink sink;
    sink.total = specs.size();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].run = [inner = specs[i].run, &sink,
                        i](const exp::ScenarioContext& ctx) {
            if (i != 0) {
                std::unique_lock<std::mutex> lock(sink.mutex);
                sink.changed.wait_for(lock, std::chrono::seconds(30), [&sink] {
                    return sink.delivery_started;
                });
            }
            exp::ScenarioOutcome outcome = inner(ctx);
            std::lock_guard<std::mutex> lock(sink.mutex);
            ++sink.ran;
            sink.changed.notify_all();
            return outcome;
        };
    }
    exp::run_sweep(specs, sink, {2});
    EXPECT_FALSE(sink.timed_out);
    ASSERT_EQ(sink.indices.size(), specs.size());
    for (std::size_t i = 0; i < sink.indices.size(); ++i) {
        EXPECT_EQ(sink.indices[i], i);
    }
}

/// Sleeps in every delivery and records how far the finished scenarios ran
/// ahead of it.
struct LaggingSink final : exp::ResultSink {
    std::mutex mutex;
    std::size_t ran = 0;  ///< run functions finished (guarded)
    std::size_t delivered = 0;
    std::size_t max_ahead = 0;

    void on_outcome(std::size_t, exp::ScenarioOutcome) override {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(mutex);
        ++delivered;
        max_ahead = std::max(max_ahead, ran - delivered);
    }
    void finish() override {}
};

TEST(ResultSink, SinkThatFallsBehindBoundsUndeliveredOutcomes) {
    // Workers outrun a sink this slow; past 16 undelivered outcomes per
    // worker they wait for it instead of piling up more results.
    const int threads = 2;
    auto specs = synthetic_grid(1, 300, 43);
    LaggingSink sink;
    for (auto& spec : specs) {
        spec.run = [inner = spec.run, &sink](const exp::ScenarioContext& ctx) {
            exp::ScenarioOutcome outcome = inner(ctx);
            std::lock_guard<std::mutex> lock(sink.mutex);
            ++sink.ran;
            return outcome;
        };
    }
    exp::run_sweep(specs, sink, {threads});
    EXPECT_EQ(sink.delivered, specs.size());
    // Each worker may hold one finished outcome beyond the bound.
    EXPECT_LE(sink.max_ahead, static_cast<std::size_t>(17 * threads));
}

/// Records which SimResult object each delivery carried, then forwards.
struct SimSpySink final : exp::ResultSink {
    exp::ResultSink& next;
    std::vector<const sim::SimResult*> seen;
    explicit SimSpySink(exp::ResultSink& forward_to) : next(forward_to) {}
    void on_outcome(std::size_t spec_index,
                    exp::ScenarioOutcome outcome) override {
        seen.push_back(outcome.sim.get());
        next.on_outcome(spec_index, std::move(outcome));
    }
    void finish() override { next.finish(); }
};

TEST(TeeSink, ChildrenShareTheSimResult) {
    auto specs = synthetic_grid(1, 4, 37);
    std::vector<const sim::SimResult*> made(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].run = [inner = specs[i].run, &made,
                        i](const exp::ScenarioContext& ctx) {
            exp::ScenarioOutcome outcome = inner(ctx);
            auto result = std::make_shared<sim::SimResult>();
            result->records.resize(i + 3);
            made[i] = result.get();
            outcome.sim = std::move(result);
            return outcome;
        };
    }
    std::vector<std::size_t> indices(specs.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    const std::string path = temp_path("imx_tee_shared.jsonl");
    exp::JournalWriter journal(path, header_for(specs, {0, 1}, 37), specs,
                               indices);
    SimSpySink spy(journal);
    exp::CollectSink collect(specs.size());
    exp::TeeSink tee({&collect, &spy});
    exp::run_sweep(specs, tee, {2});

    ASSERT_TRUE(collect.finished());
    ASSERT_EQ(spy.seen.size(), specs.size());
    const auto file = exp::read_journal(path);
    ASSERT_EQ(file.entries.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const exp::ScenarioOutcome& kept = collect.outcomes()[i];
        ASSERT_NE(kept.sim, nullptr) << i;
        EXPECT_EQ(kept.sim->records.size(), i + 3);
        EXPECT_EQ(kept.sim.get(), made[i]) << i;
        EXPECT_EQ(spy.seen[i], made[i]) << i;
        EXPECT_EQ(file.entries[i].metrics, kept.metrics) << i;
    }
}

// --- Streaming vs batch aggregation ---------------------------------------

TEST(AggregateSink, BitwiseMatchesBatchAggregate) {
    const auto specs = synthetic_grid(3, 5, 7);
    exp::AggregateSink streaming(specs);
    exp::run_sweep(specs, streaming, {4});
    ASSERT_TRUE(streaming.finished());
    const auto batch = exp::aggregate(specs, exp::run_sweep(specs, {1}));
    const auto& live = streaming.groups();
    ASSERT_EQ(live.size(), batch.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(live[i].group, batch[i].group);
        EXPECT_EQ(live[i].replicas, batch[i].replicas);
        ASSERT_EQ(live[i].metrics.size(), batch[i].metrics.size());
        for (const auto& [name, stats] : live[i].metrics) {
            const auto& other = batch[i].metrics.at(name);
            EXPECT_EQ(stats.count, other.count);
            EXPECT_EQ(stats.mean, other.mean) << name;
            EXPECT_EQ(stats.stddev, other.stddev) << name;
            EXPECT_EQ(stats.ci95, other.ci95) << name;
            EXPECT_EQ(stats.min, other.min) << name;
            EXPECT_EQ(stats.max, other.max) << name;
        }
    }
}

// --- Journal format -------------------------------------------------------

TEST(Journal, RoundTripIsBitExact) {
    exp::JournalHeader header;
    header.experiment = "round \"trip\" \\ test";
    header.total_specs = 5;
    header.shard = {1, 3};
    header.base_seed = 0xDEADBEEFCAFEF00DULL;  // > 2^53: needs the hex path
    header.quick = true;
    header.replicas = 2;

    exp::JournalEntry entry;
    entry.spec_index = 4;
    entry.id = "trace/sys\t\"q\"#1\n";
    entry.replica = 1;
    entry.metrics["a_third"] = 1.0 / 3.0;
    entry.metrics["root2"] = std::sqrt(2.0);
    entry.metrics["tiny"] = 1e-300;
    entry.metrics["huge_neg"] = -1.2345678901234567e+300;
    entry.metrics["zero"] = 0.0;

    const std::string path = temp_path("imx_journal_roundtrip.jsonl");
    write_file(path, exp::journal_header_line(header) + "\n" +
                         exp::journal_entry_line(entry) + "\n");
    const auto file = exp::read_journal(path);
    EXPECT_FALSE(file.truncated);
    EXPECT_EQ(file.header.experiment, header.experiment);
    EXPECT_EQ(file.header.total_specs, header.total_specs);
    EXPECT_EQ(file.header.shard.index, header.shard.index);
    EXPECT_EQ(file.header.shard.count, header.shard.count);
    EXPECT_EQ(file.header.base_seed, header.base_seed);
    EXPECT_EQ(file.header.quick, header.quick);
    EXPECT_EQ(file.header.replicas, header.replicas);
    ASSERT_EQ(file.entries.size(), 1u);
    EXPECT_EQ(file.entries[0].spec_index, entry.spec_index);
    EXPECT_EQ(file.entries[0].id, entry.id);
    EXPECT_EQ(file.entries[0].replica, entry.replica);
    // The %.17g round-trip must be bit-exact, not approximately equal.
    EXPECT_EQ(file.entries[0].metrics, entry.metrics);
}

std::string printf_17g(double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::uint64_t bits_of(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

TEST(Journal, NumberTextMatchesPercent17g) {
    using limits = std::numeric_limits<double>;
    std::vector<double> values = {
        0.0, -0.0, limits::infinity(), -limits::infinity(),
        limits::quiet_NaN(), -limits::quiet_NaN(), limits::max(),
        -limits::max(), limits::min(), -limits::min(),
        limits::denorm_min(), -limits::denorm_min(), limits::min() / 3.0,
        limits::min() - limits::denorm_min(), 1.0 / 3.0, 0.1, 1e21, 1e-7,
        123456789012345678.0, 1.0, -1.0, 5e-324 * 12345.0};
    std::uint64_t state = 0x6e756d62ULL;  // "numb"
    while (values.size() < 100000) {
        const std::uint64_t bits = util::splitmix64(state);
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof value);
        values.push_back(value);
    }

    // 100 metrics per entry line; the writer's text for each must be
    // exactly what printf prints.
    const std::size_t per_line = 100;
    const auto specs = synthetic_grid(1, 1, 41);
    std::string text =
        exp::journal_header_line(header_for(specs, {0, 1}, 41)) + "\n";
    std::vector<exp::JournalEntry> entries;
    for (std::size_t first = 0; first < values.size(); first += per_line) {
        exp::JournalEntry entry;
        entry.spec_index = entries.size();
        entry.id = "numbers";
        for (std::size_t k = first; k < first + per_line && k < values.size();
             ++k) {
            char name[32];
            std::snprintf(name, sizeof name, "v%06zu", k);
            entry.metrics[name] = values[k];
        }
        std::string expected = "{\"spec_index\": " +
                               std::to_string(entry.spec_index) +
                               ", \"id\": \"numbers\", \"replica\": 0, "
                               "\"metrics\": {";
        for (const auto& [name, value] : entry.metrics) {
            if (expected.back() != '{') expected += ", ";
            expected += "\"" + name + "\": " + printf_17g(value);
        }
        expected += "}}";
        const std::string line = exp::journal_entry_line(entry);
        ASSERT_EQ(line, expected) << "entry " << entry.spec_index;
        text += line + "\n";
        entries.push_back(std::move(entry));
    }

    // The reader must return the very bits that were written.
    const std::string path = temp_path("imx_journal_numbers.jsonl");
    write_file(path, text);
    const auto file = exp::read_journal(path);
    ASSERT_FALSE(file.truncated);
    ASSERT_EQ(file.entries.size(), entries.size());
    for (std::size_t e = 0; e < entries.size(); ++e) {
        ASSERT_EQ(file.entries[e].metrics.size(), entries[e].metrics.size());
        auto read = file.entries[e].metrics.begin();
        for (const auto& [name, value] : entries[e].metrics) {
            ASSERT_EQ(read->first, name);
            if (std::isnan(value)) {
                EXPECT_TRUE(std::isnan(read->second)) << name;
            } else {
                EXPECT_EQ(bits_of(read->second), bits_of(value))
                    << name << " = " << printf_17g(value);
            }
            ++read;
        }
    }
}

TEST(Journal, TornFinalLineIsToleratedAsTruncation) {
    const auto specs = synthetic_grid(1, 2, 5);
    const auto header = header_for(specs, {0, 1}, 5);
    exp::JournalEntry entry;
    entry.spec_index = 0;
    entry.id = specs[0].id;
    entry.metrics["sum"] = 1.5;
    const std::string path = temp_path("imx_journal_torn.jsonl");
    write_file(path, exp::journal_header_line(header) + "\n" +
                         exp::journal_entry_line(entry) + "\n" +
                         "{\"spec_index\": 1, \"id\": \"gro");
    const auto file = exp::read_journal(path);
    EXPECT_TRUE(file.truncated);
    ASSERT_EQ(file.entries.size(), 1u);
    EXPECT_EQ(file.entries[0].id, specs[0].id);
}

TEST(Journal, MalformedMidFileLineThrows) {
    const auto specs = synthetic_grid(1, 2, 5);
    const auto header = header_for(specs, {0, 1}, 5);
    exp::JournalEntry entry;
    entry.spec_index = 1;
    entry.id = specs[1].id;
    const std::string path = temp_path("imx_journal_midfile.jsonl");
    write_file(path, exp::journal_header_line(header) + "\n" +
                         "not json at all\n" +
                         exp::journal_entry_line(entry) + "\n");
    EXPECT_THROW(exp::read_journal(path), std::runtime_error);
}

TEST(Journal, MetricNamesOutOfOrderThrow) {
    // The writer emits each name once, in map order; a line that repeats
    // or reorders names cannot come from it.
    const auto specs = synthetic_grid(1, 2, 5);
    const auto header = header_for(specs, {0, 1}, 5);
    exp::JournalEntry entry;
    entry.spec_index = 1;
    entry.id = specs[1].id;
    for (const char* names : {"\"b\": 1, \"a\": 2", "\"a\": 1, \"a\": 2"}) {
        const std::string path = temp_path("imx_journal_unsorted.jsonl");
        write_file(path, exp::journal_header_line(header) + "\n" +
                             "{\"spec_index\": 0, \"id\": \"" + specs[0].id +
                             "\", \"replica\": 0, \"metrics\": {" + names +
                             "}}\n" + exp::journal_entry_line(entry) + "\n");
        try {
            (void)exp::read_journal(path);
            ADD_FAILURE() << "accepted " << names;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("ascending"),
                      std::string::npos)
                << e.what();
        }
    }
}

// --- Shard + merge on a synthetic grid ------------------------------------

TEST(ShardMerge, SyntheticGridMergesBitwise) {
    const std::uint64_t base_seed = 42;
    const auto specs = synthetic_grid(3, 3, base_seed);
    const auto full = exp::run_sweep(specs, {4});

    std::vector<std::string> paths;
    for (int i = 0; i < 3; ++i) {
        const auto header = header_for(specs, {i, 3}, base_seed);
        const std::string path =
            temp_path("imx_shard_merge_" + std::to_string(i) + ".jsonl");
        const auto shard_run =
            exp::run_shard(specs, header, {2}, path, /*resume=*/false);
        EXPECT_EQ(shard_run.reused, 0u);
        EXPECT_EQ(shard_run.specs.size(), shard_run.outcomes.size());
        paths.push_back(path);
    }

    const auto header = header_for(specs, {0, 1}, base_seed);
    const auto merged = exp::merge_journal_outcomes(header, specs, paths);
    expect_same_metrics(merged, full);

    // The rendered table and the CSV must be byte-identical, not just the
    // numbers close.
    const std::vector<std::string> metrics = {"sum", "third"};
    EXPECT_EQ(exp::aggregate_table(exp::aggregate(specs, merged), metrics, "t")
                  .to_string(),
              exp::aggregate_table(exp::aggregate(specs, full), metrics, "t")
                  .to_string());
    const std::string csv_full = temp_path("imx_merge_full.csv");
    const std::string csv_merged = temp_path("imx_merge_merged.csv");
    exp::write_aggregate_csv(csv_full, exp::aggregate(specs, full));
    exp::write_aggregate_csv(csv_merged, exp::aggregate(specs, merged));
    EXPECT_EQ(read_file(csv_full), read_file(csv_merged));
}

TEST(ShardMerge, UnevenSplitWithAnEmptyShardMerges) {
    const std::uint64_t base_seed = 17;
    const auto specs = synthetic_grid(2, 1, base_seed);  // 2 specs, 3 shards
    const auto full = exp::run_sweep(specs, {2});
    std::vector<std::string> paths;
    for (int i = 0; i < 3; ++i) {
        const auto header = header_for(specs, {i, 3}, base_seed);
        const std::string path =
            temp_path("imx_shard_empty_" + std::to_string(i) + ".jsonl");
        const auto shard_run =
            exp::run_shard(specs, header, {1}, path, /*resume=*/false);
        if (i == 2) {
            EXPECT_TRUE(shard_run.specs.empty());
        }
        paths.push_back(path);
    }
    const auto merged = exp::merge_journal_outcomes(
        header_for(specs, {0, 1}, base_seed), specs, paths);
    expect_same_metrics(merged, full);
}

// --- Resume ---------------------------------------------------------------

TEST(Resume, CompletesATornJournalAndReusesThePrefix) {
    const std::uint64_t base_seed = 23;
    const auto specs = synthetic_grid(2, 3, base_seed);  // 6 specs
    const auto header = header_for(specs, {0, 2}, base_seed);
    const std::string path = temp_path("imx_resume.jsonl");

    const auto first = exp::run_shard(specs, header, {2}, path, false);
    ASSERT_EQ(first.specs.size(), 3u);  // indices 0, 2, 4

    // Simulate a crash: keep the header and the first entry, then a torn
    // partial line.
    const auto complete = exp::read_journal(path);
    ASSERT_EQ(complete.entries.size(), 3u);
    write_file(path, exp::journal_header_line(complete.header) + "\n" +
                         exp::journal_entry_line(complete.entries[0]) + "\n" +
                         "{\"spec_index\": 2, \"id");

    const auto resumed = exp::run_shard(specs, header, {2}, path, true);
    EXPECT_EQ(resumed.reused, 1u);
    expect_same_metrics(resumed.outcomes, first.outcomes);

    // The journal was rewritten without the torn tail and completed.
    const auto after = exp::read_journal(path);
    EXPECT_FALSE(after.truncated);
    EXPECT_EQ(after.entries.size(), 3u);

    // Resuming a complete journal re-runs nothing.
    const auto again = exp::run_shard(specs, header, {2}, path, true);
    EXPECT_EQ(again.reused, 3u);
    expect_same_metrics(again.outcomes, first.outcomes);
}

TEST(Resume, MissingJournalSimplyRunsEverything) {
    const std::uint64_t base_seed = 29;
    const auto specs = synthetic_grid(1, 2, base_seed);
    const auto header = header_for(specs, {0, 1}, base_seed);
    const std::string path = temp_path("imx_resume_missing.jsonl");
    std::remove(path.c_str());
    const auto run = exp::run_shard(specs, header, {1}, path, true);
    EXPECT_EQ(run.reused, 0u);
    EXPECT_EQ(run.outcomes.size(), 2u);
}

// --- Merge validation -----------------------------------------------------

class MergeValidation : public ::testing::Test {
protected:
    void SetUp() override {
        specs_ = synthetic_grid(2, 2, kSeed);
        for (int i = 0; i < 2; ++i) {
            const auto header = header_for(specs_, {i, 2}, kSeed);
            paths_.push_back(temp_path("imx_merge_validation_" +
                                       std::to_string(i) + ".jsonl"));
            exp::run_shard(specs_, header, {1}, paths_[static_cast<std::size_t>(
                                                     i)],
                           false);
        }
    }
    static constexpr std::uint64_t kSeed = 31;
    std::vector<exp::ScenarioSpec> specs_;
    std::vector<std::string> paths_;
};

TEST_F(MergeValidation, RejectsAMismatchedBaseSeed) {
    const auto wrong = header_for(specs_, {0, 1}, kSeed + 1);
    EXPECT_THROW(exp::merge_journal_outcomes(wrong, specs_, paths_),
                 std::runtime_error);
}

TEST_F(MergeValidation, RejectsOverlappingJournals) {
    const auto header = header_for(specs_, {0, 1}, kSeed);
    const std::vector<std::string> twice = {paths_[0], paths_[0], paths_[1]};
    EXPECT_THROW(exp::merge_journal_outcomes(header, specs_, twice),
                 std::runtime_error);
}

TEST_F(MergeValidation, RejectsAMissingShard) {
    const auto header = header_for(specs_, {0, 1}, kSeed);
    const std::vector<std::string> partial = {paths_[0]};
    EXPECT_THROW(exp::merge_journal_outcomes(header, specs_, partial),
                 std::runtime_error);
}

TEST_F(MergeValidation, RejectsATruncatedJournal) {
    const std::string content = read_file(paths_[0]);
    const std::string torn = temp_path("imx_merge_validation_torn.jsonl");
    write_file(torn, content + "{\"spec_index\": 0, \"i");
    const auto header = header_for(specs_, {0, 1}, kSeed);
    EXPECT_THROW(
        exp::merge_journal_outcomes(header, specs_, {torn, paths_[1]}),
        std::runtime_error);
}

// --- End-to-end: registry and spec-file grids -----------------------------

exp::SweepCli quick_options() {
    exp::SweepCli options;
    options.quick = true;
    return options;
}

exp::JournalHeader quick_header(const std::string& name, std::size_t total,
                                const exp::ShardSpec& shard) {
    exp::JournalHeader header;
    header.experiment = name;
    header.total_specs = total;
    header.shard = shard;
    header.base_seed = exp::kDefaultBaseSeed;
    header.quick = true;
    header.replicas = 1;
    return header;
}

void expect_shard_merge_exact(const std::string& name,
                              const std::vector<exp::ScenarioSpec>& specs,
                              const std::vector<std::string>& metrics,
                              const std::string& tag) {
    const auto full = exp::run_sweep(specs, {0});
    std::vector<std::string> paths;
    for (int i = 0; i < 3; ++i) {
        const auto header = quick_header(name, specs.size(), {i, 3});
        const std::string path =
            temp_path("imx_e2e_" + tag + "_" + std::to_string(i) + ".jsonl");
        exp::run_shard(specs, header, {0}, path, false);
        paths.push_back(path);
    }
    const auto merged = exp::merge_journal_outcomes(
        quick_header(name, specs.size(), {0, 1}), specs, paths);
    expect_same_metrics(merged, full);
    // The reader reuses a line's name table while the names repeat, so the
    // outcomes merged from one journal all share one table.
    for (int i = 0; i < 3; ++i) {
        const auto slice = exp::shard_indices(specs.size(), {i, 3});
        ASSERT_FALSE(slice.empty());
        const auto& table = merged[slice.front()].metrics.names();
        ASSERT_NE(table, nullptr);
        for (const std::size_t g : slice) {
            EXPECT_EQ(merged[g].metrics.names(), table) << specs[g].id;
        }
    }
    EXPECT_EQ(exp::aggregate_table(exp::aggregate(specs, merged), metrics, "t")
                  .to_string(),
              exp::aggregate_table(exp::aggregate(specs, full), metrics, "t")
                  .to_string());
    const std::string csv_full = temp_path("imx_e2e_" + tag + "_full.csv");
    const std::string csv_merged = temp_path("imx_e2e_" + tag + "_merged.csv");
    exp::write_aggregate_csv(csv_full, exp::aggregate(specs, full));
    exp::write_aggregate_csv(csv_merged, exp::aggregate(specs, merged));
    EXPECT_EQ(read_file(csv_full), read_file(csv_merged));
}

TEST(ShardMergeEndToEnd, RegistryGridIsByteExact) {
    const auto experiment = exp::make_experiment("fig5-iepmj");
    const auto options = quick_options();
    const auto specs = exp::build_experiment_scenarios(experiment, options);
    ASSERT_FALSE(specs.empty());
    expect_shard_merge_exact(experiment.spec.name, specs,
                             experiment.spec.metrics, "registry");
}

TEST(ShardMergeEndToEnd, SpecFileGridIsByteExact) {
    // An unregistered grid with storage and deadline axes, so this leg
    // covers more than the registry leg above.
    const auto spec = exp::load_experiment_spec(std::string(IMX_SPEC_DIR) +
                                                "/bursty_slack_grid.ini");
    const auto options = quick_options();
    const auto specs = exp::expand_experiment(spec, options);
    ASSERT_FALSE(specs.empty());
    expect_shard_merge_exact(spec.name, specs, spec.metrics, "specfile");
}

}  // namespace
