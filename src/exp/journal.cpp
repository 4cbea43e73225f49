#include "exp/journal.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace imx::exp {

namespace {

std::string seed_hex(std::uint64_t seed) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(seed));
    return buf;
}

std::string shard_text(const ShardSpec& shard) {
    return std::to_string(shard.index) + "/" + std::to_string(shard.count);
}

void append_escaped(std::string& out, const std::string& text) {
    std::size_t run = 0;  // start of the characters not yet appended
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const auto byte = static_cast<unsigned char>(c);
        if (c != '"' && c != '\\' && byte >= 0x20) continue;
        out.append(text, run, i - run);
        run = i + 1;
        if (c == '"') {
            out += "\\\"";
        } else if (c == '\\') {
            out += "\\\\";
        } else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", byte);
            out += buf;
        }
    }
    out.append(text, run, std::string::npos);
}

std::size_t require_count(double num, const char* what) {
    if (!(num >= 0.0) || num != std::floor(num) || num > 9.0e15) {
        throw std::runtime_error(std::string(what) +
                                 " is not a non-negative integer");
    }
    return static_cast<std::size_t>(num);
}

/// What reading a journal carries from one entry line to the next: the
/// previous line's name table, which the next line reuses when its names
/// are the same, and buffers for the names and values being parsed.
struct EntryScratch {
    std::shared_ptr<const MetricNames> table;
    std::vector<std::string> names;  ///< a line's names; only a prefix is live
    std::vector<double> values;

    /// The metrics of a line of `count` names and values.
    MetricMap metrics(std::size_t count) {
        if (count == 0) return {};
        const std::string* first = names.data();
        const std::string* last = first + count;
        if (!table || table->size() != count ||
            !std::equal(first, last, table->data())) {
            // The writer emits each name once, in map order.
            if (std::adjacent_find(first, last, std::greater_equal<>()) !=
                last) {
                throw std::runtime_error(
                    "metric names are not in ascending order");
            }
            table = MetricNames::make({first, last});
        }
        return MetricMap(table, {values.begin(), values.end()});
    }
};

/// Reads one journal line in place. Numbers are parsed with from_chars,
/// the exact inverse of the writer's to_chars text.
class LineParser {
public:
    explicit LineParser(std::string_view line) : s_(line) {}

    /// The header line, fields in the order journal_header_line() writes
    /// them. The version comes first, so a journal of another version is
    /// rejected as such whatever its other fields look like.
    JournalHeader parse_header_line() {
        expect('{');
        expect_key("imx_journal");
        const double version = parse_number();
        if (version != static_cast<double>(kJournalVersion)) {
            fail("unsupported journal version " + std::to_string(version) +
                 " (this build reads version " +
                 std::to_string(kJournalVersion) + ")");
        }
        JournalHeader header;
        expect(',');
        expect_key("experiment");
        header.experiment = parse_string();
        expect(',');
        expect_key("total_specs");
        header.total_specs = require_count(parse_number(), "total_specs");
        expect(',');
        expect_key("shard");
        const std::string shard = parse_string();
        try {
            header.shard = parse_shard_spec(shard);
        } catch (const std::invalid_argument& e) {
            fail(e.what());
        }
        expect(',');
        expect_key("base_seed");
        const std::string seed_text = parse_string();
        char* end = nullptr;
        errno = 0;
        const unsigned long long seed =
            std::strtoull(seed_text.c_str(), &end, 0);
        if (end == seed_text.c_str() || *end != '\0' || errno == ERANGE) {
            fail("bad base_seed '" + seed_text + "'");
        }
        header.base_seed = static_cast<std::uint64_t>(seed);
        expect(',');
        expect_key("quick");
        header.quick = parse_bool();
        expect(',');
        expect_key("replicas");
        header.replicas =
            static_cast<int>(require_count(parse_number(), "replicas"));
        expect('}');
        expect_end();
        return header;
    }

    /// An entry line, fields in the order journal_entry_line() writes them.
    JournalEntry parse_entry_line(EntryScratch& scratch) {
        JournalEntry entry;
        expect('{');
        expect_key("spec_index");
        entry.spec_index = require_count(parse_number(), "spec_index");
        expect(',');
        expect_key("id");
        entry.id = parse_string();
        expect(',');
        expect_key("replica");
        entry.replica =
            static_cast<int>(require_count(parse_number(), "replica"));
        expect(',');
        expect_key("metrics");
        expect('{');
        std::size_t count = 0;
        scratch.values.clear();
        if (!consume('}')) {
            while (true) {
                if (count == scratch.names.size()) scratch.names.emplace_back();
                parse_string_into(scratch.names[count++]);
                expect(':');
                scratch.values.push_back(parse_number());
                if (consume(',')) continue;
                expect('}');
                break;
            }
        }
        expect('}');
        expect_end();
        entry.metrics = scratch.metrics(count);
        return entry;
    }

private:
    [[noreturn]] void fail(const std::string& why) const {
        throw std::runtime_error(why);
    }

    static bool is_space(char c) { return c == ' ' || c == '\t'; }

    /// Where a number token ends.
    static bool is_delimiter(char c) {
        return c == ',' || c == '}' || is_space(c);
    }

    void skip_ws() {
        while (pos_ < s_.size() && is_space(s_[pos_])) ++pos_;
    }

    bool consume(char c) {
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void expect(char c) {
        if (!consume(c)) fail(std::string("expected '") + c + "'");
    }

    void expect_end() {
        skip_ws();
        if (pos_ != s_.size()) fail("trailing characters after the object");
    }

    /// `"key":`, spelled exactly as the writer spells it.
    void expect_key(std::string_view key) {
        skip_ws();
        if (s_.size() - pos_ < key.size() + 2 || s_[pos_] != '"' ||
            s_.compare(pos_ + 1, key.size(), key) != 0 ||
            s_[pos_ + 1 + key.size()] != '"') {
            fail("missing field '" + std::string(key) + "'");
        }
        pos_ += key.size() + 2;
        expect(':');
    }

    bool parse_bool() {
        skip_ws();
        for (const bool value : {true, false}) {
            const std::string_view literal = value ? "true" : "false";
            if (s_.compare(pos_, literal.size(), literal) == 0) {
                pos_ += literal.size();
                return value;
            }
        }
        fail("expected true or false");
    }

    std::string parse_string() {
        std::string out;
        parse_string_into(out);
        return out;
    }

    /// parse_string() into `out`, reusing its capacity.
    void parse_string_into(std::string& out) {
        expect('"');
        out.clear();
        while (true) {
            // Copy everything up to the next quote or escape at once.
            const std::size_t quote = s_.find('"', pos_);
            if (quote == std::string_view::npos) fail("unterminated string");
            const std::size_t escape =
                s_.substr(pos_, quote - pos_).find('\\');
            const std::size_t stop =
                escape == std::string_view::npos ? quote : pos_ + escape;
            out.append(s_.substr(pos_, stop - pos_));
            pos_ = stop + 1;
            if (s_[stop] == '"') return;
            if (pos_ >= s_.size()) fail("unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
                unsigned code = 0;
                for (int k = 0; k < 4; ++k) {
                    const char h = s_[pos_++];
                    code *= 16;
                    if (h >= '0' && h <= '9') {
                        code += static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        code += static_cast<unsigned>(h - 'a') + 10;
                    } else if (h >= 'A' && h <= 'F') {
                        code += static_cast<unsigned>(h - 'A') + 10;
                    } else {
                        fail("bad \\u escape digit");
                    }
                }
                // The writer only escapes single bytes; reject anything a
                // round-trip could not have produced.
                if (code > 0xFF) fail("\\u escape above \\u00ff");
                out += static_cast<char>(code);
                break;
            }
            default: fail("unsupported escape");
            }
        }
    }

    double parse_number() {
        skip_ws();
        const char* first = s_.data() + pos_;
        const char* last = s_.data() + s_.size();
        double value = 0.0;
        const auto [end, ec] = std::from_chars(first, last, value);
        if (ec != std::errc{} || (end != last && !is_delimiter(*end))) {
            std::size_t stop = pos_;
            while (stop < s_.size() && !is_delimiter(s_[stop])) ++stop;
            if (stop == pos_) fail("expected a number");
            fail("'" + std::string(s_.substr(pos_, stop - pos_)) +
                 "' is not a number");
        }
        pos_ = static_cast<std::size_t>(end - s_.data());
        return value;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

/// Reject a journal whose identity fields disagree with the run in hand.
void check_header(const JournalHeader& got, const JournalHeader& expected,
                  const std::string& path, bool check_shard) {
    const auto mismatch = [&path](const char* what, const std::string& got_text,
                                  const std::string& want_text) {
        throw std::runtime_error("journal '" + path +
                                 "' does not match this run: " + what +
                                 " is " + got_text + ", expected " +
                                 want_text);
    };
    if (got.experiment != expected.experiment) {
        mismatch("experiment", "'" + got.experiment + "'",
                 "'" + expected.experiment + "'");
    }
    if (got.total_specs != expected.total_specs) {
        mismatch("total_specs", std::to_string(got.total_specs),
                 std::to_string(expected.total_specs));
    }
    if (got.base_seed != expected.base_seed) {
        mismatch("base_seed", seed_hex(got.base_seed),
                 seed_hex(expected.base_seed));
    }
    if (got.quick != expected.quick) {
        mismatch("quick", got.quick ? "true" : "false",
                 expected.quick ? "true" : "false");
    }
    if (got.replicas != expected.replicas) {
        mismatch("replicas", std::to_string(got.replicas),
                 std::to_string(expected.replicas));
    }
    if (check_shard && (got.shard.index != expected.shard.index ||
                        got.shard.count != expected.shard.count)) {
        mismatch("shard", shard_text(got.shard), shard_text(expected.shard));
    }
}

/// Reject an entry that cannot belong to `shard` of the grid in hand.
void check_entry(const JournalEntry& entry,
                 const std::vector<ScenarioSpec>& specs,
                 const ShardSpec& shard, const std::string& path) {
    if (entry.spec_index >= specs.size() ||
        entry.spec_index % static_cast<std::size_t>(shard.count) !=
            static_cast<std::size_t>(shard.index)) {
        throw std::runtime_error(
            "journal '" + path + "': entry for spec index " +
            std::to_string(entry.spec_index) + " does not belong to shard " +
            shard_text(shard) + " of " + std::to_string(specs.size()) +
            " scenario(s)");
    }
    const ScenarioSpec& spec = specs[entry.spec_index];
    if (entry.id != spec.id || entry.replica != spec.replica) {
        throw std::runtime_error(
            "journal '" + path + "': spec index " +
            std::to_string(entry.spec_index) + " is '" + entry.id +
            "' (replica " + std::to_string(entry.replica) +
            ") but the grid expands to '" + spec.id + "' (replica " +
            std::to_string(spec.replica) +
            ") — was the journal written against a different grid?");
    }
}

}  // namespace

std::string journal_header_line(const JournalHeader& header) {
    std::string line = "{\"imx_journal\": ";
    line += std::to_string(kJournalVersion);
    line += ", \"experiment\": \"";
    append_escaped(line, header.experiment);
    line += "\", \"total_specs\": ";
    line += std::to_string(header.total_specs);
    line += ", \"shard\": \"";
    line += shard_text(header.shard);
    line += "\", \"base_seed\": \"";
    line += seed_hex(header.base_seed);
    line += "\", \"quick\": ";
    line += header.quick ? "true" : "false";
    line += ", \"replicas\": ";
    line += std::to_string(header.replicas);
    line += "}";
    return line;
}

std::string journal_entry_line(const JournalEntry& entry) {
    std::string line;
    // Room for the fixed text plus a typical name and number per metric.
    line.reserve(64 + entry.id.size() + 48 * entry.metrics.size());
    line += "{\"spec_index\": ";
    line += std::to_string(entry.spec_index);
    line += ", \"id\": \"";
    append_escaped(line, entry.id);
    line += "\", \"replica\": ";
    line += std::to_string(entry.replica);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : entry.metrics) {
        if (!first) line += ", ";
        first = false;
        line += "\"";
        append_escaped(line, name);
        line += "\": ";
        // 17 significant digits round-trip any IEEE double bit-exactly —
        // the property the byte-identical merge guarantee rests on. This
        // to_chars form is specified to print what "%.17g" prints.
        char buf[32];
        const auto printed = std::to_chars(
            buf, buf + sizeof buf, value, std::chars_format::general, 17);
        line.append(buf, printed.ptr);
    }
    line += "}}";
    return line;
}

JournalFile read_journal(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot open journal '" + path + "'");
    }
    std::string line;
    if (!std::getline(in, line)) {
        throw std::runtime_error("journal '" + path +
                                 "' is empty (no header line)");
    }
    JournalFile file;
    try {
        file.header = LineParser(line).parse_header_line();
    } catch (const std::exception& e) {
        throw std::runtime_error(path + ":1: bad journal header: " + e.what());
    }
    EntryScratch scratch;
    for (std::size_t number = 2; std::getline(in, line); ++number) {
        try {
            file.entries.push_back(LineParser(line).parse_entry_line(scratch));
        } catch (const std::exception& e) {
            if (in.peek() == std::ifstream::traits_type::eof()) {
                // A torn final line is what a crash mid-write leaves behind;
                // the valid prefix is still usable (--resume rewrites it).
                file.truncated = true;
                break;
            }
            throw std::runtime_error(path + ":" + std::to_string(number) +
                                     ": " + e.what());
        }
    }
    return file;
}

struct JournalWriter::Impl {
    std::string path;
    std::ofstream out;
    std::vector<std::size_t> global_indices;
    std::vector<std::string> ids;
    std::vector<int> replicas;

    void write_line(const std::string& line) {
        out << line << '\n' << std::flush;
        if (!out) {
            throw std::runtime_error("failed to append to journal '" + path +
                                     "'");
        }
    }
};

JournalWriter::JournalWriter(const std::string& path,
                             const JournalHeader& header,
                             const std::vector<ScenarioSpec>& specs,
                             std::vector<std::size_t> global_indices)
    : impl_(nullptr) {
    IMX_EXPECTS(specs.size() == global_indices.size());
    auto impl = std::make_unique<Impl>();
    impl->path = path;
    impl->global_indices = std::move(global_indices);
    impl->ids.reserve(specs.size());
    impl->replicas.reserve(specs.size());
    for (const auto& spec : specs) {
        impl->ids.push_back(spec.id);
        impl->replicas.push_back(spec.replica);
    }
    impl->out.open(path, std::ios::trunc);
    if (!impl->out) {
        throw std::runtime_error("cannot open journal '" + path +
                                 "' for writing");
    }
    impl->write_line(journal_header_line(header));
    impl_ = impl.release();
}

JournalWriter::~JournalWriter() { delete impl_; }

void JournalWriter::replay(const JournalEntry& entry) {
    impl_->write_line(journal_entry_line(entry));
}

void JournalWriter::on_outcome(std::size_t spec_index,
                               ScenarioOutcome outcome) {
    IMX_EXPECTS(spec_index < impl_->global_indices.size());
    JournalEntry entry;
    entry.spec_index = impl_->global_indices[spec_index];
    entry.id = impl_->ids[spec_index];
    entry.replica = impl_->replicas[spec_index];
    entry.metrics = std::move(outcome.metrics);
    impl_->write_line(journal_entry_line(entry));
}

void JournalWriter::finish() {
    impl_->out.flush();
    if (!impl_->out) {
        throw std::runtime_error("journal '" + impl_->path +
                                 "' failed to flush");
    }
}

ShardRunResult run_shard(const std::vector<ScenarioSpec>& all_specs,
                         const JournalHeader& header,
                         const RunnerConfig& runner,
                         const std::string& journal_path, bool resume) {
    IMX_EXPECTS(header.total_specs == all_specs.size());
    ShardRunResult result;
    result.indices = shard_indices(all_specs.size(), header.shard);
    result.specs.reserve(result.indices.size());
    for (const std::size_t g : result.indices) {
        result.specs.push_back(all_specs[g]);
    }
    result.outcomes.resize(result.specs.size());

    // Recover completed scenarios from a prior journal of this same shard.
    // A missing file is not an error: first launch and relaunch share one
    // command line.
    std::map<std::size_t, JournalEntry> reusable;  // global index -> entry
    if (resume && static_cast<bool>(std::ifstream(journal_path))) {
        JournalFile prior = read_journal(journal_path);
        check_header(prior.header, header, journal_path, /*check_shard=*/true);
        for (auto& entry : prior.entries) {
            check_entry(entry, all_specs, header.shard, journal_path);
            const std::size_t g = entry.spec_index;
            if (!reusable.emplace(g, std::move(entry)).second) {
                throw std::runtime_error(
                    "journal '" + journal_path + "': spec index " +
                    std::to_string(g) + " appears more than once");
            }
        }
    }

    std::vector<ScenarioSpec> to_run;
    std::vector<std::size_t> to_run_global;
    std::vector<std::size_t> to_run_local;
    for (std::size_t l = 0; l < result.indices.size(); ++l) {
        const auto it = reusable.find(result.indices[l]);
        if (it != reusable.end()) {
            result.outcomes[l].metrics = it->second.metrics;
            ++result.reused;
        } else {
            to_run.push_back(result.specs[l]);
            to_run_global.push_back(result.indices[l]);
            to_run_local.push_back(l);
        }
    }

    std::optional<JournalWriter> writer;
    if (!journal_path.empty()) {
        writer.emplace(journal_path, header, to_run, to_run_global);
        // Rewrite the recovered prefix (dropping any torn tail) so the file
        // is a valid journal again before the live stream appends to it.
        for (const std::size_t g : result.indices) {
            const auto it = reusable.find(g);
            if (it != reusable.end()) writer->replay(it->second);
        }
    }

    CollectSink collect(to_run.size());
    if (writer) {
        TeeSink tee({&*writer, &collect});
        run_sweep(to_run, tee, runner);
    } else {
        run_sweep(to_run, collect, runner);
    }
    std::vector<ScenarioOutcome> ran = collect.take();
    for (std::size_t k = 0; k < ran.size(); ++k) {
        result.outcomes[to_run_local[k]] = std::move(ran[k]);
    }
    return result;
}

std::vector<ScenarioOutcome> merge_journal_outcomes(
    const JournalHeader& expected, const std::vector<ScenarioSpec>& specs,
    const std::vector<std::string>& paths) {
    IMX_EXPECTS(expected.total_specs == specs.size());
    IMX_EXPECTS(!paths.empty());
    std::vector<ScenarioOutcome> outcomes(specs.size());
    std::vector<bool> covered(specs.size(), false);
    for (const auto& path : paths) {
        JournalFile file = read_journal(path);
        if (file.truncated) {
            throw std::runtime_error(
                "journal '" + path +
                "' ends in a torn line — re-run that shard with --resume "
                "before merging");
        }
        check_header(file.header, expected, path, /*check_shard=*/false);
        for (auto& entry : file.entries) {
            check_entry(entry, specs, file.header.shard, path);
            if (covered[entry.spec_index]) {
                throw std::runtime_error(
                    "spec index " + std::to_string(entry.spec_index) + " ('" +
                    entry.id +
                    "') is covered by more than one journal entry "
                    "(duplicate or overlapping shards?)");
            }
            covered[entry.spec_index] = true;
            outcomes[entry.spec_index].metrics = std::move(entry.metrics);
        }
        // A clean journal missing part of its own slice means the run was
        // interrupted between lines — resumable, but not mergeable yet.
        const std::size_t slice =
            shard_indices(specs.size(), file.header.shard).size();
        if (file.entries.size() != slice) {
            throw std::runtime_error(
                "journal '" + path + "' covers " +
                std::to_string(file.entries.size()) + " of " +
                std::to_string(slice) + " scenario(s) of shard " +
                shard_text(file.header.shard) +
                " — re-run that shard with --resume before merging");
        }
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!covered[i]) {
            throw std::runtime_error("merge leaves spec index " +
                                     std::to_string(i) + " ('" + specs[i].id +
                                     "') uncovered — a shard journal is "
                                     "missing");
        }
    }
    return outcomes;
}

}  // namespace imx::exp
