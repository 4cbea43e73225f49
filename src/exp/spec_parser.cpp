#include "exp/spec_parser.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "energy/trace_registry.hpp"
#include "sim/arrivals/registry.hpp"
#include "sim/recovery/registry.hpp"
#include "util/kvfile.hpp"

namespace imx::exp {

namespace {

[[noreturn]] void fail(const std::string& origin, int line,
                       const std::string& message) {
    throw std::runtime_error(origin + ":" + std::to_string(line) + ": " +
                             message);
}

double parse_double(const std::string& origin, const util::KvEntry& entry,
                    const std::string& text) {
    if (text == "inf" || text == "infinity") {
        return std::numeric_limits<double>::infinity();
    }
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
        fail(origin, entry.line,
             "key '" + entry.key + "' expects a number, got '" + text + "'");
    }
    return value;
}

int parse_int(const std::string& origin, const util::KvEntry& entry) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(entry.value.c_str(), &end, 10);
    if (end == entry.value.c_str() || *end != '\0' || errno == ERANGE ||
        value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
        fail(origin, entry.line,
             "key '" + entry.key + "' expects an integer, got '" +
                 entry.value + "'");
    }
    return static_cast<int>(value);
}

std::uint64_t parse_uint64(const std::string& origin,
                           const util::KvEntry& entry) {
    char* end = nullptr;
    errno = 0;
    // Base 0 so seeds read naturally in decimal or hex (0xD5EED).
    const unsigned long long value =
        std::strtoull(entry.value.c_str(), &end, 0);
    if (end == entry.value.c_str() || *end != '\0' || errno == ERANGE ||
        entry.value[0] == '-') {
        fail(origin, entry.line,
             "key '" + entry.key + "' expects a non-negative integer, got '" +
                 entry.value + "'");
    }
    return static_cast<std::uint64_t>(value);
}

/// Split a comma-separated value, trimming each element; empty elements
/// (",," or a trailing comma) are schema errors.
std::vector<std::string> parse_list(const std::string& origin,
                                    const util::KvEntry& entry) {
    std::vector<std::string> items;
    std::size_t start = 0;
    const std::string& text = entry.value;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        std::string item = text.substr(start, end - start);
        const auto first = item.find_first_not_of(" \t");
        const auto last = item.find_last_not_of(" \t");
        item = first == std::string::npos
                   ? ""
                   : item.substr(first, last - first + 1);
        if (item.empty()) {
            fail(origin, entry.line,
                 "key '" + entry.key + "' has an empty list element");
        }
        items.push_back(std::move(item));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return items;
}

std::vector<double> parse_double_list(const std::string& origin,
                                      const util::KvEntry& entry) {
    std::vector<double> values;
    for (const auto& item : parse_list(origin, entry)) {
        values.push_back(parse_double(origin, entry, item));
    }
    return values;
}

std::string parse_arrivals(const std::string& origin,
                           const util::KvEntry& entry) {
    if (!sim::has_arrival_source(entry.value)) {
        std::string names;
        for (const auto& name : sim::arrival_source_names()) {
            if (!names.empty()) names += ", ";
            names += name;
        }
        fail(origin, entry.line,
             "key '" + entry.key + "' expects a registered arrival source (" +
                 names + "), got '" + entry.value + "'");
    }
    return entry.value;
}

[[noreturn]] void unknown_key(const std::string& origin,
                              const std::string& section,
                              const util::KvEntry& entry) {
    fail(origin, entry.line,
         "unknown key '" + entry.key + "' in [" + section + "]");
}

void apply_sweep(const std::string& origin, const util::KvSection& section,
                 ExperimentSpec& spec) {
    for (const auto& entry : section.entries) {
        if (entry.key == "name") {
            spec.name = entry.value;
        } else if (entry.key == "description") {
            spec.description = entry.value;
        } else if (entry.key == "title") {
            spec.title = entry.value;
        } else if (entry.key == "replicas") {
            spec.replicas = parse_int(origin, entry);
            if (spec.replicas < 1) {
                fail(origin, entry.line, "replicas must be >= 1");
            }
        } else if (entry.key == "base_seed") {
            spec.base_seed = parse_uint64(origin, entry);
        } else if (entry.key == "metrics") {
            spec.metrics = parse_list(origin, entry);
        } else {
            unknown_key(origin, "sweep", entry);
        }
    }
    if (spec.name.empty()) {
        fail(origin, section.line, "[sweep] requires a non-empty 'name'");
    }
}

std::string join_names(const std::vector<std::string>& names) {
    if (names.empty()) return "none";
    std::string joined;
    for (const auto& name : names) {
        if (!joined.empty()) joined += ", ";
        joined += name;
    }
    return joined;
}

/// Parse a `[trace]` or `[trace.<label>]` section. The labeled form takes
/// its label from the header and additionally accepts `source = <name>`
/// (an energy trace-registry source) plus that source's own parameters;
/// both forms share the SetupConfig keys. `spec_dir` (empty = unknown)
/// anchors a relative file `path` parameter to the spec file's directory.
TraceEntry parse_trace(const std::string& origin,
                       const util::KvSection& section,
                       const std::string& spec_dir) {
    TraceEntry trace;
    const bool labeled_header = section.name != "trace";
    if (labeled_header) {
        trace.label = section.name.substr(std::string("trace.").size());
        if (trace.label.empty()) {
            fail(origin, section.line,
                 "[trace.] requires a label after the dot");
        }
    } else {
        trace.label.clear();
    }
    std::vector<const util::KvEntry*> param_entries;
    for (const auto& entry : section.entries) {
        if (entry.key == "label") {
            if (labeled_header) {
                fail(origin, entry.line,
                     "[" + section.name +
                         "] takes its label from the section header");
            }
            trace.label = entry.value;
        } else if (entry.key == "source") {
            if (!energy::has_trace_source(entry.value)) {
                // Reuse the registry's own diagnostic (it lists every
                // registered source) instead of duplicating the format.
                try {
                    (void)energy::trace_source_description(entry.value);
                } catch (const std::invalid_argument& e) {
                    fail(origin, entry.line, e.what());
                }
            }
            trace.config.trace_source = entry.value;
        } else if (entry.key == "duration_s") {
            trace.config.duration_s = parse_double(origin, entry, entry.value);
            if (!(trace.config.duration_s > 0.0)) {
                fail(origin, entry.line, "duration_s must be positive");
            }
        } else if (entry.key == "event_count") {
            trace.config.event_count = parse_int(origin, entry);
            if (trace.config.event_count < 1) {
                fail(origin, entry.line, "event_count must be >= 1");
            }
        } else if (entry.key == "total_harvest_mj") {
            trace.config.total_harvest_mj =
                parse_double(origin, entry, entry.value);
            if (!(trace.config.total_harvest_mj > 0.0)) {
                fail(origin, entry.line, "total_harvest_mj must be positive");
            }
        } else if (entry.key == "trace_seed") {
            trace.config.trace_seed = parse_uint64(origin, entry);
        } else if (entry.key == "event_seed") {
            trace.config.event_seed = parse_uint64(origin, entry);
        } else if (entry.key == "arrivals") {
            trace.config.arrival_source = parse_arrivals(origin, entry);
        } else {
            // Candidate source parameter; validated against the source's
            // declared key list (and by a trial build) below, once the
            // whole section — including a later `source =` line — is read.
            param_entries.push_back(&entry);
            trace.config.trace_params[entry.key] = entry.value;
        }
    }
    if (trace.label.empty()) {
        fail(origin, section.line, "[trace] requires a non-empty 'label'");
    }

    // Unknown keys are hard errors at their own line: a key must be either
    // a trace key or a declared parameter of the section's source.
    const auto known_params =
        energy::trace_source_param_names(trace.config.trace_source);
    for (const auto* entry : param_entries) {
        if (std::find(known_params.begin(), known_params.end(), entry->key) !=
            known_params.end()) {
            continue;
        }
        fail(origin, entry->line,
             "unknown key '" + entry->key + "' in [" + section.name +
                 "] (neither a trace key nor a parameter of source '" +
                 trace.config.trace_source +
                 "', which accepts: " + join_names(known_params) + ")");
    }

    // A relative file `path` resolves against the spec file's directory,
    // so `imx_sweep --spec` works from any CWD (CI runs from build/).
    const auto path_param = trace.config.trace_params.find("path");
    if (path_param != trace.config.trace_params.end() && !spec_dir.empty() &&
        !path_param->second.empty() && path_param->second.front() != '/') {
        path_param->second = spec_dir + "/" + path_param->second;
    }

    // Trial-build the trace with the section's real context so parameter
    // values (and, for file sources, the file itself) fail here with a
    // file:line diagnostic instead of deep inside the sweep expansion.
    double trial_energy_mj = 0.0;
    double trial_duration_s = 0.0;
    try {
        const auto trial = energy::make_trace(
            trace.config.trace_source,
            energy::TraceSourceContext{trace.config.duration_s, 1.0,
                                       trace.config.trace_seed},
            trace.config.trace_params);
        trial_energy_mj = trial.total_energy();
        trial_duration_s = trial.duration();
    } catch (const std::exception& e) {
        fail(origin, section.line, e.what());
    }
    // make_paper_setup rescales every trace to the harvest budget; an
    // all-zero trace (e.g. an rf gap longer than the duration, or a
    // zero-power csv) cannot be rescaled and would otherwise abort
    // mid-sweep with a contextless contract violation.
    if (!(trial_energy_mj > 0.0)) {
        fail(origin, section.line,
             "trace source '" + trace.config.trace_source +
                 "' harvests no energy over " +
                 std::to_string(trial_duration_s) +
                 " s — it cannot be rescaled to the sweep's harvest budget");
    }
    return trace;
}

SystemEntry parse_system(const std::string& origin,
                         const util::KvSection& section) {
    SystemEntry system;
    for (const auto& entry : section.entries) {
        if (entry.key == "label") {
            system.label = entry.value;
        } else if (entry.key == "kind") {
            system.kind = entry.value;
        } else if (entry.key == "policy") {
            system.policy = entry.value;
        } else if (entry.key == "train_episodes") {
            system.train_episodes = parse_int(origin, entry);
            if (system.train_episodes < 0) {
                fail(origin, entry.line, "train_episodes must be >= 0");
            }
        } else if (entry.key == "quick_train_episodes") {
            system.quick_train_episodes = parse_int(origin, entry);
            if (system.quick_train_episodes < 0) {
                fail(origin, entry.line, "quick_train_episodes must be >= 0");
            }
        } else {
            unknown_key(origin, "system", entry);
        }
    }
    if (system.label.empty()) {
        fail(origin, section.line, "[system] requires a non-empty 'label'");
    }
    return system;
}

/// Parse a `[recovery.<label>]` section into one cell of the
/// power-failure/recovery axis. `strategy = none` declares the explicit
/// failure-free baseline cell; any other value must be a registered
/// recovery-strategy name.
RecoveryCell parse_recovery(const std::string& origin,
                            const util::KvSection& section) {
    RecoveryCell cell;
    cell.label = section.name.substr(std::string("recovery.").size());
    if (cell.label.empty()) {
        fail(origin, section.line,
             "[recovery.] requires a label after the dot");
    }
    bool saw_strategy = false;
    for (const auto& entry : section.entries) {
        if (entry.key == "strategy") {
            saw_strategy = true;
            if (entry.value == "none") {
                cell.config.enabled = false;
            } else {
                cell.config.enabled = true;
                cell.config.strategy = entry.value;
                if (!sim::has_recovery_strategy(entry.value)) {
                    // Reuse the registry's own diagnostic (it lists every
                    // registered strategy).
                    try {
                        (void)sim::recovery_strategy_description(entry.value);
                    } catch (const std::invalid_argument& e) {
                        fail(origin, entry.line, e.what());
                    }
                }
            }
        } else if (entry.key == "granularity") {
            try {
                cell.config.granularity = sim::parse_granularity(entry.value);
            } catch (const std::invalid_argument& e) {
                fail(origin, entry.line, e.what());
            }
        } else if (entry.key == "checkpoint_mj") {
            cell.config.checkpoint_energy_mj =
                parse_double(origin, entry, entry.value);
        } else if (entry.key == "restore_mj") {
            cell.config.restore_energy_mj =
                parse_double(origin, entry, entry.value);
        } else if (entry.key == "restore_penalty_mj") {
            cell.config.restore_penalty_mj =
                parse_double(origin, entry, entry.value);
        } else if (entry.key == "active_power_mw") {
            cell.config.active_power_mw =
                parse_double(origin, entry, entry.value);
        } else if (entry.key == "death_threshold_mj") {
            cell.death_threshold_mj = parse_double(origin, entry, entry.value);
            if (cell.death_threshold_mj < 0.0) {
                fail(origin, entry.line,
                     "death_threshold_mj must be non-negative");
            }
        } else {
            unknown_key(origin, section.name, entry);
        }
    }
    if (!saw_strategy) {
        fail(origin, section.line,
             "[" + section.name +
                 "] requires 'strategy = <name>' (or 'strategy = none')");
    }
    if (!cell.config.enabled && cell.death_threshold_mj >= 0.0) {
        fail(origin, section.line,
             "death_threshold_mj has no effect with 'strategy = none'");
    }
    // Trial-build so negative cost parameters fail here with a file:line
    // diagnostic instead of at sweep expansion.
    if (cell.config.enabled) {
        try {
            (void)sim::make_recovery_strategy(cell.config.strategy,
                                              cell.config);
        } catch (const std::invalid_argument& e) {
            fail(origin, section.line, e.what());
        }
    }
    return cell;
}

/// Parse an `[arrivals.<label>]` section into one cell of the
/// request-workload axis. `source` must name a registered arrival source;
/// every other key must be a declared parameter of that source.
ArrivalCell parse_arrival_cell(const std::string& origin,
                               const util::KvSection& section,
                               const std::string& spec_dir) {
    ArrivalCell cell;
    cell.label = section.name.substr(std::string("arrivals.").size());
    if (cell.label.empty()) {
        fail(origin, section.line,
             "[arrivals.] requires a label after the dot");
    }
    bool saw_source = false;
    std::vector<const util::KvEntry*> param_entries;
    for (const auto& entry : section.entries) {
        if (entry.key == "source") {
            saw_source = true;
            if (!sim::has_arrival_source(entry.value)) {
                // Reuse the registry's own diagnostic (it lists every
                // registered source).
                try {
                    (void)sim::arrival_source_description(entry.value);
                } catch (const std::invalid_argument& e) {
                    fail(origin, entry.line, e.what());
                }
            }
            cell.source = entry.value;
        } else {
            // Candidate source parameter; validated against the source's
            // declared key list (and by a trial build) below, once the
            // whole section — including a later `source =` line — is read.
            param_entries.push_back(&entry);
            cell.params[entry.key] = entry.value;
        }
    }
    if (!saw_source) {
        fail(origin, section.line,
             "[" + section.name + "] requires 'source = <name>'");
    }
    const auto known_params = sim::arrival_source_param_names(cell.source);
    for (const auto* entry : param_entries) {
        if (std::find(known_params.begin(), known_params.end(), entry->key) !=
            known_params.end()) {
            continue;
        }
        fail(origin, entry->line,
             "unknown key '" + entry->key + "' in [" + section.name +
                 "] (neither 'source' nor a parameter of source '" +
                 cell.source +
                 "', which accepts: " + join_names(known_params) + ")");
    }

    // A relative file `path` resolves against the spec file's directory,
    // exactly like a csv trace's.
    const auto path_param = cell.params.find("path");
    if (path_param != cell.params.end() && !spec_dir.empty() &&
        !path_param->second.empty() && path_param->second.front() != '/') {
        path_param->second = spec_dir + "/" + path_param->second;
    }

    // Build the source (file sources read their file here) and draw a tiny
    // schedule, so bad parameter values fail with a file:line diagnostic
    // instead of deep inside the sweep expansion. The cell keeps the source
    // for arrival_patch(), so a file is read once.
    try {
        cell.built = sim::make_arrival_source(cell.source, cell.params);
        (void)cell.built->generate(
            {/*count=*/8, /*duration_s=*/100.0, /*seed=*/1});
    } catch (const std::exception& e) {
        fail(origin, section.line, e.what());
    }
    return cell;
}

/// A single-key patch section: rejects anything but `key`, requires it.
std::vector<double> patch_values(const std::string& origin,
                                 const util::KvSection& section,
                                 const std::string& key) {
    std::vector<double> values;
    for (const auto& entry : section.entries) {
        if (entry.key != key) unknown_key(origin, section.name, entry);
        values = parse_double_list(origin, entry);
    }
    if (values.empty()) {
        fail(origin, section.line,
             "[" + section.name + "] requires '" + key + " = v1, v2, ...'");
    }
    return values;
}

}  // namespace

ExperimentSpec parse_experiment_spec(const std::string& text,
                                     const std::string& origin) {
    const auto sections = util::parse_kv_text(text, origin);

    // Directory of the spec file, used to anchor relative file parameters
    // (e.g. a csv trace's `path`). A pathless origin ("<string>") leaves
    // them CWD-relative.
    const auto slash = origin.find_last_of('/');
    const std::string spec_dir =
        slash == std::string::npos ? "" : origin.substr(0, slash);

    // Every schema key is single-valued; a repeated key would silently
    // last-win (e.g. a split patch axis running half its grid), so it is a
    // hard error like every other spec mistake.
    for (const auto& section : sections) {
        for (std::size_t i = 0; i < section.entries.size(); ++i) {
            for (std::size_t j = 0; j < i; ++j) {
                if (section.entries[i].key == section.entries[j].key) {
                    fail(origin, section.entries[i].line,
                         "duplicate key '" + section.entries[i].key +
                             "' in [" + section.name + "]");
                }
            }
        }
    }

    ExperimentSpec spec;
    spec.traces.clear();  // [trace] sections replace the default
    bool saw_sweep = false;
    bool saw_storage = false, saw_deadline = false, saw_policy = false;
    bool saw_queue = false;
    for (const auto& section : sections) {
        if (section.name == "sweep") {
            if (saw_sweep) {
                fail(origin, section.line, "duplicate [sweep] section");
            }
            saw_sweep = true;
            apply_sweep(origin, section, spec);
        } else if (section.name == "trace" ||
                   section.name.rfind("trace.", 0) == 0) {
            spec.traces.push_back(parse_trace(origin, section, spec_dir));
        } else if (section.name == "system") {
            const SystemEntry system = parse_system(origin, section);
            for (const auto& existing : spec.systems) {
                if (existing.label == system.label) {
                    fail(origin, section.line,
                         "duplicate system label '" + system.label + "'");
                }
            }
            spec.systems.push_back(system);
        } else if (section.name == "patch.storage") {
            if (saw_storage) {
                fail(origin, section.line, "duplicate [patch.storage]");
            }
            saw_storage = true;
            spec.storage_mj = patch_values(origin, section, "capacity_mj");
        } else if (section.name == "patch.deadline") {
            if (saw_deadline) {
                fail(origin, section.line, "duplicate [patch.deadline]");
            }
            saw_deadline = true;
            spec.deadline_s = patch_values(origin, section, "deadline_s");
        } else if (section.name == "patch.queue") {
            if (saw_queue) {
                fail(origin, section.line, "duplicate [patch.queue]");
            }
            saw_queue = true;
            for (const auto& entry : section.entries) {
                if (entry.key != "capacity") {
                    unknown_key(origin, "patch.queue", entry);
                }
                for (const auto& item : parse_list(origin, entry)) {
                    const double value = parse_double(origin, entry, item);
                    const int capacity = static_cast<int>(value);
                    if (value != static_cast<double>(capacity) ||
                        capacity < 0) {
                        fail(origin, entry.line,
                             "key 'capacity' in [patch.queue] expects "
                             "non-negative integers, got '" +
                                 item + "'");
                    }
                    spec.queue_capacity.push_back(capacity);
                }
            }
            if (spec.queue_capacity.empty()) {
                fail(origin, section.line,
                     "[patch.queue] requires 'capacity = c1, c2, ...'");
            }
        } else if (section.name.rfind("arrivals.", 0) == 0) {
            const ArrivalCell cell =
                parse_arrival_cell(origin, section, spec_dir);
            for (const auto& existing : spec.arrivals) {
                if (existing.label == cell.label) {
                    fail(origin, section.line,
                         "duplicate arrivals label '" + cell.label + "'");
                }
            }
            spec.arrivals.push_back(cell);
        } else if (section.name.rfind("recovery.", 0) == 0) {
            const RecoveryCell cell = parse_recovery(origin, section);
            for (const auto& existing : spec.recoveries) {
                if (existing.label == cell.label) {
                    fail(origin, section.line,
                         "duplicate recovery label '" + cell.label + "'");
                }
            }
            spec.recoveries.push_back(cell);
        } else if (section.name == "patch.policy") {
            if (saw_policy) {
                fail(origin, section.line, "duplicate [patch.policy]");
            }
            saw_policy = true;
            for (const auto& entry : section.entries) {
                if (entry.key != "policies") {
                    unknown_key(origin, "patch.policy", entry);
                }
                spec.policies = parse_list(origin, entry);
            }
            if (spec.policies.empty()) {
                fail(origin, section.line,
                     "[patch.policy] requires 'policies = name1, name2, ...'");
            }
        } else {
            fail(origin, section.line,
                 "unknown section [" + section.name +
                     "] (expected sweep, trace, trace.<label>, system, "
                     "arrivals.<label>, patch.storage, patch.deadline, "
                     "patch.queue, patch.policy, recovery.<label>)");
        }
    }
    if (!saw_sweep) {
        fail(origin, 1, "missing required [sweep] section");
    }
    if (spec.systems.empty()) {
        fail(origin, 1, "spec declares no [system] section");
    }
    if (spec.traces.empty()) spec.traces = {TraceEntry{}};
    return spec;
}

ExperimentSpec load_experiment_spec(const std::string& path) {
    std::ifstream file(path);
    if (!file) {
        throw std::runtime_error(path + ": cannot open spec file");
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    return parse_experiment_spec(contents.str(), path);
}

}  // namespace imx::exp
