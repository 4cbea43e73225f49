// Tests for the declarative experiment API: the kvfile parser, the
// experiment registry (including the grids compiled in from the shipped
// spec files), the shipped unregistered spec files, malformed-spec
// diagnostics, positional-argument errors, the --base-seed / --replicas
// resolution rules, the rejection of bad --replicas / --threads counts, and
// the coverage of the --quick stdout goldens.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/spec_parser.hpp"
#include "util/kvfile.hpp"

#ifndef IMX_SPEC_DIR
#error "IMX_SPEC_DIR must point at examples/experiments"
#endif
#ifndef IMX_QUICK_STDOUT_GOLDENS
#error "IMX_QUICK_STDOUT_GOLDENS must point at the stdout golden list"
#endif

namespace {

using namespace imx;

// --- util/kvfile ----------------------------------------------------------

TEST(KvFile, ParsesSectionsEntriesAndComments) {
    const auto sections = util::parse_kv_text(
        "# comment\n"
        "[alpha]\n"
        "key = value\n"
        "  padded   =   spaced out  \n"
        "; another comment\n"
        "[alpha]\n"
        "k2 = a = b\n");
    ASSERT_EQ(sections.size(), 2u);
    EXPECT_EQ(sections[0].name, "alpha");
    EXPECT_EQ(sections[0].line, 2);
    ASSERT_EQ(sections[0].entries.size(), 2u);
    EXPECT_EQ(sections[0].entries[0].key, "key");
    EXPECT_EQ(sections[0].entries[0].value, "value");
    EXPECT_EQ(sections[0].entries[1].key, "padded");
    EXPECT_EQ(sections[0].entries[1].value, "spaced out");
    EXPECT_EQ(sections[0].entries[1].line, 4);
    // Repeated section names are distinct nodes; '=' in a value survives.
    EXPECT_EQ(sections[1].entries[0].value, "a = b");
}

TEST(KvFile, RejectsMalformedLines) {
    EXPECT_THROW(util::parse_kv_text("key = 1\n"), util::KvParseError);
    EXPECT_THROW(util::parse_kv_text("[open\n"), util::KvParseError);
    EXPECT_THROW(util::parse_kv_text("[s]\nnot a kv line\n"),
                 util::KvParseError);
    EXPECT_THROW(util::parse_kv_text("[s]\n= empty key\n"),
                 util::KvParseError);
    try {
        util::parse_kv_text("[s]\nbroken\n", "my.ini");
        FAIL() << "expected KvParseError";
    } catch (const util::KvParseError& e) {
        EXPECT_NE(std::string(e.what()).find("my.ini:2"), std::string::npos);
    }
}

// --- --quick stdout goldens -----------------------------------------------

/// The experiment names listed in tests/goldens/quick_stdout.sha256 (each
/// line becomes one QuickStdout.<name> ctest at configure time).
std::set<std::string> stdout_golden_names() {
    std::ifstream in(IMX_QUICK_STDOUT_GOLDENS);
    EXPECT_TRUE(in.good()) << IMX_QUICK_STDOUT_GOLDENS;
    std::set<std::string> names;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        names.insert(line.substr(0, line.find(' ')));
    }
    return names;
}

// Runs before ExperimentRegistry.CustomExperimentsRegisterAndResolve adds a
// test-only name to the registry.
TEST(QuickStdoutGoldens, EveryRegisteredExperimentIsPinned) {
    const std::set<std::string> pinned = stdout_golden_names();
    const auto names = exp::experiment_names();
    const std::set<std::string> registered(names.begin(), names.end());
    for (const std::string& name : names) {
        EXPECT_EQ(pinned.count(name), 1u)
            << "experiment '" << name
            << "' has no line in tests/goldens/quick_stdout.sha256";
    }
    for (const std::string& name : pinned) {
        EXPECT_EQ(registered.count(name), 1u)
            << "stale stdout golden for unregistered '" << name << "'";
    }
}

// --- registry -------------------------------------------------------------

TEST(ExperimentRegistry, BuiltInsAreRegistered) {
    const auto names = exp::experiment_names();
    const std::set<std::string> set(names.begin(), names.end());
    for (const char* name :
         {"fig1b-exit-accuracy", "fig4-compression-policy", "fig5-iepmj",
          "fig6-flops", "fig7a-runtime-learning", "fig7b-exit-distribution",
          "latency-table", "ablation-runtime", "ablation-search",
          "ablation-trace", "ablation-storage-deadline",
          "ablation-deadline-policy", "harvester-ablation"}) {
        EXPECT_TRUE(set.count(name)) << name;
        EXPECT_FALSE(exp::experiment_description(name).empty()) << name;
    }
}

TEST(ExperimentRegistry, UnknownNameListsEveryRegisteredName) {
    try {
        (void)exp::make_experiment("no-such-experiment");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no-such-experiment"), std::string::npos);
        EXPECT_NE(what.find("fig5-iepmj"), std::string::npos);
        EXPECT_NE(what.find("ablation-storage-deadline"), std::string::npos);
    }
}

TEST(ExperimentRegistry, EveryNameBuildsAnExperimentOfThatName) {
    for (const std::string& name : exp::experiment_names()) {
        EXPECT_EQ(exp::make_experiment(name).spec.name, name);
    }
}

TEST(ExperimentRegistry, LatencyTableRunsTheFig5Grid) {
    for (const bool quick : {false, true}) {
        exp::SweepCli cli;
        cli.quick = quick;
        cli.replicas = 2;
        cli.replicas_given = true;
        const auto fig5 = exp::build_experiment_scenarios(
            exp::make_experiment("fig5-iepmj"), cli);
        const auto latency = exp::build_experiment_scenarios(
            exp::make_experiment("latency-table"), cli);
        ASSERT_EQ(fig5.size(), latency.size());
        for (std::size_t i = 0; i < fig5.size(); ++i) {
            EXPECT_EQ(fig5[i].id, latency[i].id);
            EXPECT_EQ(fig5[i].seed, latency[i].seed);
        }
    }
}

// --- positional arguments -------------------------------------------------

exp::SweepCli with_positional(const std::string& arg) {
    exp::SweepCli cli;
    cli.quick = true;
    cli.positional = {arg};
    return cli;
}

void expect_invalid_argument(const std::string& name, const exp::SweepCli& cli,
                             const std::string& message) {
    try {
        (void)exp::build_experiment_scenarios(exp::make_experiment(name), cli);
        FAIL() << "expected invalid_argument: " << message;
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind(message, 0), 0u) << e.what();
    }
}

TEST(PositionalArguments, ErrorsThrowInsteadOfExiting) {
    expect_invalid_argument("fig5-iepmj", with_positional("8"),
                            "unexpected argument '8'");
    expect_invalid_argument("ablation-search", with_positional("abc"),
                            "expected an integer argument, got 'abc'");
    expect_invalid_argument("ablation-deadline-policy",
                            with_positional("greedy,greedy"),
                            "duplicate policy 'greedy'");
    expect_invalid_argument("ablation-deadline-policy",
                            with_positional("greedy,nope"),
                            "unknown exit policy 'nope'");
    expect_invalid_argument("ablation-deadline-policy", with_positional(","),
                            "empty policy list");
    auto two = with_positional("greedy");
    two.positional.push_back("qlearning");
    expect_invalid_argument("ablation-deadline-policy", two,
                            "unexpected argument 'qlearning'");
}

TEST(PositionalArguments, SearchEpisodeCountBelowOneIsRejected) {
    for (const char* name : {"fig4-compression-policy", "ablation-search"}) {
        expect_invalid_argument(name, with_positional("0"),
                                "episode count must be >= 1, got 0");
        expect_invalid_argument(name, with_positional("-3"),
                                "episode count must be >= 1, got -3");
    }
}

// --- shipped unregistered spec files --------------------------------------

TEST(SpecRoundTrip, BurstySlackGridParsesAndExpands) {
    const auto spec = exp::load_experiment_spec(std::string(IMX_SPEC_DIR) +
                                                "/bursty_slack_grid.ini");
    EXPECT_EQ(spec.name, "bursty-slack-grid");
    ASSERT_EQ(spec.traces.size(), 2u);
    EXPECT_EQ(spec.traces[1].config.arrival_source, "bursty");
    EXPECT_EQ(spec.traces[1].config.event_seed, 321u);

    const auto specs = exp::expand_experiment(spec, {});
    // 2 traces x 2 systems x (2 storage x 2 deadline) x 1 replica.
    ASSERT_EQ(specs.size(), 16u);
    EXPECT_EQ(specs[0].id,
              "uniform-arrivals/slack-blind Q/cap1.5mJ+ddl45s#0");
    EXPECT_EQ(specs[0].dims.at("storage_mj"), "1.5");
    EXPECT_EQ(specs[0].dims.at("deadline_s"), "45");
}

std::string valid_spec() {
    return "[sweep]\n"
           "name = t\n"
           "[system]\n"
           "label = s\n"
           "kind = ours-static\n";
}

void expect_parse_error(const std::string& text, const std::string& needle) {
    try {
        (void)exp::parse_experiment_spec(text, "spec.ini");
        FAIL() << "expected failure containing '" << needle << "'";
    } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(SpecRoundTrip, CsvDemoResolvesThePathAgainstTheSpecDirectory) {
    const auto spec = exp::load_experiment_spec(std::string(IMX_SPEC_DIR) +
                                                "/csv_trace_demo.ini");
    ASSERT_EQ(spec.traces.size(), 1u);
    EXPECT_EQ(spec.traces[0].config.trace_source, "csv");
    EXPECT_EQ(spec.traces[0].config.trace_params.at("path"),
              std::string(IMX_SPEC_DIR) + "/office_rf.csv");
    // The grid expands (and therefore loads the csv) without error.
    const auto specs = exp::expand_experiment(spec, {});
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].id, "office-rf/learned Q#0");
}

// --- [trace.<label>] sections ---------------------------------------------

TEST(TraceSections, LabeledHeaderCarriesSourceAndParams) {
    const auto spec = exp::parse_experiment_spec(
        valid_spec() +
        "[trace.rf-lab]\nsource = rf-bursty\nburst_power_mw = 0.7\n"
        "event_seed = 321\narrivals = bursty\n");
    ASSERT_EQ(spec.traces.size(), 1u);
    EXPECT_EQ(spec.traces[0].label, "rf-lab");
    EXPECT_EQ(spec.traces[0].config.trace_source, "rf-bursty");
    EXPECT_EQ(spec.traces[0].config.trace_params.at("burst_power_mw"), "0.7");
    // Trace keys stay trace keys — they never leak into the param map.
    EXPECT_EQ(spec.traces[0].config.trace_params.count("event_seed"), 0u);
    EXPECT_EQ(spec.traces[0].config.event_seed, 321u);
    EXPECT_EQ(spec.traces[0].config.arrival_source, "bursty");

    // Default source: solar with its canonical parameters.
    const auto plain =
        exp::parse_experiment_spec(valid_spec() + "[trace.quiet]\n");
    EXPECT_EQ(plain.traces[0].label, "quiet");
    EXPECT_EQ(plain.traces[0].config.trace_source, "solar");
    EXPECT_TRUE(plain.traces[0].config.trace_params.empty());
}

TEST(TraceSections, RejectSchemaMistakesWithFileLineDiagnostics) {
    // Unknown source, at the key's line.
    expect_parse_error(valid_spec() + "[trace.x]\nsource = nuclear\n",
                       "unknown trace source 'nuclear'");
    // Unknown key: neither a trace key nor a source parameter.
    expect_parse_error(
        valid_spec() + "[trace.x]\nsource = rf-bursty\nburst_pwr = 1\n",
        "spec.ini:8: unknown key 'burst_pwr'");
    // ... even when the source line comes after the bad key.
    expect_parse_error(
        valid_spec() + "[trace.x]\nburst_pwr = 1\nsource = rf-bursty\n",
        "unknown key 'burst_pwr'");
    // The labeled form owns its label.
    expect_parse_error(valid_spec() + "[trace.x]\nlabel = y\n",
                       "takes its label from the section header");
    expect_parse_error(valid_spec() + "[trace.]\nsource = solar\n",
                       "requires a label after the dot");
    // Bad parameter values fail at parse time, not mid-sweep.
    expect_parse_error(
        valid_spec() + "[trace.x]\nsource = rf-bursty\nburst_power_mw = -2\n",
        "must be > 0");
    expect_parse_error(valid_spec() + "[trace.x]\nsource = csv\n",
                       "requires parameter 'path'");
    expect_parse_error(
        valid_spec() + "[trace.x]\nsource = csv\npath = /no/such.csv\n",
        "cannot load");
    // A solar window shorter than the requested duration is impossible.
    expect_parse_error(valid_spec() +
                           "[trace.x]\nsource = solar\nduration_s = 50000\n",
                       "exceeds");
    // An all-zero trace cannot be rescaled to the harvest budget; this
    // must fail at parse time, not as a mid-sweep contract violation.
    expect_parse_error(valid_spec() + "[trace.x]\nsource = rf-bursty\n"
                                      "mean_off_s = 9000000\n",
                       "harvests no energy");
}

TEST(TraceSections, MixedPlainAndLabeledTracesExpandTogether) {
    const auto spec = exp::parse_experiment_spec(
        valid_spec() + "[trace]\nlabel = solar-control\n"
                       "[trace.windy]\nsource = ou-wind\nsigma = 0.002\n");
    const auto specs = exp::expand_experiment(spec, {});
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].id, "solar-control/s#0");
    EXPECT_EQ(specs[1].id, "windy/s#0");
}

// --- malformed specs ------------------------------------------------------

TEST(SpecParser, AcceptsTheMinimalSpec) {
    const auto spec = exp::parse_experiment_spec(valid_spec());
    EXPECT_EQ(spec.name, "t");
    ASSERT_EQ(spec.traces.size(), 1u);  // default paper-solar
    EXPECT_EQ(spec.traces[0].label, "paper-solar");
    EXPECT_EQ(spec.replicas, 1);
    EXPECT_EQ(spec.base_seed, exp::kDefaultBaseSeed);
}

TEST(SpecParser, RejectsRepeatedKeysWithinASection) {
    // A repeated key would silently last-win — e.g. a patch axis split
    // across two lines would run half its grid.
    expect_parse_error(
        valid_spec() + "[patch.storage]\ncapacity_mj = 3\ncapacity_mj = 6\n",
        "duplicate key 'capacity_mj'");
    expect_parse_error("[sweep]\nname = a\nname = b\n[system]\nlabel = s\n",
                       "duplicate key 'name'");
    expect_parse_error(valid_spec() + "[system]\nlabel = s2\nkind = sonic\n"
                                      "kind = lenet\n",
                       "duplicate key 'kind'");
}

TEST(SpecParser, RejectsUnknownKeysAndSections) {
    expect_parse_error("[sweep]\nname = t\nreplics = 2\n[system]\nlabel=s\n",
                       "unknown key 'replics'");
    expect_parse_error(valid_spec() + "[patches]\nx = 1\n",
                       "unknown section [patches]");
    expect_parse_error(valid_spec() + "[system]\nlabel = s2\nkinds = x\n",
                       "unknown key 'kinds'");
    expect_parse_error(valid_spec() + "[patch.storage]\ndeadline_s = 3\n",
                       "unknown key 'deadline_s'");
}

TEST(SpecParser, RejectsBadNumbers) {
    expect_parse_error("[sweep]\nname = t\nreplicas = many\n",
                       "expects an integer");
    expect_parse_error(valid_spec() + "[patch.storage]\ncapacity_mj = 3, x\n",
                       "expects a number");
    expect_parse_error(valid_spec() + "[patch.deadline]\ndeadline_s = 60,,\n",
                       "empty list element");
    expect_parse_error("[sweep]\nname = t\nbase_seed = -4\n",
                       "non-negative");
    expect_parse_error(valid_spec() + "[trace]\nlabel = x\nevent_count = 0\n",
                       "event_count must be >= 1");
}

TEST(SpecParser, RejectsStructuralMistakes) {
    expect_parse_error(valid_spec() + "[system]\nlabel = s\nkind = sonic\n",
                       "duplicate system label 's'");
    expect_parse_error(valid_spec() + "[sweep]\nname = again\n",
                       "duplicate [sweep]");
    expect_parse_error("[system]\nlabel = s\n", "missing required [sweep]");
    expect_parse_error("[sweep]\nname = t\n", "no [system]");
    expect_parse_error("[sweep]\ndescription = unnamed\n[system]\nlabel=s\n",
                       "non-empty 'name'");
    expect_parse_error(
        valid_spec() + "[patch.policy]\npolicies = greedy\n"
                       "[patch.policy]\npolicies = qlearning\n",
        "duplicate [patch.policy]");
}

TEST(SpecParser, SemanticErrorsSurfaceAtExpansion) {
    // Unknown kinds/policies parse fine (the parser owns syntax) but fail
    // loudly in make_sweep before anything runs.
    auto spec = exp::parse_experiment_spec(
        "[sweep]\nname = t\n[system]\nlabel = s\nkind = resnet\n");
    EXPECT_THROW((void)exp::expand_experiment(spec, {}),
                 std::invalid_argument);

    spec = exp::parse_experiment_spec(
        "[sweep]\nname = t\n[system]\nlabel = s\nkind = ours-policy\n"
        "policy = not-a-policy\n");
    EXPECT_THROW((void)exp::expand_experiment(spec, {}),
                 std::invalid_argument);

    // A policy axis cannot cross a checkpointed baseline.
    spec = exp::parse_experiment_spec(
        "[sweep]\nname = t\n[system]\nlabel = s\nkind = sonic\n"
        "[patch.policy]\npolicies = greedy\n");
    EXPECT_THROW((void)exp::expand_experiment(spec, {}),
                 std::invalid_argument);

    // ours-policy with neither a policy name nor a policy axis.
    spec = exp::parse_experiment_spec(
        "[sweep]\nname = t\n[system]\nlabel = s\nkind = ours-policy\n");
    EXPECT_THROW((void)exp::expand_experiment(spec, {}),
                 std::invalid_argument);
}

TEST(SpecParser, DuplicateTracesAndAxisValuesFailAtExpansion) {
    // Each duplicate would expand to colliding scenario ids, silently
    // folding distinct cells into one aggregation group.
    auto spec = exp::parse_experiment_spec(
        valid_spec() + "[trace]\nlabel = x\n[trace]\nlabel = x\n");
    EXPECT_THROW((void)exp::expand_experiment(spec, {}),
                 std::invalid_argument);

    spec = exp::parse_experiment_spec(
        valid_spec() + "[patch.deadline]\ndeadline_s = 60, 60\n");
    EXPECT_THROW((void)exp::expand_experiment(spec, {}),
                 std::invalid_argument);

    spec = exp::parse_experiment_spec(
        valid_spec() + "[patch.storage]\ncapacity_mj = 3, 3\n");
    EXPECT_THROW((void)exp::expand_experiment(spec, {}),
                 std::invalid_argument);

    spec = exp::parse_experiment_spec(
        "[sweep]\nname = t\n[system]\nlabel = s\nkind = ours-policy\n"
        "[patch.policy]\npolicies = greedy, greedy\n");
    EXPECT_THROW((void)exp::expand_experiment(spec, {}),
                 std::invalid_argument);
}

// --- option resolution ----------------------------------------------------

TEST(OptionResolution, SpecDefaultsYieldToExplicitCliFlags) {
    exp::ExperimentSpec spec;
    spec.name = "t";
    spec.systems = {{"s", "ours-static", "", 0, 0}};
    spec.replicas = 3;
    spec.base_seed = 42;

    // No CLI flags: the spec's defaults apply.
    auto resolved = exp::resolve_options(spec, {});
    EXPECT_EQ(resolved.replicas, 3);
    EXPECT_EQ(resolved.base_seed, 42u);

    // Explicit flags win, including --replicas 1 over a spec default of 3.
    exp::SweepCli cli;
    cli.replicas = 1;
    cli.replicas_given = true;
    cli.base_seed = 7;
    cli.base_seed_given = true;
    resolved = exp::resolve_options(spec, cli);
    EXPECT_EQ(resolved.replicas, 1);
    EXPECT_EQ(resolved.base_seed, 7u);
}

/// parse_sweep_cli on `imx_sweep fig5-iepmj <args...>`.
exp::SweepCli parse_cli(std::vector<std::string> args) {
    args.insert(args.begin(), {"imx_sweep", "fig5-iepmj"});
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    return exp::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(SweepCliDeathTest, ReplicaCountsBelowOneExitWithUsageError) {
    EXPECT_EXIT((void)parse_cli({"--replicas", "0"}),
                testing::ExitedWithCode(2),
                "error: --replicas must be >= 1, got 0");
    EXPECT_EXIT((void)parse_cli({"--replicas", "-1"}),
                testing::ExitedWithCode(2),
                "error: --replicas must be >= 1, got -1");
}

TEST(SweepCliDeathTest, NegativeThreadCountsExitWithUsageError) {
    EXPECT_EXIT((void)parse_cli({"--threads", "-2"}),
                testing::ExitedWithCode(2),
                "error: --threads must be >= 0 \\(0 = all cores\\), got -2");
    EXPECT_EXIT((void)parse_cli({"--threads", "-1"}),
                testing::ExitedWithCode(2), "got -1");
}

TEST(SweepCliDeathTest, ZeroThreadsStillMeansAllCores) {
    // Parsed in a child, so a regression exits it rather than the suite.
    EXPECT_EXIT(std::exit(parse_cli({"--threads", "0"}).threads),
                testing::ExitedWithCode(0), "");
}

TEST(BaseSeed, ReRollsEveryStreamAndDefaultsToTheHistoricalSeed) {
    exp::ExperimentSpec spec;
    spec.name = "t";
    spec.systems = {{"s", "ours-static", "", 0, 0}};

    const auto default_grid = exp::expand_experiment(spec, {});
    ASSERT_EQ(default_grid.size(), 1u);
    EXPECT_EQ(default_grid[0].seed,
              exp::scenario_seed(exp::kDefaultBaseSeed, "paper-solar/s", 0));

    exp::SweepCli rerolled;
    rerolled.base_seed = 0xBEEF;
    rerolled.base_seed_given = true;
    const auto rerolled_grid = exp::expand_experiment(spec, rerolled);
    EXPECT_EQ(rerolled_grid[0].seed,
              exp::scenario_seed(0xBEEF, "paper-solar/s", 0));
    EXPECT_NE(rerolled_grid[0].seed, default_grid[0].seed);
}

TEST(QuickMode, ShrinksTracesAndEpisodesLikeTheHistoricalBenches) {
    const core::SetupConfig full;
    const auto quick = exp::quick_setup_config(full);
    EXPECT_DOUBLE_EQ(quick.duration_s, 4000.0);
    EXPECT_EQ(quick.event_count, 150);
    // Same harvest-per-second density as the full run.
    EXPECT_NEAR(quick.total_harvest_mj / quick.duration_s,
                full.total_harvest_mj / full.duration_s, 1e-12);

    // Shrink only: a trace already below the smoke scale is left alone.
    core::SetupConfig tiny;
    tiny.duration_s = 1000.0;
    tiny.event_count = 50;
    tiny.total_harvest_mj = 20.0;
    const auto tiny_quick = exp::quick_setup_config(tiny);
    EXPECT_DOUBLE_EQ(tiny_quick.duration_s, 1000.0);
    EXPECT_EQ(tiny_quick.event_count, 50);
    EXPECT_DOUBLE_EQ(tiny_quick.total_harvest_mj, 20.0);

    // File-backed sources keep their physics: a csv trace's length comes
    // from the file, not duration_s, so quick mode must not scale the
    // harvest budget (that would starve a same-length replay); only the
    // event cap applies.
    core::SetupConfig csv_cfg;
    csv_cfg.trace_source = "csv";
    csv_cfg.trace_params = {{"path", "some_trace.csv"}};
    const auto csv_quick = exp::quick_setup_config(csv_cfg);
    EXPECT_DOUBLE_EQ(csv_quick.duration_s, csv_cfg.duration_s);
    EXPECT_DOUBLE_EQ(csv_quick.total_harvest_mj, csv_cfg.total_harvest_mj);
    EXPECT_EQ(csv_quick.event_count, 150);

    exp::SweepCli cli;
    EXPECT_EQ(exp::sweep_episodes(cli, 16), 16);
    cli.quick = true;
    EXPECT_EQ(exp::sweep_episodes(cli, 16), 4);

    // Quick mode swaps the learning systems onto quick_train_episodes.
    exp::ExperimentSpec spec;
    spec.name = "t";
    spec.systems = {{"q", "ours-qlearning", "", 12, 3}};
    EXPECT_EQ(exp::make_sweep(spec, {}).systems[0].train_episodes, 12);
    EXPECT_EQ(exp::make_sweep(spec, cli).systems[0].train_episodes, 3);
}

}  // namespace
