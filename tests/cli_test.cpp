/**
 * @file
 * Tests for the themis_cli flag table: strict typed values, mode
 * selection, the one diagnostic for a flag given outside its modes,
 * the --jobs integer/spec overload, the generated usage text, and
 * serve's report without a results store.
 * Whole-run output is pinned by the byte-exact goldens instead
 * (tools/cli_golden.py).
 */

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "app/cli.hpp"

using namespace themis;
using app::Mode;
using app::parseArgs;
using app::UsageError;

namespace {

/** The UsageError message parseArgs throws for @p args ("" if none). */
std::string
usageError(const std::vector<std::string>& args)
{
    try {
        (void)parseArgs(args);
    } catch (const UsageError& e) {
        return e.what();
    }
    return "";
}

bool
contains(const std::string& text, const std::string& part)
{
    return text.find(part) != std::string::npos;
}

TEST(CliParse, DefaultsSelectTheSingleMode)
{
    const app::Options o = parseArgs({});
    EXPECT_EQ(o.mode, Mode::Single);
    EXPECT_EQ(o.topo, "3D-SW_SW_SW_homo");
    EXPECT_EQ(o.chunks, 64);
    EXPECT_EQ(o.size, 1.0e9);
    EXPECT_EQ(o.sched, "scf");
}

TEST(CliParse, ReadsEveryArgumentKind)
{
    const app::Options o =
        parseArgs({"--size", "2.5e8", "--chunks", "16", "--type", "RS",
                   "--enforce", "--replan-threshold", "0", "--adapt"});
    EXPECT_EQ(o.size, 2.5e8);
    EXPECT_EQ(o.chunks, 16);
    EXPECT_EQ(o.type, "rs"); // choices are case-insensitive
    EXPECT_TRUE(o.enforce);
    EXPECT_TRUE(o.adapt);
    EXPECT_EQ(o.replan_threshold, 0.0);
}

TEST(CliParse, RejectsUnknownFlagAndMissingValue)
{
    EXPECT_TRUE(contains(usageError({"--bogus"}), "unknown flag '--bogus'"));
    EXPECT_TRUE(contains(usageError({"--topo"}), "--topo wants a value"));
    EXPECT_TRUE(contains(usageError({"--size", "1e8", "--chunks"}),
                         "--chunks wants a value"));
}

TEST(CliParse, NumbersMustConsumeTheWholeValue)
{
    EXPECT_TRUE(contains(usageError({"--chunks", "8x"}),
                         "--chunks wants an integer >= 1; got '8x'"));
    EXPECT_TRUE(contains(usageError({"--size", "abc"}),
                         "--size wants a number > 0; got 'abc'"));
    EXPECT_TRUE(contains(usageError({"--sweep", "8,3x"}), "--sweep"));
    EXPECT_TRUE(contains(usageError({"--sweep", "8,,32"}), "--sweep"));
    EXPECT_TRUE(contains(usageError({"--chunks", "0"}), "--chunks"));
    EXPECT_TRUE(contains(usageError({"--chunks", "99999999999"}),
                         "--chunks"));
    EXPECT_TRUE(contains(usageError({"--priority", "0.5"}),
                         "--priority wants a number >= 1"));
    EXPECT_TRUE(contains(usageError({"--replan-threshold", "-1"}),
                         "--replan-threshold"));
    EXPECT_TRUE(contains(usageError({"--type", "zz"}), "--type"));
    EXPECT_TRUE(contains(usageError({"--sched", "lifo"}), "--sched"));
    EXPECT_EQ(parseArgs({"--sweep", "8,32"}).sweep_chunks,
              (std::vector<int>{8, 32}));
}

TEST(CliParse, EachModeFlagSelectsItsMode)
{
    EXPECT_EQ(parseArgs({"--merge", "o,i"}).mode, Mode::Merge);
    EXPECT_EQ(parseArgs({"--serve"}).mode, Mode::Serve);
    EXPECT_EQ(parseArgs({"--grid", "2D-SW_SW"}).mode, Mode::Grid);
    EXPECT_EQ(parseArgs({"--sweep", "4"}).mode, Mode::Grid);
    EXPECT_EQ(parseArgs({"--priority", "4"}).mode, Mode::Priority);
    EXPECT_EQ(parseArgs({"--jobs", "train:DLRM"}).mode, Mode::Jobs);
    EXPECT_EQ(parseArgs({"--iterations", "3"}).mode, Mode::Iterations);
    // Flags that also parameterize another mode do not steal it.
    EXPECT_EQ(parseArgs({"--iterations", "3", "--jobs", "train:DLRM"}).mode,
              Mode::Jobs);
    // Cluster mixes turn a grid into the mix grid.
    EXPECT_EQ(parseArgs({"--grid", "2D-SW_SW", "--iterations", "2",
                         "--jobs", "train:DLRM|train:GNMT"})
                  .mode,
              Mode::MixGrid);
    EXPECT_EQ(parseArgs({"--sweep", "4", "--jobs", "train:DLRM"}).mode,
              Mode::MixGrid);
}

TEST(CliParse, FlagsOutsideTheirModesAreRejected)
{
    // Each flag here would otherwise be read by nothing.
    const std::string trace =
        usageError({"--grid", "2D-SW_SW", "--trace", "t.json"});
    EXPECT_TRUE(contains(trace, "--trace does not apply to the grid mode"));
    EXPECT_TRUE(contains(trace, "it applies to: jobs iterations single"));
    EXPECT_TRUE(contains(usageError({"--serve", "--iterations", "3"}),
                         "--iterations does not apply to the serve mode"));
    EXPECT_TRUE(contains(usageError({"--offset-search"}),
                         "--offset-search does not apply to the single"));
    EXPECT_TRUE(contains(usageError({"--iterations", "3", "--chunks", "8"}),
                         "--chunks does not apply to the iterations mode"));
    // The diagnostic that replaced the three hand-written rejections.
    EXPECT_TRUE(contains(usageError({"--grid", "2D-SW_SW", "--faults",
                                     "flap@1e5+5e4:dim=1"}),
                         "--faults does not apply to the grid mode"));
    EXPECT_TRUE(contains(usageError({"--sweep", "8", "--cycle-limit", "4"}),
                         "--cycle-limit does not apply to the grid mode"));
    EXPECT_TRUE(contains(usageError({"--priority", "4", "--jobs",
                                     "train:DLRM"}),
                         "--jobs does not apply to the priority mode"));
    // An axis flag replaces the flag of its single value.
    EXPECT_TRUE(contains(usageError({"--grid", "2D-SW_SW", "--topo", "4D"}),
                         "--topo does not apply to the grid mode with --grid"));
    EXPECT_TRUE(contains(usageError({"--sweep", "8", "--chunks", "4"}),
                         "--chunks does not apply to the grid mode with "
                         "--sweep"));
    EXPECT_TRUE(contains(usageError({"--sweep", "8", "--jobs", "train:DLRM",
                                     "--chunks", "4"}),
                         "--chunks does not apply to the mix-grid mode with "
                         "--sweep"));
    // Collective flags a mix grid does not read, cluster flags a
    // collective grid does not read: the flag table alone says so.
    for (const char* flag : {"--type", "--size"})
        EXPECT_TRUE(contains(usageError({"--grid", "2D-SW_SW", "--jobs",
                                         "train:DLRM", flag, "1"}),
                             std::string(flag) +
                                 " does not apply to the mix-grid mode "
                                 "(--grid/--sweep with --jobs SPECS)"));
    for (const char* flag : {"--iterations", "--tier-ratio"})
        EXPECT_TRUE(contains(usageError({"--sweep", "8", flag, "2"}),
                             std::string(flag) +
                                 " does not apply to the grid mode "
                                 "(--grid/--sweep); it applies to:"));
    // Two mode flags never combine.
    EXPECT_TRUE(contains(usageError({"--serve", "--merge", "o,i"}),
                         "--serve does not apply to the merge mode"));
}

TEST(CliParse, JobsIsThreadsWhenIntegerElseASpec)
{
    const app::Options grid =
        parseArgs({"--grid", "2D-SW_SW", "--jobs", "4"});
    EXPECT_EQ(grid.threads, 4);
    EXPECT_TRUE(grid.jobs.empty());
    EXPECT_EQ(grid.mode, Mode::Grid);
    EXPECT_EQ(parseArgs({"--serve", "--jobs", "0"}).threads, 0);

    const app::Options cluster = parseArgs({"--jobs", "train:DLRM;train:GNMT"});
    EXPECT_EQ(cluster.jobs, "train:DLRM;train:GNMT");
    EXPECT_EQ(cluster.threads, 0);
    EXPECT_EQ(cluster.mode, Mode::Jobs);
    // Both forms together: the spec runs, the count feeds its workers.
    const app::Options both = parseArgs(
        {"--jobs", "train:DLRM", "--jobs", "2", "--offset-search"});
    EXPECT_EQ(both.jobs, "train:DLRM");
    EXPECT_EQ(both.threads, 2);
    EXPECT_EQ(both.mode, Mode::Jobs);
    // A thread count alone selects no mode, and single runs no workers.
    EXPECT_TRUE(contains(usageError({"--jobs", "4"}),
                         "--jobs does not apply to the single mode"));
}

TEST(CliUsage, ListsEveryTableFlag)
{
    const std::string usage = app::usageText("themis_cli");
    const std::vector<std::string> flags = app::flagNames();
    EXPECT_EQ(flags.size(), 28u);
    for (const std::string& flag : flags) {
        EXPECT_TRUE(contains(usage, "  " + flag + " ") ||
                    contains(usage, "  " + flag + "\n"))
            << flag;
        // Every listed flag parses somewhere: no dead table rows.
        EXPECT_FALSE(contains(usageError({flag}), "unknown flag")) << flag;
    }
    EXPECT_TRUE(contains(usage, "--validate"));
    EXPECT_TRUE(contains(usage, "infer:SIZE,period=NS"));
}

TEST(CliUsage, HelpPrintsTheUsageAndExitsZero)
{
    // --help wins over any other argument, even a bad one.
    char prog[] = "themis_cli", bogus[] = "--bogus", help[] = "--help";
    char* argv[] = {prog, bogus, help};
    testing::internal::CaptureStdout();
    const int code = app::runCli(3, argv);
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              app::usageText("themis_cli"));
    EXPECT_EQ(code, 0);
}

TEST(CliServe, ReportNamesAResultsStoreOnlyWhenGivenOne)
{
    // Without --results the session keeps no store, so its report has
    // no results_store line, as in the grid.
    std::istringstream queries("topo=2D-SW_SW chunks=4 size=5e7 type=rs\n");
    std::streambuf* const saved = std::cin.rdbuf(queries.rdbuf());
    char prog[] = "themis_cli", serve[] = "--serve";
    char* argv[] = {prog, serve};
    testing::internal::CaptureStdout();
    const int code = app::runCli(2, argv);
    const std::string out = testing::internal::GetCapturedStdout();
    std::cin.rdbuf(saved);
    EXPECT_EQ(code, 0);
    EXPECT_TRUE(contains(out, "\nqueries ")) << out;
    EXPECT_FALSE(contains(out, "results_store")) << out;
}

} // namespace
