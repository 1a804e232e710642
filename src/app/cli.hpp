/**
 * @file
 * The themis_cli command line. One flag table (src/app/flags.cpp)
 * drives parsing, the usage text and the rule that a flag given
 * outside its modes is rejected; each mode is a plain function in a
 * mode table. themis_cli's main() only calls runCli().
 */

#ifndef THEMIS_APP_CLI_HPP
#define THEMIS_APP_CLI_HPP

#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace themis::app {

/**
 * Run modes in selection order: the first mode whose selecting flag
 * was given runs, single when none was. Each selecting flag is
 * rejected outside its own mode, so at most one mode accepts a
 * command line; the order only settles which error is reported.
 */
enum class Mode
{
    Merge,      ///< --merge: canonical union of result stores
    Serve,      ///< --serve: memoized what-if queries from stdin
    Grid,       ///< --grid/--sweep: topology x scheduler x chunks
    MixGrid,    ///< --grid/--sweep with --jobs SPECS: x cluster mixes
    Priority,   ///< --priority: two-tenant contention demo
    Jobs,       ///< --jobs SPECS: multi-job cluster co-simulation
    Iterations, ///< --iterations: convergence run of one model
    Single,     ///< one collective on --topo
};

/** A command-line mistake: runCli prints it and the usage, exit 2. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Flag values after parsing; the defaults are the usage text's. */
struct Options
{
    Mode mode = Mode::Single;
    std::string topo = "3D-SW_SW_SW_homo";
    std::string type = "ar";
    std::string sched = "scf";
    Bytes size = 1.0e9;
    int chunks = 64;
    bool enforce = false;
    bool validate = false;
    std::string sweep;
    std::vector<int> sweep_chunks; ///< --sweep, parsed
    std::string grid;
    std::string shard;
    std::string results;
    int max_cells = 0;
    std::string merge;
    bool serve = false;
    double priority = 0.0;
    int iterations = 0;
    std::string model = "Transformer-1T";
    bool exact = false;
    bool no_replay = false;
    int cycle_limit = 0; ///< 0: the job mix's hyper-period
    int threads = 0;     ///< --jobs N; 0: hardware concurrency
    std::string jobs;    ///< --jobs SPECS
    double tier_ratio = 4.0;
    bool offset_search = false;
    std::string faults;
    bool adapt = false;
    double replan_threshold = 0.05;
    std::string report;
    std::string trace;
};

/**
 * Parse @p args (argv after the program name) and select the mode.
 * Throws UsageError naming the flag on an unknown flag, a missing or
 * malformed value, or a flag the selected mode does not read.
 */
Options parseArgs(const std::vector<std::string>& args);

/** The usage text, generated from the flag and mode tables. */
std::string usageText(const std::string& argv0);

/** Every flag of the table, in table order. */
std::vector<std::string> flagNames();

/**
 * Parse, run the selected mode, and map failures to exit codes:
 * usage error 2, ConfigError 1, retry exhaustion 2. --help prints
 * the usage to stdout and exits 0.
 */
int runCli(int argc, char** argv);

} // namespace themis::app

#endif // THEMIS_APP_CLI_HPP
