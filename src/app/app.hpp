/**
 * @file
 * Internals of the themis_cli modes: the run session behind
 * --report/--trace, the mode entry points, and what more than one
 * mode file uses.
 */

#ifndef THEMIS_APP_APP_HPP
#define THEMIS_APP_APP_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "app/cli.hpp"
#include "cluster/job.hpp"
#include "runtime/comm_runtime.hpp"
#include "sim/fault_timeline.hpp"
#include "stats/telemetry/run_report.hpp"
#include "stats/telemetry/telemetry.hpp"
#include "stats/trace_writer.hpp"

namespace themis::app {

/**
 * One run: the options plus the telemetry sink and trace writer. They
 * outlive the mode, so the retry-exhaustion path can still dump the
 * flight recorder and write the partial artifacts.
 */
struct Session
{
    explicit Session(const Options& options);
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /**
     * Config of a single-runtime mode (single, iterations, jobs) from
     * --sched/--enforce/--faults/--adapt/--replan-threshold, carrying
     * the telemetry sink when an artifact was requested. Batch modes
     * never take the sink: their cells run on worker threads and the
     * registry is single-threaded.
     */
    runtime::RuntimeConfig runtimeConfig(const Topology& topo);

    /**
     * Print @p report's text form, then write --trace and --report
     * (with the metrics and flight recorder attached unless
     * !@p with_telemetry), announcing each.
     */
    void finish(stats::telemetry::RunReport& report,
                bool with_telemetry = true) const;

    const Options& opt;
    stats::telemetry::Telemetry telem;
    stats::TraceWriter trace;
    sim::FaultTimeline faults;
};

/** Run the selected mode through the mode table. */
int runMode(Session& s);

int runMerge(Session& s);
int runServe(Session& s);
int runGrid(Session& s);
int runPriority(Session& s);
int runJobs(Session& s);
int runIterations(Session& s);
int runSingle(Session& s);

/**
 * Whole-string parses (strtol/strtod plus an end check): "8x" is no
 * number. A count is an integer in [1, INT_MAX].
 */
std::optional<double> parseNumber(const std::string& s);
std::optional<int> parseCount(const std::string& s);

/** Preset name (no ':') or topology spec. */
Topology resolveTopology(const std::string& arg);

/** "ar" | "rs" | "ag" | "a2a"; nullopt otherwise. */
std::optional<CollectiveType> parseCollectiveType(const std::string& s);

/** One scheduler: --sched / sched= spelling, display name, config. */
struct SchedulerSetup
{
    const char* flag;
    const char* name;
    runtime::RuntimeConfig cfg;
};

/** base, fifo, scf: the --sched choices and the grid's axis. */
const std::vector<SchedulerSetup>& schedulerSetups();
std::optional<std::size_t> schedulerIndex(const std::string& flag);

/** 16-digit hex rendering of a hash or fingerprint. */
std::string hex16(std::uint64_t h);

/** Monotonic wall clock in milliseconds. */
double nowMs();

/**
 * The platform facts of a report: the "topology" info, the "npus"
 * number and a "dims" table of each dimension's link (plus its
 * bandwidth utilization when @p util is given).
 */
void reportTopology(stats::telemetry::RunReport& report,
                    const Topology& topo,
                    const std::vector<double>& util = {});

/**
 * Cluster-run config: Themis upgrades to its priority-aware variant
 * under a weight ladder, the policy is tiered(@p tier_ratio), and
 * @p chunks is the default chunk count.
 */
runtime::RuntimeConfig clusterConfig(runtime::RuntimeConfig cfg,
                                     double tier_ratio, int chunks);

/** Training iterations of a cluster job: --iterations, else 3. */
inline int
clusterIterations(const Options& opt)
{
    return opt.iterations >= 1 ? opt.iterations : 3;
}

} // namespace themis::app

#endif // THEMIS_APP_APP_HPP
