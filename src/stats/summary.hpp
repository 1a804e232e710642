/**
 * @file
 * Text-table formatting for CLI/example reports.
 */

#ifndef THEMIS_STATS_SUMMARY_HPP
#define THEMIS_STATS_SUMMARY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace themis::stats {

/** One flow-class row of a priority breakdown table. */
struct ClassUsageRow
{
    /** Class name (priorityTierName). */
    std::string name;

    /** GPS weight the priority policy assigns this class. */
    double weight = 1.0;

    /** Completed collectives in this class. */
    int collectives = 0;

    /** Mean completion time of those collectives. */
    TimeNs mean_duration = 0.0;

    /** Bytes the class progressed across all dimensions. */
    Bytes progressed = 0.0;

    /** Class share of machine bandwidth in comm-active windows. */
    double utilization = 0.0;

    /**
     * Mean completion time relative to the class running alone
     * (caller-supplied solo baseline); values <= 0 render as "-".
     */
    double slowdown = 0.0;
};

/**
 * Render per-class usage rows (runtime::CommRuntime::classReports()
 * plus optional solo-run slowdowns) as a standard table.
 */
std::string renderClassTable(const std::vector<ClassUsageRow>& rows);

/** One job row of a multi-job cluster report. */
struct JobUsageRow
{
    /** Job label, e.g. "train:GNMT" or "infer:32.00 MB". */
    std::string name;

    /** Kind label ("train"/"infer"). */
    std::string kind;

    /** Simulated arrival time. */
    TimeNs arrival = 0.0;

    /** Job completion time (JCT = finished - arrival). */
    TimeNs jct = 0.0;

    /** Completed units: training iterations or inference requests. */
    int units = 0;

    /** Mean unit time (iteration duration / request latency). */
    TimeNs mean_unit = 0.0;

    /** Exposed-communication share; negative renders as "-". */
    double exposed_share = -1.0;

    /** Deadline hit rate; negative renders as "-". */
    double deadline_hit_rate = -1.0;

    /** Bytes the job progressed across the fabric; negative renders
     *  as "-" (lockstep convergence runs replay whole rounds
     *  analytically and carry no per-job wire totals). */
    Bytes progressed = 0.0;

    /** Job share of machine bandwidth in comm-active windows;
     *  negative renders as "-". */
    double utilization = 0.0;

    /**
     * Steps this job takes per confirmed steady cycle in a lockstep
     * convergence run (cycle_length / cadence); negative renders as
     * "-" (free-running runs have no cycle).
     */
    int cycle_units = -1;

    /**
     * Unit-time tail (ns) from the job's telemetry histogram: p99 and
     * worst case over iteration durations (training) or request
     * latencies (inference). Negative renders as "-" (no telemetry,
     * or no completed units).
     */
    double unit_p99 = -1.0;
    double unit_max = -1.0;
};

/** Render per-job cluster rows as a standard table. */
std::string renderJobTable(const std::vector<JobUsageRow>& rows);

/**
 * One mode row of a multi-iteration convergence-run comparison
 * (plain numbers, so this layer does not depend on workload types).
 */
struct ConvergenceRunRow
{
    /** Mode label, e.g. "replay" or "full simulation". */
    std::string label;

    /** Iterations accounted for / event-simulated / replayed. */
    int iterations = 0;
    int simulated = 0;
    int replayed = 0;

    /** Confirmed steady-cycle length in rounds; 0 renders as "-". */
    int cycle_length = 0;

    /** Summed simulated time over all iterations. */
    TimeNs total_time = 0.0;

    /** Final iteration's simulated duration. */
    TimeNs last_iteration = 0.0;

    /** Fig-4-definition utilization over the run. */
    double utilization = 0.0;

    /** Host wall-clock cost of producing the run. */
    double wall_ms = 0.0;
};

/** Render convergence-run rows as a standard table. */
std::string
renderConvergenceTable(const std::vector<ConvergenceRunRow>& rows);

/** One dimension row of a fault/retry report (fault engine). */
struct FaultDimRow
{
    /** Dimension label, e.g. "dim1 (SW)". */
    std::string name;

    /** Capacity steps applied (degrade/straggler edges). */
    std::uint64_t capacity_events = 0;

    /** Link flaps applied. */
    std::uint64_t flaps = 0;

    /** Nominal link-down time across those flaps. */
    TimeNs down_time = 0.0;

    /** Failed transfer attempts (each retried after backoff). */
    std::uint64_t retries = 0;

    /** Wire bytes moved by failed attempts and re-sent. */
    Bytes lost_bytes = 0.0;

    /** Transfers that ran out of retry budget (fatal failures). */
    std::uint64_t fatal_retries = 0;

    /**
     * Retry-backoff tail (ns) from the dimension's telemetry
     * histogram: p99 and worst backoff actually scheduled. Negative
     * renders as "-" (no retries on the dimension).
     */
    double backoff_p99 = -1.0;
    double backoff_max = -1.0;
};

/** Render per-dimension fault/retry rows as a standard table. */
std::string renderFaultTable(const std::vector<FaultDimRow>& rows);

/** Column-aligned monospace table for terminal reports. */
class TextTable
{
  public:
    /** @param headers column titles. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append one row; must match the header arity. */
    void addRow(const std::vector<std::string>& cells);

    /** Render with padding and a header underline. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace themis::stats

#endif // THEMIS_STATS_SUMMARY_HPP
