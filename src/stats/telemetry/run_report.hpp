/**
 * @file
 * RunReport: the machine-readable end-of-run artifact behind the
 * CLI's `--report PATH` flag.
 *
 * One JSON object with a versioned schema (kSchemaVersion bumps on any
 * breaking shape change):
 *
 *   {
 *     "schema": "themis.run_report/1",
 *     "mode":   "jobs" | "single" | "iterations" | "grid" | "serve"
 *               | "priority" | "fatal",
 *     "info":    { string key/values: topology, scheduler, flags },
 *     "numbers": { scalar key/values: makespan_ns, utilization, ... },
 *     <sections...>: mode-specific objects/arrays added by the caller
 *                    (e.g. "jobs": [...], "convergence": {...}),
 *     "metrics": { "counters": {name: n}, "gauges": {name: v},
 *                  "histograms": {name: {count,sum,min,max,mean,
 *                                        p50,p90,p99}} },
 *     "flight_recorder": { "capacity", "recorded", "dropped",
 *                          "events": [{at,kind,dim,aux,value}] }
 *   }
 *
 * Key order inside info/numbers/metrics is name-sorted (std::map), so
 * two identical runs serialize byte-identically -- the same property
 * the result store relies on for its merge checks.
 */

#ifndef THEMIS_STATS_TELEMETRY_RUN_REPORT_HPP
#define THEMIS_STATS_TELEMETRY_RUN_REPORT_HPP

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace themis::stats::telemetry {

class FlightRecorder;
class MetricsRegistry;

class RunReport
{
public:
    static constexpr const char* kSchemaVersion = "themis.run_report/1";

    explicit RunReport(std::string mode);

    /** String fact (topology name, scheduler, fault spec, ...). */
    void setInfo(const std::string& key, const std::string& value);

    /** Scalar fact (makespan_ns, utilization, replans, ...). */
    void setNumber(const std::string& key, double value);

    /**
     * Mode-specific top-level section: @p json must be a complete
     * JSON value (object or array), typically built with JsonWriter.
     * Section names must be unique and must not collide with the
     * fixed keys (schema/mode/info/numbers/metrics/flight_recorder).
     */
    void addSection(const std::string& name, const std::string& json);

    /** Borrow the registry / recorder to snapshot at toJson() time. */
    void attachMetrics(const MetricsRegistry* metrics);
    void attachRecorder(const FlightRecorder* recorder);

    const std::string& mode() const { return mode_; }

    std::string toJson() const;
    /** Write toJson() to @p path; throws ConfigError on failure. */
    void writeFile(const std::string& path) const;

private:
    std::string mode_;
    std::map<std::string, std::string> info_;
    std::map<std::string, double> numbers_;
    std::vector<std::pair<std::string, std::string>> sections_;
    const MetricsRegistry* metrics_ = nullptr;
    const FlightRecorder* recorder_ = nullptr;
};

} // namespace themis::stats::telemetry

#endif // THEMIS_STATS_TELEMETRY_RUN_REPORT_HPP
