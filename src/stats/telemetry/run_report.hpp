/**
 * @file
 * RunReport: the one output model of the CLI. Every themis_cli mode
 * fills one report; stdout is its toText() form and `--report PATH`
 * writes its toJson() form, so the two cannot drift apart.
 *
 * A report holds info strings, numbers that carry a display unit, and
 * named tables whose columns each have a JSON key, a title and a unit.
 * The unit only shapes the text (fmtTime, fmtBytes, fmtPercent, ...);
 * the JSON always carries the raw value.
 *
 * The JSON is one object with a versioned schema (kSchemaVersion bumps
 * on any breaking shape change):
 *
 *   {
 *     "schema": "themis.run_report/1",
 *     "mode":   "jobs" | "single" | "iterations" | "grid" | "serve"
 *               | "merge" | "priority" | "fatal",
 *     "info":    { string key/values: topology, scheduler, flags },
 *     "numbers": { scalar key/values: makespan_ns, utilization, ... },
 *     <tables...>: one array of row objects per table, keyed by the
 *                  table's name (e.g. "jobs": [...], "fault": [...]);
 *                  a column key "a.b" nests b inside the row's "a"
 *                  object,
 *     "metrics": { "counters": {name: n}, "gauges": {name: v},
 *                  "histograms": {name: {count,sum,min,max,mean,
 *                                        p50,p90,p99}} },
 *     "flight_recorder": { "capacity", "recorded", "dropped",
 *                          "events": [{at,kind,dim,aux,value}] }
 *   }
 *
 * Key order inside info/numbers/metrics is name-sorted, so two
 * identical runs serialize byte-identically -- the same property the
 * result store relies on for its merge checks. The text form keeps the
 * order in which the mode filled the report.
 */

#ifndef THEMIS_STATS_TELEMETRY_RUN_REPORT_HPP
#define THEMIS_STATS_TELEMETRY_RUN_REPORT_HPP

#include <deque>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace themis::stats::telemetry {

class FlightRecorder;
class MetricsRegistry;

/** How a number reads in the text form. */
enum class Unit
{
    Plain,   ///< %g
    Count,   ///< integer
    Time,    ///< fmtTime (ns)
    Bytes,   ///< fmtBytes
    Percent, ///< fmtPercent of a fraction; four decimals below 0.1%
    Factor,  ///< "1.14x"
};

class RunReport
{
public:
    static constexpr const char* kSchemaVersion = "themis.run_report/1";

    struct Column
    {
        std::string key;   ///< JSON key of the row object
        std::string title; ///< text header; empty: JSON only
        Unit unit = Unit::Plain;
    };

    /**
     * One table cell: a number or a string. An absent cell renders
     * "-" in the text form; toJson() still carries its raw value.
     */
    struct Cell
    {
        template <typename T,
                  typename = std::enable_if_t<std::is_arithmetic_v<T>>>
        Cell(T v, bool shown = true)
            : value(static_cast<double>(v)), present(shown)
        {
        }
        Cell(std::string s) : value(std::move(s)) {}
        Cell(const char* s) : value(std::string(s)) {}

        std::variant<double, std::string> value;
        bool present = true;
    };

    struct Table
    {
        std::string name;
        std::vector<Column> columns;
        std::vector<std::vector<Cell>> rows;

        /** Append one row; must match the column count. */
        void addRow(std::vector<Cell> cells);
    };

    explicit RunReport(std::string mode);

    /** String fact (topology name, scheduler, fault spec, ...). */
    void setInfo(const std::string& key, const std::string& value);

    /** Scalar fact (makespan_ns, utilization, replans, ...). */
    void setNumber(const std::string& key, double value,
                   Unit unit = Unit::Plain);

    /**
     * New table @p name. Names must be unique and must not collide
     * with the fixed keys (schema/mode/info/numbers/metrics/
     * flight_recorder).
     */
    Table& addTable(const std::string& name, std::vector<Column> columns);

    /** Borrow the registry / recorder to snapshot at toJson() time. */
    void attachMetrics(const MetricsRegistry* metrics);
    void attachRecorder(const FlightRecorder* recorder);

    const std::string& mode() const { return mode_; }

    /**
     * Aligned "key  value" lines for the info and numbers in fill
     * order, then each table under a "name:" heading.
     */
    std::string toText() const;

    std::string toJson() const;
    /** Write toJson() to @p path; throws ConfigError on failure. */
    void writeFile(const std::string& path) const;

private:
    /** An info string or a number, in fill order. */
    struct Entry
    {
        std::string key;
        bool numeric = false;
        std::string info;
        double number = 0.0;
        Unit unit = Unit::Plain;
    };
    Entry& entry(const std::string& key, bool numeric);

    std::string mode_;
    std::vector<Entry> entries_;
    std::deque<Table> tables_; ///< deque: addTable's references stay valid
    const MetricsRegistry* metrics_ = nullptr;
    const FlightRecorder* recorder_ = nullptr;
};

} // namespace themis::stats::telemetry

#endif // THEMIS_STATS_TELEMETRY_RUN_REPORT_HPP
