#include "stats/telemetry/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "stats/summary.hpp"
#include "stats/telemetry/flight_recorder.hpp"
#include "stats/telemetry/json_writer.hpp"
#include "stats/telemetry/metrics.hpp"

namespace themis::stats::telemetry {

namespace {

/** The text form of @p value in @p unit. */
std::string
formatValue(double value, Unit unit)
{
    switch (unit) {
    case Unit::Count:
        return fmtDouble(value, 0);
    case Unit::Time:
        return fmtTime(value);
    case Unit::Bytes:
        return fmtBytes(value);
    case Unit::Percent:
        // A validation error or an idle share should read as exactly
        // zero or not, which one decimal cannot show.
        return std::abs(value) < 1e-3 ? fmtDouble(100.0 * value, 4) + "%"
                                      : fmtPercent(value);
    case Unit::Factor:
        return fmtDouble(value, 2) + "x";
    case Unit::Plain:
        break;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

} // namespace

void
RunReport::Table::addRow(std::vector<Cell> cells)
{
    THEMIS_ASSERT(cells.size() == columns.size(),
                  "table " << name << ": row of " << cells.size()
                           << " cells, " << columns.size() << " columns");
    rows.push_back(std::move(cells));
}

RunReport::RunReport(std::string mode)
    : mode_(std::move(mode))
{
}

RunReport::Entry&
RunReport::entry(const std::string& key, bool numeric)
{
    for (Entry& e : entries_)
        if (e.key == key && e.numeric == numeric)
            return e;
    Entry& e = entries_.emplace_back();
    e.key = key;
    e.numeric = numeric;
    return e;
}

void
RunReport::setInfo(const std::string& key, const std::string& value)
{
    entry(key, false).info = value;
}

void
RunReport::setNumber(const std::string& key, double value, Unit unit)
{
    Entry& e = entry(key, true);
    e.number = value;
    e.unit = unit;
}

RunReport::Table&
RunReport::addTable(const std::string& name, std::vector<Column> columns)
{
    THEMIS_ASSERT(name != "schema" && name != "mode" && name != "info" &&
                      name != "numbers" && name != "metrics" &&
                      name != "flight_recorder",
                  "table name collides with fixed key: " << name);
    for (const Table& t : tables_)
        THEMIS_ASSERT(t.name != name, "duplicate report table: " << name);
    return tables_.emplace_back(Table{name, std::move(columns), {}});
}

void
RunReport::attachMetrics(const MetricsRegistry* metrics)
{
    metrics_ = metrics;
}

void
RunReport::attachRecorder(const FlightRecorder* recorder)
{
    recorder_ = recorder;
}

std::string
RunReport::toText() const
{
    std::size_t width = 0;
    for (const Entry& e : entries_)
        width = std::max(width, e.key.size());
    std::string out;
    for (const Entry& e : entries_)
        out += e.key + std::string(width - e.key.size() + 2, ' ') +
               (e.numeric ? formatValue(e.number, e.unit) : e.info) + "\n";
    for (const Table& t : tables_) {
        std::vector<std::size_t> shown;
        std::vector<std::string> titles;
        for (std::size_t c = 0; c < t.columns.size(); ++c)
            if (!t.columns[c].title.empty()) {
                shown.push_back(c);
                titles.push_back(t.columns[c].title);
            }
        TextTable text(titles);
        for (const auto& row : t.rows) {
            std::vector<std::string> cells;
            for (std::size_t c : shown) {
                const Cell& cell = row[c];
                if (!cell.present)
                    cells.push_back("-");
                else if (const auto* s = std::get_if<std::string>(&cell.value))
                    cells.push_back(*s);
                else
                    cells.push_back(formatValue(std::get<double>(cell.value),
                                                t.columns[c].unit));
            }
            text.addRow(cells);
        }
        out += (out.empty() ? "" : "\n") + t.name + ":\n" + text.render();
    }
    return out;
}

std::string
RunReport::toJson() const
{
    std::vector<const Entry*> sorted;
    for (const Entry& e : entries_)
        sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry* a, const Entry* b) { return a->key < b->key; });

    JsonWriter w;
    w.beginObject();
    w.key("schema").value(kSchemaVersion);
    w.key("mode").value(mode_);

    w.key("info").beginObject();
    for (const Entry* e : sorted)
        if (!e->numeric)
            w.key(e->key).value(e->info);
    w.endObject();

    w.key("numbers").beginObject();
    for (const Entry* e : sorted)
        if (e->numeric)
            w.key(e->key).value(e->number);
    w.endObject();

    for (const Table& t : tables_) {
        w.key(t.name).beginArray();
        for (const auto& row : t.rows) {
            w.beginObject();
            std::string group; // the open "a" of "a.b" keys
            for (std::size_t c = 0; c < row.size(); ++c) {
                const std::string& key = t.columns[c].key;
                const std::size_t dot = key.find('.');
                const std::string g =
                    dot == std::string::npos ? "" : key.substr(0, dot);
                if (g != group) {
                    if (!group.empty())
                        w.endObject();
                    if (!g.empty())
                        w.key(g).beginObject();
                    group = g;
                }
                w.key(dot == std::string::npos ? key : key.substr(dot + 1));
                std::visit([&](const auto& v) { w.value(v); }, row[c].value);
            }
            if (!group.empty())
                w.endObject();
            w.endObject();
        }
        w.endArray();
    }

    w.key("metrics").beginObject();
    {
        w.key("counters").beginObject();
        if (metrics_ != nullptr)
            for (const auto& [name, c] : metrics_->counters())
                w.key(name).value(c.value());
        w.endObject();

        w.key("gauges").beginObject();
        if (metrics_ != nullptr)
            for (const auto& [name, g] : metrics_->gauges())
                w.key(name).value(g.value());
        w.endObject();

        w.key("histograms").beginObject();
        if (metrics_ != nullptr) {
            for (const auto& [name, h] : metrics_->histograms()) {
                w.key(name).beginObject();
                w.key("count").value(h.count());
                w.key("sum").value(h.sum());
                w.key("min").value(h.min());
                w.key("max").value(h.max());
                w.key("mean").value(h.mean());
                w.key("p50").value(h.percentile(0.50));
                w.key("p90").value(h.percentile(0.90));
                w.key("p99").value(h.percentile(0.99));
                w.endObject();
            }
        }
        w.endObject();
    }
    w.endObject();

    w.key("flight_recorder").beginObject();
    if (recorder_ != nullptr) {
        w.key("capacity").value(
            static_cast<std::uint64_t>(recorder_->capacity()));
        w.key("recorded").value(recorder_->totalRecorded());
        w.key("dropped").value(recorder_->dropped());
        w.key("events").beginArray();
        for (const FlightEvent& e : recorder_->events()) {
            w.beginObject();
            w.key("at").value(e.at);
            w.key("kind").value(flightKindName(e.kind));
            w.key("dim").value(e.dim);
            w.key("aux").value(e.aux);
            w.key("value").value(e.value);
            w.endObject();
        }
        w.endArray();
    } else {
        w.key("capacity").value(0);
        w.key("recorded").value(std::uint64_t{0});
        w.key("dropped").value(std::uint64_t{0});
        w.key("events").beginArray().endArray();
    }
    w.endObject();

    w.endObject();
    return w.str() + "\n";
}

void
RunReport::writeFile(const std::string& path) const
{
    themis::writeFile(path, toJson());
}

} // namespace themis::stats::telemetry
