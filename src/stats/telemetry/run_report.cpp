#include "stats/telemetry/run_report.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "stats/telemetry/flight_recorder.hpp"
#include "stats/telemetry/json_writer.hpp"
#include "stats/telemetry/metrics.hpp"

namespace themis::stats::telemetry {

RunReport::RunReport(std::string mode)
    : mode_(std::move(mode))
{
}

void
RunReport::setInfo(const std::string& key, const std::string& value)
{
    info_[key] = value;
}

void
RunReport::setNumber(const std::string& key, double value)
{
    numbers_[key] = value;
}

void
RunReport::addSection(const std::string& name, const std::string& json)
{
    THEMIS_ASSERT(name != "schema" && name != "mode" &&
                      name != "info" && name != "numbers" &&
                      name != "metrics" && name != "flight_recorder",
                  "section name collides with fixed key: " << name);
    for (const auto& [existing, unused] : sections_)
        THEMIS_ASSERT(existing != name,
                      "duplicate report section: " << name);
    sections_.emplace_back(name, json);
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
RunReport::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value(kSchemaVersion);
    w.key("mode").value(mode_);

    w.key("info").beginObject();
    for (const auto& [k, v] : info_)
        w.key(k).value(v);
    w.endObject();

    w.key("numbers").beginObject();
    for (const auto& [k, v] : numbers_)
        w.key(k).value(v);
    w.endObject();

    for (const auto& [name, json] : sections_)
        w.key(name).raw(json);

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
