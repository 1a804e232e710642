#include "stats/trace_writer.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace themis::stats {

namespace {

/**
 * Append a microsecond timestamp. %.17g keeps small values compact
 * ("1", not "1.000000") and large multi-epoch offsets exact.
 */
void
appendUs(std::string& out, TimeNs ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", ns / 1.0e3);
    out += buf;
}

} // namespace

void
TraceWriter::record(int dim, std::string name, TimeNs start,
                    TimeNs end)
{
    span(kFabricPid, dim + 1, std::move(name), start, end);
}

void
TraceWriter::recordFabricOp(int dim, const char* label,
                            std::size_t len, TimeNs start, TimeNs end)
{
    THEMIS_ASSERT(end >= start, "trace event ends before it starts");
    auto& e = events_.emplace_back();
    e.phase = 'X';
    e.pid = kFabricPid;
    e.tid = dim + 1;
    e.name.assign(label, len);
    e.start = time_base_ + start;
    e.dur = end - start;
}

void
TraceWriter::span(int pid, int tid, std::string name, TimeNs start,
                  TimeNs end)
{
    spanAbs(pid, tid, std::move(name), time_base_ + start,
            time_base_ + end);
}

void
TraceWriter::spanAbs(int pid, int tid, std::string name, TimeNs start,
                     TimeNs end)
{
    THEMIS_ASSERT(end >= start, "trace event ends before it starts");
    events_.push_back(
        Event{'X', pid, tid, std::move(name), start, end - start});
}

void
TraceWriter::instant(int pid, int tid, std::string name, TimeNs at)
{
    instantAbs(pid, tid, std::move(name), time_base_ + at);
}

void
TraceWriter::instantAbs(int pid, int tid, std::string name, TimeNs at)
{
    events_.push_back(Event{'i', pid, tid, std::move(name), at, 0.0});
    ++instant_count_;
}

void
TraceWriter::setProcessName(int pid, const std::string& name)
{
    process_names_[pid] = name;
}

void
TraceWriter::setThreadName(int pid, int tid, const std::string& name)
{
    thread_names_[{pid, tid}] = name;
}

void
TraceWriter::advanceTimeBase(TimeNs elapsed)
{
    THEMIS_ASSERT(elapsed >= 0.0, "trace time base moved backwards");
    time_base_ += elapsed;
}

std::string
TraceWriter::toJson() const
{
    std::string out;
    out.reserve(events_.size() * 96 + 256);
    out += "{\"traceEvents\":[";
    bool first = true;
    const auto sep = [&] {
        if (!first)
            out += ',';
        first = false;
    };

    // Process-name metadata rows.
    for (const auto& [pid, name] : process_names_) {
        sep();
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"process_name\",\"ph\":\"M\","
                      "\"pid\":%d,\"args\":{\"name\":\"",
                      pid);
        out += buf;
        out += jsonEscape(name);
        out += "\"}}";
    }

    // Thread-name metadata rows: auto-named fabric dims (back-compat)
    // unless explicitly overridden, then every explicit name.
    int max_dim = -1;
    for (const auto& e : events_)
        if (e.pid == kFabricPid && e.tid - 1 > max_dim)
            max_dim = e.tid - 1;
    for (int d = 0; d <= max_dim; ++d) {
        if (thread_names_.count({kFabricPid, d + 1}) != 0)
            continue;
        sep();
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread_name\",\"ph\":\"M\","
                      "\"pid\":%d,\"tid\":%d,"
                      "\"args\":{\"name\":\"dim%d\"}}",
                      kFabricPid, d + 1, d + 1);
        out += buf;
    }
    for (const auto& [key, name] : thread_names_) {
        sep();
        char buf[80];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread_name\",\"ph\":\"M\","
                      "\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"",
                      key.first, key.second);
        out += buf;
        out += jsonEscape(name);
        out += "\"}}";
    }

    for (const auto& e : events_) {
        sep();
        out += "{\"name\":\"";
        out += jsonEscape(e.name);
        out += "\",\"ph\":\"";
        out += e.phase;
        out += '"';
        if (e.phase == 'i')
            out += ",\"s\":\"g\"";
        char buf[48];
        std::snprintf(buf, sizeof(buf), ",\"pid\":%d,\"tid\":%d,\"ts\":",
                      e.pid, e.tid);
        out += buf;
        appendUs(out, e.start);
        if (e.phase == 'X') {
            out += ",\"dur\":";
            appendUs(out, e.dur);
        }
        out += '}';
    }
    out += "]}";
    return out;
}

void
TraceWriter::writeFile(const std::string& path) const
{
    themis::writeFile(path, toJson());
}

} // namespace themis::stats
