#include "stats/telemetry/json_writer.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace themis::stats::telemetry {

void
JsonWriter::beforeValue()
{
    if (pending_key_) {
        pending_key_ = false;
        return;
    }
    if (!has_elem_.empty()) {
        if (has_elem_.back())
            out_ += ',';
        has_elem_.back() = true;
    }
}

JsonWriter&
JsonWriter::beginObject()
{
    beforeValue();
    out_ += '{';
    has_elem_.push_back(false);
    return *this;
}

JsonWriter&
JsonWriter::endObject()
{
    THEMIS_ASSERT(!has_elem_.empty(), "endObject with nothing open");
    has_elem_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter&
JsonWriter::beginArray()
{
    beforeValue();
    out_ += '[';
    has_elem_.push_back(false);
    return *this;
}

JsonWriter&
JsonWriter::endArray()
{
    THEMIS_ASSERT(!has_elem_.empty(), "endArray with nothing open");
    has_elem_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter&
JsonWriter::key(const std::string& k)
{
    THEMIS_ASSERT(!pending_key_, "key after key");
    if (!has_elem_.empty()) {
        if (has_elem_.back())
            out_ += ',';
        has_elem_.back() = true;
    }
    out_ += '"';
    out_ += jsonEscape(k);
    out_ += "\":";
    pending_key_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(const std::string& v)
{
    beforeValue();
    out_ += '"';
    out_ += jsonEscape(v);
    out_ += '"';
    return *this;
}

JsonWriter&
JsonWriter::value(const char* v)
{
    return value(std::string(v));
}

JsonWriter&
JsonWriter::value(double v)
{
    beforeValue();
    if (!std::isfinite(v)) {
        out_ += "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::value(int v)
{
    beforeValue();
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", v);
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::value(bool v)
{
    beforeValue();
    out_ += v ? "true" : "false";
    return *this;
}

std::string
JsonWriter::str() const
{
    THEMIS_ASSERT(has_elem_.empty() && !pending_key_,
                  "unbalanced JSON document");
    return out_;
}

} // namespace themis::stats::telemetry
