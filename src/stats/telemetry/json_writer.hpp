/**
 * @file
 * JsonWriter: a minimal streaming JSON builder.
 *
 * The CLI and report emitters previously hand-rolled JSON with printf,
 * which is how the TraceWriter escaping bug slipped in. This writer
 * centralizes comma placement, string escaping (via jsonEscape) and
 * number formatting: doubles print with %.17g so values round-trip
 * exactly, and non-finite values serialize as null (valid JSON, and a
 * visible oddity rather than a parse failure).
 *
 * Usage is push-style with no validation beyond balanced begin/end
 * (asserted): callers are expected to produce well-formed sequences,
 * and the CI smoke steps parse every emitted file with json.tool.
 */

#ifndef THEMIS_STATS_TELEMETRY_JSON_WRITER_HPP
#define THEMIS_STATS_TELEMETRY_JSON_WRITER_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace themis::stats::telemetry {

class JsonWriter
{
public:
    JsonWriter& beginObject();
    JsonWriter& endObject();
    JsonWriter& beginArray();
    JsonWriter& endArray();

    /** Object key; must be followed by a value or container. */
    JsonWriter& key(const std::string& k);

    JsonWriter& value(const std::string& v);
    JsonWriter& value(const char* v);
    JsonWriter& value(double v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(int v);
    JsonWriter& value(bool v);

    /** Finished document; asserts every container was closed. */
    std::string str() const;

private:
    void beforeValue();

    std::string out_;
    /** One flag per open container: true once it holds an element. */
    std::vector<bool> has_elem_;
    bool pending_key_ = false;
};

} // namespace themis::stats::telemetry

#endif // THEMIS_STATS_TELEMETRY_JSON_WRITER_HPP
