#include "sim/result_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "common/error.hpp"

namespace themis::sim {

namespace {

/** JSON string escape (ASCII control chars, quote, backslash). */
std::string
escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** "%.17g" — the shortest format that round-trips every double. */
std::string
fmtExact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Minimal cursor over one journal line. The store only ever parses
 * lines it (or a sibling shard) serialized, so the grammar is the
 * exact record shape — anything else is a truncated or corrupt tail
 * and parsing simply fails.
 */
struct Cursor
{
    const std::string& s;
    std::size_t pos = 0;

    bool
    lit(const char* text)
    {
        const std::size_t n = std::char_traits<char>::length(text);
        if (s.compare(pos, n, text) != 0)
            return false;
        pos += n;
        return true;
    }

    bool
    quoted(std::string& out)
    {
        if (pos >= s.size() || s[pos] != '"')
            return false;
        ++pos;
        out.clear();
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c == '\\') {
                if (pos >= s.size())
                    return false;
                const char esc = s[pos++];
                switch (esc) {
                case '"': c = '"'; break;
                case '\\': c = '\\'; break;
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case 'u': {
                    if (pos + 4 > s.size())
                        return false;
                    const std::string hex = s.substr(pos, 4);
                    if (hex.find_first_not_of("0123456789abcdefABCDEF") !=
                        std::string::npos)
                        return false;
                    c = static_cast<char>(
                        std::strtol(hex.c_str(), nullptr, 16));
                    pos += 4;
                    break;
                }
                default: return false;
                }
            }
            out += c;
        }
        if (pos >= s.size())
            return false;
        ++pos; // closing quote
        return true;
    }

    bool
    number(double& out)
    {
        const char* start = s.c_str() + pos;
        char* end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            return false;
        pos += static_cast<std::size_t>(end - start);
        out = v;
        return true;
    }

    bool
    hex64(std::string& out)
    {
        out.clear();
        while (pos < s.size() &&
               std::string("0123456789abcdef").find(s[pos]) !=
                   std::string::npos)
            out += s[pos++];
        return !out.empty() && out.size() <= 16;
    }
};

} // namespace

std::uint64_t
fingerprintBytes(const void* data, std::size_t n, std::uint64_t h)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
fingerprintValues(const std::vector<std::pair<std::string, double>>& values)
{
    std::uint64_t h = kFingerprintBasis;
    for (const auto& [name, v] : values) {
        h = fingerprintBytes(name.data(), name.size(), h);
        h = fingerprintBytes(&v, sizeof(v), h);
    }
    return h;
}

const double*
ResultRecord::value(const std::string& name) const
{
    for (const auto& [n, v] : values)
        if (n == name)
            return &v;
    return nullptr;
}

std::string
makeResultKey(std::vector<std::pair<std::string, std::string>> pairs)
{
    std::sort(pairs.begin(), pairs.end());
    std::string key;
    for (const auto& [name, value] : pairs) {
        THEMIS_ASSERT(name.find_first_of(";=") == std::string::npos &&
                          value.find_first_of(";=") == std::string::npos,
                      "result key field '" << name << "=" << value
                                           << "' contains a "
                                              "reserved ';' or '='");
        if (!key.empty())
            key += ';';
        key += name;
        key += '=';
        key += value;
    }
    return key;
}

std::string
serializeRecord(const ResultRecord& rec, bool include_wall)
{
    std::string out = "{\"key\": \"" + escape(rec.key) +
                      "\", \"values\": {";
    bool first = true;
    for (const auto& [name, value] : rec.values) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + escape(name) + "\": " + fmtExact(value);
    }
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(rec.fingerprint));
    out += "}, \"fingerprint\": \"";
    out += fp;
    out += "\"";
    if (include_wall)
        out += ", \"wall_ms\": " + fmtExact(rec.wall_ms);
    out += "}";
    return out;
}

bool
parseRecord(const std::string& line, ResultRecord& out)
{
    ResultRecord rec;
    Cursor c{line};
    if (!c.lit("{\"key\": ") || !c.quoted(rec.key) ||
        !c.lit(", \"values\": {"))
        return false;
    bool first = true;
    while (!c.lit("}")) {
        if (!first && !c.lit(", "))
            return false;
        first = false;
        std::string name;
        double value = 0.0;
        if (!c.quoted(name) || !c.lit(": ") || !c.number(value))
            return false;
        rec.values.emplace_back(std::move(name), value);
    }
    std::string fp;
    if (!c.lit(", \"fingerprint\": \"") || !c.hex64(fp) ||
        !c.lit("\""))
        return false;
    rec.fingerprint = std::strtoull(fp.c_str(), nullptr, 16);
    if (c.lit(", \"wall_ms\": ")) {
        if (!c.number(rec.wall_ms))
            return false;
    }
    if (!c.lit("}") || c.pos != line.size())
        return false;
    out = std::move(rec);
    return true;
}

ResultStore::ResultStore(std::string path) : path_(std::move(path))
{
    const std::filesystem::path p{path_};
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
    }
    // Only a regular file holds records: reading a device such as
    // /dev/full or /dev/zero would never reach a newline.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(p, ec))
        return; // fresh store
    std::ifstream in(path_, std::ios::binary);
    if (!in.is_open())
        return;
    std::string line;
    while (std::getline(in, line)) {
        // getline strips the '\n'; eof without a delimiter means the
        // final record never finished writing.
        const bool complete = !in.eof();
        ResultRecord rec;
        if (!complete || !parseRecord(line, rec)) {
            recovered_truncated_ = true;
            break;
        }
        THEMIS_ASSERT(index_.count(rec.key) == 0,
                      "duplicate key in results journal " << path_
                                                          << ": "
                                                          << rec.key);
        valid_bytes_ += line.size() + 1;
        index_.emplace(rec.key, records_.size());
        records_.push_back(std::move(rec));
    }
}

bool
ResultStore::has(const std::string& key) const
{
    return index_.count(key) != 0;
}

const ResultRecord*
ResultStore::find(const std::string& key) const
{
    const auto it = index_.find(key);
    if (it == index_.end())
        return nullptr;
    return &records_[it->second];
}

void
ResultStore::openJournal()
{
    if (out_open_)
        return;
    // Drop any truncated tail so the journal is exactly the valid
    // prefix plus what this run appends.
    if (recovered_truncated_) {
        std::error_code ec;
        std::filesystem::resize_file(path_, valid_bytes_, ec);
        if (ec)
            THEMIS_FATAL("cannot truncate partial record in '"
                         << path_ << "': " << ec.message());
    }
    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_.is_open())
        THEMIS_FATAL("cannot open results journal '" << path_ << "'");
    out_open_ = true;
}

void
ResultStore::append(ResultRecord rec)
{
    THEMIS_ASSERT(!has(rec.key), "appending duplicate result key '"
                                     << rec.key
                                     << "'; resume must skip "
                                        "recorded cells");
    openJournal();
    const std::string line = serializeRecord(rec, true);
    out_ << line << '\n';
    out_.flush();
    if (!out_.good())
        THEMIS_FATAL("cannot write results journal '" << path_ << "'");
    valid_bytes_ += line.size() + 1;
    index_.emplace(rec.key, records_.size());
    records_.push_back(std::move(rec));
}

std::string
ResultStore::canonicalBytes() const
{
    std::map<std::string, const ResultRecord*> by_key;
    for (const auto& rec : records_)
        by_key.emplace(rec.key, &rec);
    std::string out;
    for (const auto& [key, rec] : by_key)
        out += serializeRecord(*rec, false) + "\n";
    return out;
}

std::string
ResultStore::canonicalMerge(const std::vector<std::string>& paths)
{
    // A shard path that names nothing would otherwise open as an
    // empty store (creating its directory) and silently drop the
    // shard's cells: check every input before touching any.
    for (const std::string& path : paths) {
        std::error_code ec;
        if (!std::filesystem::is_regular_file(path, ec))
            THEMIS_FATAL("merge input '" << path
                                         << "' is not an existing "
                                            "regular file");
    }
    std::map<std::string, ResultRecord> by_key;
    for (const std::string& path : paths) {
        ResultStore store(path);
        for (const auto& rec : store.records()) {
            const auto it = by_key.find(rec.key);
            if (it == by_key.end()) {
                by_key.emplace(rec.key, rec);
                continue;
            }
            if (serializeRecord(it->second, false) !=
                serializeRecord(rec, false))
                THEMIS_FATAL(
                    "conflicting results for key '"
                    << rec.key << "' while merging " << path
                    << ": shards of one grid are disjoint, so the "
                       "inputs disagree on a cell's results");
        }
    }
    std::string out;
    for (const auto& [key, rec] : by_key)
        out += serializeRecord(rec, false) + "\n";
    return out;
}

} // namespace themis::sim
