#include "common/string_util.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace themis {

std::vector<std::string>
split(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
join(const std::vector<std::string>& parts, const std::string& sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtBytes(Bytes b)
{
    if (b >= kGB)
        return fmtDouble(b / kGB, 2) + " GB";
    if (b >= kMB)
        return fmtDouble(b / kMB, 2) + " MB";
    if (b >= 1.0e3)
        return fmtDouble(b / 1.0e3, 2) + " KB";
    return fmtDouble(b, 0) + " B";
}

std::string
fmtTime(TimeNs t)
{
    if (t >= kSec)
        return fmtDouble(t / kSec, 3) + " s";
    if (t >= kMs)
        return fmtDouble(t / kMs, 3) + " ms";
    if (t >= kUs)
        return fmtDouble(t / kUs, 1) + " us";
    return fmtDouble(t, 1) + " ns";
}

std::string
fmtGbps(Bandwidth bw)
{
    return fmtDouble(bwToGbps(bw), 1) + " Gb/s";
}

std::string
fmtPercent(double fraction)
{
    return fmtDouble(fraction * 100.0, 1) + "%";
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (u < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
toLower(std::string s)
{
    for (char& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        THEMIS_FATAL("cannot open '" << path << "' for writing: "
                                     << std::strerror(errno));
    const bool wrote =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (std::fclose(f) != 0 || !wrote)
        THEMIS_FATAL("cannot write '" << path
                                      << "': " << std::strerror(errno));
}

} // namespace themis
