/**
 * @file
 * Small string/formatting helpers shared by reports and benches.
 */

#ifndef THEMIS_COMMON_STRING_UTIL_HPP
#define THEMIS_COMMON_STRING_UTIL_HPP

#include <string>
#include <vector>

#include "common/units.hpp"

namespace themis {

/** Split @p s on @p sep, keeping empty fields. */
std::vector<std::string> split(const std::string& s, char sep);

/** Join @p parts with @p sep. */
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/** printf-style double with fixed precision. */
std::string fmtDouble(double v, int precision = 2);

/** Human-readable data size, e.g. "256.00 MB". */
std::string fmtBytes(Bytes b);

/** Human-readable time, e.g. "1.53 ms" / "421.7 us". */
std::string fmtTime(TimeNs t);

/** Human-readable bandwidth in Gbit/s. */
std::string fmtGbps(Bandwidth bw);

/** Percentage with one decimal, e.g. "95.1%". */
std::string fmtPercent(double fraction);

/** Lower-case copy (ASCII). */
std::string toLower(std::string s);

/**
 * JSON string-literal escape of @p s (no surrounding quotes). Handles
 * quotes, backslashes and every control character below 0x20 (the
 * common ones as \n-style shorthands, the rest as \u00XX); other bytes
 * pass through untouched, so UTF-8 payloads survive.
 */
std::string jsonEscape(const std::string& s);

/**
 * Write @p bytes to @p path, replacing it. Throws ConfigError naming
 * the path when the open, the write or the close fails.
 */
void writeFile(const std::string& path, const std::string& bytes);

} // namespace themis

#endif // THEMIS_COMMON_STRING_UTIL_HPP
