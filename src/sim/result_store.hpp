/**
 * @file
 * Append-only per-cell results store for sharded, resumable sweeps.
 *
 * One store is a JSON-lines journal: every completed grid cell (or
 * --serve query) appends exactly one self-contained record — its
 * canonical config key, named result values, a result fingerprint,
 * and the wall time the evaluation took — followed by a flush, so a
 * crash loses at most the record being written. On open the store
 * replays the journal: complete records index by key (restart skips
 * them — checkpoint/restart), and a partially-written last record
 * (no trailing newline, or bytes that do not parse back) is detected
 * and truncated away before the first new append, so an interrupted
 * run resumes to a byte-identical journal state.
 *
 * Records round-trip doubles exactly ("%.17g" — 17 significant digits
 * reproduce any IEEE double bit pattern), which is what lets the
 * merge of N shard journals be compared *byte-equal* against a
 * 1-process run: canonicalBytes()/canonicalMerge() serialize records
 * sorted by key with the volatile wall-time field dropped, so two
 * runs that simulated the same cells to the same results produce the
 * same canonical bytes regardless of process count, worker threads,
 * completion order, or wall clock.
 */

#ifndef THEMIS_SIM_RESULT_STORE_HPP
#define THEMIS_SIM_RESULT_STORE_HPP

#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace themis::sim {

/** One completed evaluation: a key plus named result values. */
struct ResultRecord
{
    /** Canonical config key (see makeResultKey). */
    std::string key;

    /** Named result values, in a producer-fixed order. */
    std::vector<std::pair<std::string, double>> values;

    /** Result fingerprint (e.g. an epoch FNV-1a; 0 when unused). */
    std::uint64_t fingerprint = 0;

    /** Wall time of the evaluation; volatile, never canonical. */
    double wall_ms = 0.0;

    /** Value by name; nullptr when absent. */
    const double* value(const std::string& name) const;
};

/** FNV-1a 64-bit offset basis of the result fingerprints. */
inline constexpr std::uint64_t kFingerprintBasis = 14695981039346656037ull;

/** Byte-wise FNV-1a over @p n bytes at @p data, continuing @p h. */
std::uint64_t fingerprintBytes(const void* data, std::size_t n,
                               std::uint64_t h = kFingerprintBasis);

/**
 * Result fingerprint of @p values: byte-wise FNV-1a over each name's
 * characters, then the value's in-memory bit pattern. Journals persist
 * it, so the hash must never change.
 */
std::uint64_t fingerprintValues(
    const std::vector<std::pair<std::string, double>>& values);

/**
 * Canonical config key from key=value pairs: pairs sorted by name and
 * joined with ';' ("chunks=8;sched=scf;topo=2D-SW_SW"). Names and
 * values must not contain ';' or '='. The single key constructor used
 * by grid cells, --serve queries and tests, so a --serve lookup hits
 * the record a sharded grid wrote.
 */
std::string
makeResultKey(std::vector<std::pair<std::string, std::string>> pairs);

/**
 * Serialize @p rec as one JSON line (no trailing newline).
 * @p include_wall selects the journal form; the canonical form drops
 * wall_ms so result bytes are run-invariant.
 */
std::string serializeRecord(const ResultRecord& rec, bool include_wall);

/** Parse a journal line; false (out untouched) on malformed input. */
bool parseRecord(const std::string& line, ResultRecord& out);

/** Append-only journal of ResultRecords; see file comment. */
class ResultStore
{
  public:
    /**
     * Open (creating parent directories as needed) and replay the
     * journal at @p path; anything but a regular file replays as
     * empty. A partially-written trailing record is dropped and the
     * file truncated to the last complete record before the first
     * append.
     */
    explicit ResultStore(std::string path);

    ResultStore(const ResultStore&) = delete;
    ResultStore& operator=(const ResultStore&) = delete;

    const std::string& path() const { return path_; }

    /** Records recovered + appended, in journal order. */
    const std::vector<ResultRecord>& records() const
    {
        return records_;
    }

    std::size_t size() const { return records_.size(); }

    /** True when a record for @p key is present (restart skip test). */
    bool has(const std::string& key) const;

    /** Record for @p key, or nullptr. */
    const ResultRecord* find(const std::string& key) const;

    /**
     * Append one record and flush it to disk. Duplicate keys are a
     * caller bug (resume must skip recorded cells) and panic; a
     * failed open, truncation or write throws ConfigError.
     */
    void append(ResultRecord rec);

    /** True when open() found and discarded a truncated tail. */
    bool recoveredTruncatedTail() const
    {
        return recovered_truncated_;
    }

    /** Canonical bytes of this store (sorted by key, wall-free). */
    std::string canonicalBytes() const;

    /**
     * Canonical bytes of the union of the journals at @p paths —
     * byte-equal to the canonicalBytes() of a 1-process store that
     * simulated the same cells. Duplicate keys across journals must
     * carry bit-identical results (ConfigError otherwise: shards are
     * disjoint by construction, so a conflicting duplicate means the
     * inputs are not shards of one grid).
     */
    static std::string
    canonicalMerge(const std::vector<std::string>& paths);

  private:
    std::string path_;
    std::vector<ResultRecord> records_;
    std::unordered_map<std::string, std::size_t> index_;
    bool recovered_truncated_ = false;
    /** Journal byte length of the valid prefix at open time. */
    std::uint64_t valid_bytes_ = 0;
    /** Lazily opened append stream (truncates the bad tail first). */
    std::ofstream out_;
    bool out_open_ = false;
};

} // namespace themis::sim

#endif // THEMIS_SIM_RESULT_STORE_HPP
