/**
 * @file
 * Tests for the sweep scale-out layer: canonical result keys, exact
 * record round-trips, the crash-safe append-only ResultStore
 * (truncated-tail recovery, checkpoint resume), deterministic shard
 * partitioning, and the bit-identical shard-merge / interrupted-
 * resume guarantees the sharded grid runner is built on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/grid_shard.hpp"
#include "sim/result_store.hpp"

using namespace themis;
using sim::ResultRecord;
using sim::ResultStore;
using sim::ShardSpec;

namespace {

/** Fresh path under the system temp dir (removed if left over). */
std::string
tempStore(const std::string& name)
{
    const auto path = std::filesystem::temp_directory_path() /
                      ("themis_result_store_test_" + name + ".jsonl");
    std::filesystem::remove(path);
    return path.string();
}

/** Append raw bytes (no newline) — a record torn mid-write. */
void
appendTornBytes(const std::string& path, const std::string& bytes)
{
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs(bytes.c_str(), f);
    std::fclose(f);
}

/**
 * Deterministic synthetic "cell evaluation" — irrational-ish doubles
 * so exact round-trips actually exercise all 17 digits.
 */
ResultRecord
syntheticCell(std::size_t i)
{
    ResultRecord rec;
    rec.key = sim::makeResultKey(
        {{"cell", std::to_string(i)}, {"grid", "synthetic"}});
    rec.values = {{"time_ns", 1e6 / 3.0 * static_cast<double>(i + 1)},
                  {"util", std::sqrt(static_cast<double>(i) + 0.5)}};
    rec.fingerprint = 0x9e3779b97f4a7c15ull * (i + 1);
    rec.wall_ms = 0.25 * static_cast<double>(i); // volatile
    return rec;
}

TEST(ResultKey, SortsFieldsAndJoins)
{
    EXPECT_EQ(sim::makeResultKey({{"topo", "2D-SW_SW"},
                                  {"chunks", "8"},
                                  {"sched", "scf"}}),
              "chunks=8;sched=scf;topo=2D-SW_SW");
    // Field order in the call must not matter — the key is canonical.
    EXPECT_EQ(sim::makeResultKey({{"b", "2"}, {"a", "1"}}),
              sim::makeResultKey({{"a", "1"}, {"b", "2"}}));
}

TEST(ResultFingerprint, MatchesPersistedJournals)
{
    // Journals persist this hash, so it must never change: byte-wise
    // FNV-1a from the standard 64-bit basis over each name, then the
    // value's bit pattern. The expected value was written by the CLI
    // into the journals under tests/golden/cli (serve_fresh).
    const std::vector<std::pair<std::string, double>> values = {
        {"time_ns", 876385.546875}, {"util", 0.9119488024989002}};
    EXPECT_EQ(sim::fingerprintValues(values), 0xc460c75ff35a8d57ull);
    EXPECT_EQ(sim::fingerprintValues({}), 14695981039346656037ull);
    const char ab[] = {'a', 'b'};
    EXPECT_EQ(sim::fingerprintBytes(ab, 2),
              sim::fingerprintBytes(ab + 1, 1, sim::fingerprintBytes(ab, 1)));
}

TEST(ResultRecordCodec, RoundTripsDoublesExactly)
{
    ResultRecord rec;
    rec.key = "chunks=8;topo=2D-SW_SW";
    rec.values = {{"time_ns", 1.0 / 3.0},
                  {"tiny", 4.9406564584124654e-324},
                  {"neg", -123456.78901234567},
                  {"util", 0.61725266450417049}};
    rec.fingerprint = 0xf03c73e950049fd9ull;
    rec.wall_ms = 0.1714709997177124;

    ResultRecord back;
    ASSERT_TRUE(sim::parseRecord(sim::serializeRecord(rec, true),
                                 back));
    EXPECT_EQ(back.key, rec.key);
    EXPECT_EQ(back.fingerprint, rec.fingerprint);
    ASSERT_EQ(back.values.size(), rec.values.size());
    for (std::size_t i = 0; i < rec.values.size(); ++i) {
        EXPECT_EQ(back.values[i].first, rec.values[i].first);
        // Bit equality, not approximate: "%.17g" must reproduce the
        // exact IEEE double, that is what byte-stable merges rest on.
        EXPECT_EQ(std::memcmp(&back.values[i].second,
                              &rec.values[i].second, sizeof(double)),
                  0);
    }
    EXPECT_EQ(std::memcmp(&back.wall_ms, &rec.wall_ms,
                          sizeof(double)),
              0);
}

TEST(ResultRecordCodec, CanonicalFormDropsWallTime)
{
    ResultRecord rec = syntheticCell(3);
    const std::string canonical = sim::serializeRecord(rec, false);
    EXPECT_EQ(canonical.find("wall_ms"), std::string::npos);
    // Two evaluations differing only in wall time serialize
    // canonically byte-equal.
    ResultRecord other = rec;
    other.wall_ms = 99.0;
    EXPECT_EQ(canonical, sim::serializeRecord(other, false));
    // ... and the canonical form still parses (wall_ms optional).
    ResultRecord back;
    EXPECT_TRUE(sim::parseRecord(canonical, back));
    EXPECT_EQ(back.key, rec.key);
}

TEST(ResultRecordCodec, RejectsMalformedLines)
{
    const std::string valid =
        sim::serializeRecord(syntheticCell(0), true);
    ResultRecord out;
    EXPECT_FALSE(sim::parseRecord("", out));
    EXPECT_FALSE(sim::parseRecord("not json", out));
    EXPECT_FALSE(sim::parseRecord("{\"key\": \"unterminated", out));
    // Every proper prefix of a valid line is a torn record.
    for (std::size_t n : {valid.size() - 1, valid.size() / 2,
                          std::size_t{1}})
        EXPECT_FALSE(sim::parseRecord(valid.substr(0, n), out))
            << "prefix of " << n << " bytes parsed";
    // Trailing garbage after a complete record is rejected too.
    EXPECT_FALSE(sim::parseRecord(valid + "x", out));
}

TEST(ResultStoreJournal, PersistsAndResumesRecords)
{
    const std::string path = tempStore("persist");
    {
        ResultStore store(path);
        EXPECT_EQ(store.size(), 0u);
        store.append(syntheticCell(0));
        store.append(syntheticCell(1));
    }
    ResultStore store(path);
    EXPECT_FALSE(store.recoveredTruncatedTail());
    ASSERT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.has(syntheticCell(0).key));
    EXPECT_TRUE(store.has(syntheticCell(1).key));
    EXPECT_FALSE(store.has("cell=2;grid=synthetic"));
    const ResultRecord* rec = store.find(syntheticCell(1).key);
    ASSERT_NE(rec, nullptr);
    const double* time = rec->value("time_ns");
    ASSERT_NE(time, nullptr);
    EXPECT_EQ(*time, syntheticCell(1).values[0].second);
    std::filesystem::remove(path);
}

TEST(ResultStoreJournal, DropsTruncatedTailAndResumesCleanly)
{
    const std::string path = tempStore("torn");
    {
        ResultStore store(path);
        store.append(syntheticCell(0));
        store.append(syntheticCell(1));
    }
    // A crash mid-append leaves a partial record with no newline.
    appendTornBytes(path, "{\"key\": \"cell=2;grid=synth");
    {
        ResultStore store(path);
        EXPECT_TRUE(store.recoveredTruncatedTail());
        ASSERT_EQ(store.size(), 2u); // the torn record is not a cell
        store.append(syntheticCell(2)); // truncates the tail first
    }
    // Reopening sees exactly records 0..2, no recovery needed.
    ResultStore store(path);
    EXPECT_FALSE(store.recoveredTruncatedTail());
    ASSERT_EQ(store.size(), 3u);
    EXPECT_TRUE(store.has(syntheticCell(2).key));

    // A complete-but-corrupt line (newline present, bad bytes) is
    // also dropped.
    appendTornBytes(path, "garbage that is not a record\n");
    ResultStore reopened(path);
    EXPECT_TRUE(reopened.recoveredTruncatedTail());
    EXPECT_EQ(reopened.size(), 3u);
    std::filesystem::remove(path);
}

TEST(ResultStoreJournal, FailedAppendThrowsNamingThePath)
{
    // A device replays as an empty store (reading /dev/full never
    // ends a line), and its failed write is a ConfigError.
    ResultStore store("/dev/full");
    EXPECT_TRUE(store.records().empty());
    try {
        store.append(syntheticCell(0));
        ADD_FAILURE() << "append to a full device did not throw";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("'/dev/full'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardSpecTest, ParsesValidSpecs)
{
    const ShardSpec s = sim::parseShardSpec("1/4");
    EXPECT_EQ(s.index, 1);
    EXPECT_EQ(s.count, 4);
    EXPECT_FALSE(s.whole());
    EXPECT_TRUE(sim::parseShardSpec("0/1").whole());
}

TEST(ShardSpecTest, RejectsMalformedSpecsWithDiagnostics)
{
    EXPECT_THROW(sim::parseShardSpec(""), ConfigError);
    EXPECT_THROW(sim::parseShardSpec("2"), ConfigError);
    EXPECT_THROW(sim::parseShardSpec("x/2"), ConfigError);
    EXPECT_THROW(sim::parseShardSpec("0/y"), ConfigError);
    EXPECT_THROW(sim::parseShardSpec("-1/2"), ConfigError);
    EXPECT_THROW(sim::parseShardSpec("0/0"), ConfigError);
    EXPECT_THROW(sim::parseShardSpec("2/2"), ConfigError);
    EXPECT_THROW(sim::parseShardSpec("1/ 2"), ConfigError);
}

TEST(ShardSpecTest, ShardsPartitionTheCellList)
{
    const std::size_t total = 11;
    std::vector<int> owner(total, -1);
    for (int i = 0; i < 3; ++i) {
        for (std::size_t cell :
             sim::shardCells(total, ShardSpec{i, 3})) {
            ASSERT_LT(cell, total);
            EXPECT_EQ(owner[cell], -1)
                << "cell " << cell << " owned twice";
            owner[cell] = i;
            EXPECT_TRUE((ShardSpec{i, 3}).owns(cell));
        }
    }
    for (std::size_t cell = 0; cell < total; ++cell)
        EXPECT_NE(owner[cell], -1) << "cell " << cell << " unowned";
    // Striding, not contiguous blocks: consecutive cells belong to
    // consecutive shards (cost balancing across a topology-major
    // enumeration).
    EXPECT_EQ(owner[0], 0);
    EXPECT_EQ(owner[1], 1);
    EXPECT_EQ(owner[2], 2);
    EXPECT_EQ(owner[3], 0);
}

TEST(ShardMerge, TwoShardsMergeByteIdenticalToOneProcess)
{
    const std::size_t cells = 9;
    const std::string one_path = tempStore("merge_one");
    const std::string s0_path = tempStore("merge_s0");
    const std::string s1_path = tempStore("merge_s1");
    {
        ResultStore one(one_path);
        for (std::size_t i = 0; i < cells; ++i)
            one.append(syntheticCell(i));
        ResultStore s0(s0_path), s1(s1_path);
        for (std::size_t i : sim::shardCells(cells, ShardSpec{0, 2}))
            s0.append(syntheticCell(i));
        for (std::size_t i : sim::shardCells(cells, ShardSpec{1, 2})) {
            // Shards run in different processes at different times:
            // wall clocks differ, results do not.
            ResultRecord rec = syntheticCell(i);
            rec.wall_ms += 1234.5;
            s1.append(std::move(rec));
        }
    }
    const std::string merged =
        ResultStore::canonicalMerge({s0_path, s1_path});
    EXPECT_EQ(merged, ResultStore(one_path).canonicalBytes());
    // Merge order must not matter either.
    EXPECT_EQ(merged, ResultStore::canonicalMerge({s1_path, s0_path}));
    std::filesystem::remove(one_path);
    std::filesystem::remove(s0_path);
    std::filesystem::remove(s1_path);
}

TEST(ShardMerge, RejectsConflictingDuplicates)
{
    const std::string a_path = tempStore("conflict_a");
    const std::string b_path = tempStore("conflict_b");
    {
        ResultStore a(a_path), b(b_path);
        a.append(syntheticCell(0));
        ResultRecord conflicting = syntheticCell(0);
        conflicting.values[0].second += 1.0; // a real disagreement
        b.append(std::move(conflicting));
    }
    EXPECT_THROW(ResultStore::canonicalMerge({a_path, b_path}),
                 ConfigError);
    std::filesystem::remove(a_path);
    std::filesystem::remove(b_path);
}

TEST(CheckpointResume, InterruptedRunResumesBitIdentical)
{
    const std::size_t cells = 8;
    const std::string full_path = tempStore("resume_full");
    const std::string int_path = tempStore("resume_interrupted");
    {
        // Uninterrupted reference run.
        ResultStore full(full_path);
        for (std::size_t i = 0; i < cells; ++i)
            full.append(syntheticCell(i));
    }
    {
        // Interrupted run: 3 cells recorded, then a crash tears the
        // 4th record mid-write.
        ResultStore store(int_path);
        for (std::size_t i = 0; i < 3; ++i)
            store.append(syntheticCell(i));
    }
    appendTornBytes(
        int_path,
        sim::serializeRecord(syntheticCell(3), true).substr(0, 40));
    {
        // Restart: recorded cells are skipped, the torn record is
        // re-evaluated, the rest complete.
        ResultStore store(int_path);
        EXPECT_TRUE(store.recoveredTruncatedTail());
        EXPECT_EQ(store.size(), 3u);
        for (std::size_t i = 0; i < cells; ++i)
            if (!store.has(syntheticCell(i).key))
                store.append(syntheticCell(i));
        EXPECT_EQ(store.size(), cells);
    }
    EXPECT_EQ(ResultStore(int_path).canonicalBytes(),
              ResultStore(full_path).canonicalBytes());
    // The journals themselves are byte-identical too once the
    // volatile wall times agree (same records, same order) — the
    // canonical comparison is what the CLI-level merge uses.
    EXPECT_EQ(ResultStore::canonicalMerge({int_path}),
              ResultStore::canonicalMerge({full_path}));
    std::filesystem::remove(full_path);
    std::filesystem::remove(int_path);
}

} // namespace
