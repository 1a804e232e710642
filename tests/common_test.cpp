/**
 * @file
 * Unit tests for src/common: units, error macros, strings, RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/small_vector.hpp"
#include "common/string_util.hpp"
#include "common/units.hpp"

namespace themis {
namespace {

TEST(Units, GbpsConversionRoundTrips)
{
    EXPECT_DOUBLE_EQ(gbpsToBw(800.0), 100.0); // 800 Gb/s == 100 GB/s
    EXPECT_DOUBLE_EQ(bwToGbps(gbpsToBw(1234.5)), 1234.5);
}

TEST(Units, BandwidthUnitsAreBytesPerNanosecond)
{
    // 100 GB/s moves 100 bytes per nanosecond.
    const Bandwidth bw = gbpsToBw(800.0);
    const TimeNs t = 1.0e6; // 1 ms
    EXPECT_DOUBLE_EQ(bw * t, 100.0e6); // 100 MB in a millisecond
}

TEST(Units, TimeHelpers)
{
    EXPECT_DOUBLE_EQ(nsToUs(1500.0), 1.5);
    EXPECT_DOUBLE_EQ(nsToMs(2.5e6), 2.5);
    EXPECT_DOUBLE_EQ(kSec, 1.0e9);
}

TEST(Units, AlmostEqualTolerances)
{
    EXPECT_TRUE(almostEqual(1.0, 1.0));
    EXPECT_TRUE(almostEqual(1.0e12, 1.0e12 + 1.0));
    EXPECT_FALSE(almostEqual(1.0e12, 1.1e12));
    EXPECT_TRUE(almostEqual(0.0, 1.0e-9));
}

TEST(Error, FatalThrowsConfigError)
{
    EXPECT_THROW(THEMIS_FATAL("bad config " << 42), ConfigError);
}

TEST(Error, FatalMessageContainsPayload)
{
    try {
        THEMIS_FATAL("value was " << 7);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(Error, FatalMessageIsThePayloadAlone)
{
    // The CLI prints what() to the user: no source file or line.
    try {
        THEMIS_FATAL("x");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_STREQ(e.what(), "x");
    }
}

TEST(Error, AssertPassesOnTrue)
{
    THEMIS_ASSERT(1 + 1 == 2, "arithmetic broke");
    SUCCEED();
}

TEST(Error, AssertAbortsOnFalse)
{
    EXPECT_DEATH(THEMIS_ASSERT(false, "expected failure"),
                 "assertion");
}

TEST(Strings, SplitKeepsEmptyFields)
{
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(Strings, JoinInvertsSplit)
{
    EXPECT_EQ(join({"x", "y", "z"}, "-"), "x-y-z");
    EXPECT_EQ(join({}, "-"), "");
}

TEST(Strings, FmtBytesPicksScale)
{
    EXPECT_EQ(fmtBytes(512.0), "512 B");
    EXPECT_EQ(fmtBytes(2.5e6), "2.50 MB");
    EXPECT_EQ(fmtBytes(1.0e9), "1.00 GB");
}

TEST(Strings, FmtTimePicksScale)
{
    EXPECT_EQ(fmtTime(500.0), "500.0 ns");
    EXPECT_EQ(fmtTime(1.5e3), "1.5 us");
    EXPECT_EQ(fmtTime(2.0e6), "2.000 ms");
}

TEST(Strings, FmtPercent)
{
    EXPECT_EQ(fmtPercent(0.9514), "95.1%");
}

TEST(Strings, ToLower)
{
    EXPECT_EQ(toLower("Themis-SCF"), "themis-scf");
}

TEST(Strings, WriteFileFailureNamesThePath)
{
    // A full device fails the write or the close, a missing directory
    // the open; each throws a ConfigError naming the path.
    for (const std::string path :
         {"/dev/full", "/nonexistent-dir/report.json"}) {
        try {
            writeFile(path, "{}\n");
            ADD_FAILURE() << path << " did not throw";
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find("'" + path + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(99);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Logging, LevelFilters)
{
    const LogLevel prev = Logger::level();
    Logger::setLevel(LogLevel::Error);
    EXPECT_EQ(Logger::level(), LogLevel::Error);
    logInfo("should be suppressed");
    Logger::setLevel(prev);
}

TEST(SmallVector, StaysInlineUpToCapacity)
{
    SmallVector<int, 4> v;
    for (int i = 0; i < 4; ++i)
        v.push_back(i);
    EXPECT_TRUE(v.inlined());
    EXPECT_EQ(v.size(), 4u);
    v.pop_back();
    v.clear();
    EXPECT_TRUE(v.inlined());
    EXPECT_TRUE(v.empty());
}

TEST(SmallVector, SpillsAndPreservesContents)
{
    SmallVector<int, 4> v;
    for (int i = 0; i < 100; ++i)
        v.push_back(i);
    EXPECT_FALSE(v.inlined());
    EXPECT_EQ(v.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(v.front(), 0);
    EXPECT_EQ(v.back(), 99);
}

TEST(SmallVector, PushBackOfOwnElementSurvivesGrowth)
{
    // push_back(v[0]) at exactly capacity must copy the element out
    // before the growth frees the old buffer.
    SmallVector<int, 4> v;
    for (int i = 0; i < 8; ++i)
        v.push_back(i + 1); // spilled, capacity 8, full
    v.push_back(v.front()); // triggers heap-to-heap growth
    EXPECT_EQ(v.back(), 1);
    v.push_back(v[5]);
    EXPECT_EQ(v.back(), 6);
}

TEST(SmallVector, WorksWithStdHeapAlgorithms)
{
    // The shared channels run std::push_heap/pop_heap over it.
    SmallVector<double, 8> v;
    for (int i = 0; i < 30; ++i) {
        v.push_back(static_cast<double>((i * 37) % 23));
        std::push_heap(v.begin(), v.end(), std::greater<double>{});
    }
    double prev = -1.0;
    while (!v.empty()) {
        std::pop_heap(v.begin(), v.end(), std::greater<double>{});
        const double top = v.back();
        v.pop_back();
        EXPECT_GE(top, prev);
        prev = top;
    }
}

} // namespace
} // namespace themis
