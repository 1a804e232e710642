/**
 * @file
 * Unit tests for the statistics layer: activity timelines (Fig 9
 * machinery), utilization windows (Fig 4 definition), text tables and
 * the run report's text form.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/string_util.hpp"
#include "stats/activity_timeline.hpp"
#include "stats/summary.hpp"
#include "stats/telemetry/run_report.hpp"
#include "stats/trace_writer.hpp"
#include "stats/utilization_tracker.hpp"

namespace themis::stats {
namespace {

TEST(ActivityTimeline, RecordsIntervals)
{
    ActivityTimeline tl(2);
    tl.onPresence(0, true, 100.0);
    tl.onPresence(0, false, 300.0);
    tl.onPresence(1, true, 200.0);
    tl.finalize(500.0);
    ASSERT_EQ(tl.intervals(0).size(), 1u);
    EXPECT_DOUBLE_EQ(tl.intervals(0)[0].first, 100.0);
    EXPECT_DOUBLE_EQ(tl.intervals(0)[0].second, 300.0);
    // Open interval closed at finalize time.
    ASSERT_EQ(tl.intervals(1).size(), 1u);
    EXPECT_DOUBLE_EQ(tl.intervals(1)[0].second, 500.0);
    EXPECT_DOUBLE_EQ(tl.busyTime(0), 200.0);
    EXPECT_DOUBLE_EQ(tl.busyTime(1), 300.0);
}

TEST(ActivityTimeline, DuplicateNotificationsIgnored)
{
    ActivityTimeline tl(1);
    tl.onPresence(0, true, 10.0);
    tl.onPresence(0, true, 20.0);
    tl.onPresence(0, false, 30.0);
    tl.onPresence(0, false, 40.0);
    tl.finalize(50.0);
    ASSERT_EQ(tl.intervals(0).size(), 1u);
    EXPECT_DOUBLE_EQ(tl.busyTime(0), 20.0);
}

TEST(ActivityTimeline, ProfileBucketization)
{
    ActivityTimeline tl(1);
    tl.onPresence(0, true, 0.0);
    tl.onPresence(0, false, 150.0);
    tl.finalize(400.0);
    const auto p = tl.profile(100.0, 400.0);
    ASSERT_EQ(p.rate.size(), 1u);
    ASSERT_EQ(p.rate[0].size(), 4u);
    EXPECT_DOUBLE_EQ(p.rate[0][0], 1.0);
    EXPECT_DOUBLE_EQ(p.rate[0][1], 0.5);
    EXPECT_DOUBLE_EQ(p.rate[0][2], 0.0);
    EXPECT_DOUBLE_EQ(p.rate[0][3], 0.0);
}

TEST(ActivityTimeline, ProfileHandlesIntervalSpanningManyBuckets)
{
    ActivityTimeline tl(1);
    tl.onPresence(0, true, 50.0);
    tl.onPresence(0, false, 350.0);
    tl.finalize(400.0);
    const auto p = tl.profile(100.0, 400.0);
    EXPECT_DOUBLE_EQ(p.rate[0][0], 0.5);
    EXPECT_DOUBLE_EQ(p.rate[0][1], 1.0);
    EXPECT_DOUBLE_EQ(p.rate[0][2], 1.0);
    EXPECT_DOUBLE_EQ(p.rate[0][3], 0.5);
}

TEST(UtilizationTracker, WindowedBytes)
{
    sim::EventQueue queue;
    sim::SharedChannel ch(queue, 100.0);
    UtilizationTracker tracker({&ch}, {100.0});

    tracker.windowStart(queue.now());
    ch.begin(1.0e6, [] {});
    queue.run(); // 10 us
    tracker.windowEnd(queue.now());

    EXPECT_DOUBLE_EQ(tracker.activeTime(), 1.0e4);
    EXPECT_NEAR(tracker.windowBytes()[0], 1.0e6, 1.0);
    EXPECT_NEAR(tracker.weightedUtilization(), 1.0, 1e-9);
}

TEST(UtilizationTracker, BytesOutsideWindowsExcluded)
{
    sim::EventQueue queue;
    sim::SharedChannel ch(queue, 100.0);
    UtilizationTracker tracker({&ch}, {100.0});

    ch.begin(1.0e6, [] {}); // outside any window
    queue.run();

    tracker.windowStart(queue.now());
    queue.runUntil(queue.now() + 1.0e4); // idle window
    tracker.windowEnd(queue.now());

    EXPECT_NEAR(tracker.windowBytes()[0], 0.0, 1.0);
    EXPECT_NEAR(tracker.weightedUtilization(), 0.0, 1e-9);
}

TEST(UtilizationTracker, WeightsByBandwidth)
{
    sim::EventQueue queue;
    sim::SharedChannel fast(queue, 300.0);
    sim::SharedChannel slow(queue, 100.0);
    UtilizationTracker tracker({&fast, &slow}, {300.0, 100.0});
    tracker.windowStart(0.0);
    fast.begin(3.0e6, [] {}); // 10 us at full rate
    queue.run();
    tracker.windowEnd(queue.now());
    // fast: 100% for 10 us; slow: 0%. Weighted: 300/400 = 75%.
    EXPECT_NEAR(tracker.weightedUtilization(), 0.75, 1e-9);
    const auto per_dim = tracker.perDimUtilization();
    EXPECT_NEAR(per_dim[0], 1.0, 1e-9);
    EXPECT_NEAR(per_dim[1], 0.0, 1e-9);
}

TEST(UtilizationTracker, MismatchedWindowsPanics)
{
    sim::EventQueue queue;
    sim::SharedChannel ch(queue, 1.0);
    UtilizationTracker tracker({&ch}, {1.0});
    EXPECT_DEATH(tracker.windowEnd(0.0), "no window");
    tracker.windowStart(0.0);
    EXPECT_DEATH(tracker.windowStart(1.0), "already open");
}

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

/** The line of @p text that starts with @p prefix ("" if none). */
std::string
lineStarting(const std::string& text, const std::string& prefix)
{
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        if (line.rfind(prefix, 0) == 0)
            return line;
    return "";
}

TEST(RunReport, TextFormatsUnitsDashesAbsentCellsJsonKeepsRawValues)
{
    using telemetry::RunReport;
    using telemetry::Unit;
    RunReport report("single");
    report.setInfo("topology", "2D-SW_SW");
    report.setNumber("time_ns", 1.5e6, Unit::Time);
    report.setNumber("size_bytes", 2.0e9, Unit::Bytes);
    report.setNumber("util", 0.5, Unit::Percent);
    report.setNumber("error", 0.0, Unit::Percent);
    report.setNumber("chunks", 7, Unit::Count);
    report.setNumber("ratio", 0.0625);
    report.setNumber("slowdown", 1.144, Unit::Factor);
    auto& t = report.addTable("fault",
                              {{"dim", "Dim"},
                               {"down_time_ns", "Down time", Unit::Time},
                               {"lost_bytes", "Lost bytes", Unit::Bytes},
                               {"fatal", "", Unit::Count}});
    t.addRow({"dim1", 5.0e4, {1.5e6, false}, 3});
    t.addRow({"dim2", {0.0, false}, 2.5e3, 0});
    report.addTable("cells", {{"key", ""}, {"values.time_ns", "Time", Unit::Time}})
        .addRow({"k", 2.0});

    const std::string text = report.toText();
    // Each number in fill order, padded to the longest key, in its
    // unit's formatter.
    EXPECT_EQ(lineStarting(text, "topology"), "topology    2D-SW_SW");
    EXPECT_EQ(lineStarting(text, "time_ns"), "time_ns     " + fmtTime(1.5e6));
    EXPECT_EQ(lineStarting(text, "size_bytes"),
              "size_bytes  " + fmtBytes(2.0e9));
    EXPECT_EQ(lineStarting(text, "util"), "util        " + fmtPercent(0.5));
    EXPECT_EQ(lineStarting(text, "error"), "error       0.0000%");
    EXPECT_EQ(lineStarting(text, "chunks"), "chunks      7");
    EXPECT_EQ(lineStarting(text, "ratio"), "ratio       0.0625");
    EXPECT_EQ(lineStarting(text, "slowdown"), "slowdown    1.14x");
    EXPECT_LT(text.find("topology"), text.find("slowdown"));

    // An absent cell is "-" in its own column on its own row's line;
    // its neighbours keep their formatted values. The JSON-only column
    // has no header.
    const std::string head = lineStarting(text, "Dim");
    const std::size_t down = head.find("Down time");
    const std::size_t lost = head.find("Lost bytes");
    ASSERT_NE(down, std::string::npos);
    ASSERT_NE(lost, std::string::npos);
    EXPECT_EQ(head.find("fatal"), std::string::npos);
    const std::string dim1 = lineStarting(text, "dim1");
    const std::string dim2 = lineStarting(text, "dim2");
    EXPECT_EQ(dim1.substr(down, lost - down), "50.0 us    ");
    EXPECT_EQ(dim1.substr(lost), "-         ");
    EXPECT_EQ(dim2.substr(down, lost - down), "-          ");
    EXPECT_EQ(dim2.substr(lost), fmtBytes(2.5e3) + "   ");
    EXPECT_NE(lineStarting(text, "fault:"), "");

    // The JSON carries the raw values, absent cells included, and
    // nests "a.b" column keys.
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"numbers\":{\"chunks\":7,\"error\":0,"
                        "\"ratio\":0.0625,\"size_bytes\":2000000000,"
                        "\"slowdown\":1.1439999999999999,"
                        "\"time_ns\":1500000,\"util\":0.5}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"fault\":[{\"dim\":\"dim1\",\"down_time_ns\":"
                        "50000,\"lost_bytes\":1500000,\"fatal\":3},"
                        "{\"dim\":\"dim2\",\"down_time_ns\":0,"
                        "\"lost_bytes\":2500,\"fatal\":0}]"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"cells\":[{\"key\":\"k\",\"values\":"
                        "{\"time_ns\":2}}]"),
              std::string::npos)
        << json;
}

TEST(TraceWriter, EmitsTraceEventJson)
{
    TraceWriter trace;
    trace.record(0, "RS c0.s0", 1000.0, 3000.0);
    trace.record(1, "AG \"odd\" name", 2000.0, 2500.0);
    EXPECT_EQ(trace.eventCount(), 2u);
    const std::string json = trace.toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"RS c0.s0\""), std::string::npos);
    EXPECT_NE(json.find("\\\"odd\\\""), std::string::npos);
    // Timestamps in microseconds.
    EXPECT_NE(json.find("\"ts\":1"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":2"), std::string::npos);
}

TEST(TraceWriter, RejectsNegativeDuration)
{
    TraceWriter trace;
    EXPECT_DEATH(trace.record(0, "bad", 10.0, 5.0), "ends before");
}

TEST(TraceWriter, WritesFile)
{
    const std::string path = "/tmp/themis_trace_test.json";
    TraceWriter trace;
    trace.record(0, "op", 0.0, 1000.0);
    trace.writeFile(path);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("traceEvents"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace themis::stats
