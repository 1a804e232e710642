/**
 * Recorder and per-layer replays on a small 2-dimension All-Reduce
 * stream: the recording must capture every op with consistent times,
 * and every replay must reproduce the recorded totals (and report
 * invalid when it cannot).
 *
 * Build and run:
 *   cmake -S perfbench -B .bench_build/perfbench
 *   cmake --build .bench_build/perfbench --target perfbench_replay_test
 *   .bench_build/perfbench/perfbench_replay_test
 */

#include <gtest/gtest.h>

#include "recorder.hpp"
#include "replay.hpp"
#include "topology/presets.hpp"

using namespace perfbench;
using namespace themis;

namespace {

/** Two All-Reduces (8 and 4 chunks) on 2D-SW_SW, the second issued
 *  while the first is in flight. */
Recording
recordAllReduce(bool enforce)
{
    Recorder rec;
    sim::EventQueue q;
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.enforce_consistent_order = enforce;
    runtime::CommRuntime comm(q, presets::byName("2D-SW_SW"), cfg);
    rec.attach(comm);
    rec.beginStream(cfg);
    CollectiveRequest first;
    first.size = 6.4e7;
    first.chunks = 8;
    comm.issue(first);
    q.schedule(5.0e3, [&comm] {
        CollectiveRequest second;
        second.size = 3.2e7;
        second.chunks = 4;
        comm.issue(second);
    });
    const std::size_t events = q.run();
    std::vector<Bytes> bytes;
    for (int d = 0; d < comm.topology().numDims(); ++d) {
        comm.engine(d).channel().sync();
        bytes.push_back(comm.engine(d).channel().progressedBytes());
    }
    rec.endStream(events, bytes);
    rec.detach();
    return std::move(rec.recording());
}

} // namespace

TEST(Recorder, CapturesEveryOpWithConsistentTimes)
{
    const Recording r = recordAllReduce(false);
    ASSERT_EQ(r.streams.size(), 1u);
    const Stream& s = r.streams[0];
    ASSERT_EQ(s.collectives.size(), 2u);
    EXPECT_EQ(s.collectives[0].chunks, 8);
    EXPECT_EQ(s.collectives[1].chunks, 4);
    EXPECT_EQ(s.collectives[1].rec.issued, 5.0e3);
    // RS and AG on each of the two dimensions: four stages per chunk.
    EXPECT_EQ(s.ops.size(), (8u + 4u) * 4u);
    EXPECT_GT(s.events, s.ops.size());
    EXPECT_EQ(r.pending_samples.size(), 2 * s.ops.size());
    EXPECT_EQ(r.queued_samples.size(), s.ops.size());
    std::size_t started = 0;
    for (const auto& dim : s.starts)
        started += dim.size();
    EXPECT_EQ(started, s.ops.size());
    for (const OpRecord& op : s.ops) {
        EXPECT_LE(op.arrival, op.start);
        EXPECT_LE(op.start, op.finish);
        EXPECT_LT(op.start_seq, op.finish_seq);
        EXPECT_EQ(op.op.steps.size(), 1u);
    }
}

TEST(Replay, EveryLayerReproducesTheRecordedTotals)
{
    for (bool enforce : {false, true}) {
        SCOPED_TRACE(enforce ? "enforced" : "free");
        const Recording r = recordAllReduce(enforce);
        EXPECT_TRUE(
            replayEventQueue(r, sim::EventFrontEnd::Calendar, 0.0).valid);
        EXPECT_TRUE(
            replayEventQueue(r, sim::EventFrontEnd::Heap, 0.0).valid);
        ChannelSamples samples;
        const Measured channel = replayChannel(r, 0.0, &samples);
        EXPECT_TRUE(channel.valid) << channel.why;
        EXPECT_EQ(samples.active.size(), r.ops());
        const Measured engines = replayEngines(r, 0.0);
        EXPECT_TRUE(engines.valid) << engines.why;
        EXPECT_GT(engines.value, 0.0);
        const Measured sessions = replaySessions(r, 0.0);
        EXPECT_TRUE(sessions.valid) << sessions.why;
        const Reissue re = replayReissue(r, 0.0);
        EXPECT_TRUE(re.issue_ns.valid) << re.issue_ns.why;
        EXPECT_TRUE(re.drain_ns_per_op.valid);
        const Measured lookups = timePlanCacheLookups(r, *re.cache, 0.0);
        EXPECT_TRUE(lookups.valid) << lookups.why;
        EXPECT_TRUE(timeScheduler(r, 0.0).valid);
        EXPECT_TRUE(timeRuntimeCtor(r, 0.0).valid);
        EXPECT_TRUE(timeEpoch(r, 0.0).valid);
        const Measured planner = timeOrderPlanner(r, 0.0);
        EXPECT_TRUE(planner.valid);
    }
}

TEST(Replay, FlagsAStreamItDoesNotReproduce)
{
    Recording r = recordAllReduce(false);
    // Drop the last finished op: the channel no longer moves the bytes
    // the runtime recorded, and a re-issued stream completes more ops
    // than were recorded.
    r.streams[0].ops.pop_back();
    EXPECT_FALSE(replayChannel(r, 0.0, nullptr).valid);
    EXPECT_FALSE(replayReissue(r, 0.0).issue_ns.valid);
}
