/**
 * @file
 * Unit tests of the per-dimension execution engine: queueing order,
 * admission of parallel small ops, enforced-order gating, presence
 * and listener plumbing, admission validation, and the ready set's
 * edge paths (enforced releases, mid-key parking, anti-starvation
 * across tiers, drained keys, observed orders).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "runtime/dimension_engine.hpp"

namespace themis::runtime {
namespace {

DimensionConfig
switchDim(int size, double gbps, TimeNs lat)
{
    DimensionConfig d;
    d.kind = DimKind::Switch;
    d.size = size;
    d.link_bw_gbps = gbps;
    d.links_per_npu = 1;
    d.step_latency_ns = lat;
    return d;
}

struct Harness
{
    sim::EventQueue queue;
    DimensionConfig cfg = switchDim(8, 800.0, 0.0);
    std::vector<int> finished;     // chunk ids in completion order
    std::vector<TimeNs> finish_at; // completion times

    ChunkOp
    op(int chunk, Bytes entering, int stage = 0,
       Phase phase = Phase::ReduceScatter)
    {
        return makeChunkOp(OpTag{0, chunk, stage}, phase, 0, 0,
                           entering, cfg, [this](const ChunkOp& o) {
                               finished.push_back(o.tag.chunk_id);
                               finish_at.push_back(queue.now());
                           });
    }
};

TEST(DimensionEngine, FifoRunsInArrivalOrder)
{
    Harness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Fifo,
                           AdmissionConfig{});
    engine.enqueue(h.op(0, 8.0e6));
    engine.enqueue(h.op(1, 1.0e6)); // smaller, but arrived later
    engine.enqueue(h.op(2, 4.0e6));
    h.queue.run();
    EXPECT_EQ(h.finished, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(engine.completedCount(), 3u);
}

TEST(DimensionEngine, ScfRunsShortestServiceFirst)
{
    Harness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Scf,
                           AdmissionConfig{});
    engine.enqueue(h.op(0, 8.0e6));
    engine.enqueue(h.op(1, 1.0e6));
    engine.enqueue(h.op(2, 4.0e6));
    h.queue.run();
    // Op 0 starts immediately (empty queue); then smallest first.
    EXPECT_EQ(h.finished, (std::vector<int>{0, 1, 2}));
    // With a big op queued FIRST while 0 runs, SCF picks 1 before 2:
    // verified by completion times (1 finishes before 2).
    EXPECT_LT(h.finish_at[1], h.finish_at[2]);
}

TEST(DimensionEngine, LargeOpsRunSerially)
{
    // Zero-latency ops have no headroom to hide: strictly serial.
    Harness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Fifo,
                           AdmissionConfig{});
    engine.enqueue(h.op(0, 8.0e6));
    engine.enqueue(h.op(1, 8.0e6));
    h.queue.run();
    // 7 MB wire each at 100 GB/s = 70 us; serial -> 70 and 140.
    EXPECT_NEAR(h.finish_at[0], 70.0e3, 1.0);
    EXPECT_NEAR(h.finish_at[1], 140.0e3, 1.0);
}

TEST(DimensionEngine, SmallOpsOverlapTheirLatency)
{
    Harness h;
    h.cfg = switchDim(8, 800.0, 10000.0); // 30 us fixed delay
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Fifo,
                           AdmissionConfig{});
    // 875 B wire each (~9 ns transfer) against 30 us latency: the
    // admission rule must stack them, so total time ~= one latency.
    for (int i = 0; i < 8; ++i)
        engine.enqueue(h.op(i, 1000.0));
    h.queue.run();
    ASSERT_EQ(h.finished.size(), 8u);
    EXPECT_LT(h.finish_at.back(), 2.0 * 30000.0);
}

TEST(DimensionEngine, MaxParallelCapRespected)
{
    Harness h;
    h.cfg = switchDim(8, 800.0, 10000.0);
    AdmissionConfig admission;
    admission.max_parallel_ops = 2;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Fifo,
                           admission);
    for (int i = 0; i < 6; ++i)
        engine.enqueue(h.op(i, 1000.0));
    EXPECT_LE(engine.activeCount(), 2u);
    h.queue.run();
    EXPECT_EQ(h.finished.size(), 6u);
    // Three serialized waves of two -> at least 3 latency periods.
    EXPECT_GE(h.finish_at.back(), 3.0 * 30000.0 - 1.0);
}

TEST(DimensionEngine, EnforcedOrderGatesStarts)
{
    Harness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Scf,
                           AdmissionConfig{});
    // Enforce 2 -> 0 -> 1 regardless of SCF preferences.
    engine.setEnforcedOrder(0, {OpKey{2, 0}, OpKey{0, 0}, OpKey{1, 0}});
    engine.enqueue(h.op(0, 1.0e6));
    engine.enqueue(h.op(1, 2.0e6));
    engine.enqueue(h.op(2, 8.0e6));
    h.queue.run();
    EXPECT_EQ(h.finished, (std::vector<int>{2, 0, 1}));
}

TEST(DimensionEngine, EnforcedOrderWaitsForMissingHead)
{
    Harness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Fifo,
                           AdmissionConfig{});
    engine.setEnforcedOrder(0, {OpKey{1, 0}, OpKey{0, 0}});
    engine.enqueue(h.op(0, 1.0e6)); // not the head: must wait
    h.queue.runUntil(1.0e6);
    EXPECT_EQ(engine.queuedCount(), 1u);
    EXPECT_EQ(engine.activeCount(), 0u);
    engine.enqueue(h.op(1, 1.0e6)); // the head arrives
    h.queue.run();
    EXPECT_EQ(h.finished, (std::vector<int>{1, 0}));
}

TEST(DimensionEngine, OtherCollectivesBypassEnforcedOrder)
{
    Harness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Fifo,
                           AdmissionConfig{});
    engine.setEnforcedOrder(7, {OpKey{0, 0}});
    // An op of collective 0 (no enforced order) runs freely even
    // though collective 7's head never arrives.
    engine.enqueue(h.op(3, 1.0e6));
    h.queue.run();
    EXPECT_EQ(h.finished, (std::vector<int>{3}));
}

TEST(DimensionEngine, PresenceTogglesWithWork)
{
    Harness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Fifo,
                           AdmissionConfig{});
    std::vector<bool> transitions;
    engine.setPresenceListener(
        [&](int dim, bool present, TimeNs when) {
            EXPECT_EQ(dim, 0);
            (void)when;
            transitions.push_back(present);
        });
    engine.enqueue(h.op(0, 1.0e6));
    h.queue.run();
    EXPECT_EQ(transitions, (std::vector<bool>{true, false}));
}

TEST(DimensionEngine, ListenersSeeStartAndFinish)
{
    Harness h;
    h.cfg = switchDim(8, 800.0, 10000.0);
    AdmissionConfig admission;
    admission.max_parallel_ops = 2;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Fifo,
                           admission);
    // (chunk, queuedCount(), activeCount()) as each listener sees it:
    // a starting op has left the queue but is not yet active, and a
    // finishing op has already left the active set.
    using Seen = std::vector<std::tuple<int, std::size_t, std::size_t>>;
    Seen at_start, at_finish;
    TimeNs started = -1.0, finished_start = -1.0;
    engine.setStartListener([&](const OpTag& tag) {
        if (tag.chunk_id == 5)
            started = h.queue.now();
        at_start.emplace_back(tag.chunk_id, engine.queuedCount(),
                              engine.activeCount());
    });
    engine.setFinishListener(
        [&](const ChunkOp& op, TimeNs started_at) {
            if (op.tag.chunk_id == 5)
                finished_start = started_at;
            at_finish.emplace_back(op.tag.chunk_id, engine.queuedCount(),
                                   engine.activeCount());
        });
    h.queue.scheduleAfter(2500.0, [&] {
        for (int c = 5; c < 9; ++c)
            engine.enqueue(h.op(c, 1000.0));
    });
    h.queue.run();
    EXPECT_DOUBLE_EQ(started, 2500.0);
    EXPECT_DOUBLE_EQ(finished_start, 2500.0);
    EXPECT_EQ(at_start, (Seen{{5, 0, 0}, {6, 0, 1}, {7, 1, 1}, {8, 0, 1}}));
    EXPECT_EQ(at_finish,
              (Seen{{5, 2, 1}, {6, 1, 1}, {7, 0, 1}, {8, 0, 0}}));
}

// --------------------------------------------- op storage reuse
//
// One engine over three iteration epochs drives an op through every
// path in and out of its storage: the batched refill, an enforced
// order installed over pending ops, mixed tiers reaching the bypass
// bound, and a link flap whose failed ops retry under new arrival
// sequence numbers. The start/finish sequence and the fingerprint
// pin the whole trajectory.

TEST(DimensionEngine, OpStorageIsReusedAcrossEveryPath)
{
    sim::EventQueue queue;
    const DimensionConfig cfg = switchDim(8, 800.0, 2000.0);
    AdmissionConfig admission;
    admission.max_parallel_ops = 2;
    admission.max_priority_bypass = 2;
    DimensionEngine engine(queue, cfg, 0, IntraDimPolicy::Scf,
                           admission);
    RetryConfig retry;
    retry.backoff_base_ns = 1000.0;
    retry.backoff_cap_ns = 1.0e5;
    engine.armFaults(retry);
    Fnv1a fingerprint;
    engine.armFingerprint(&fingerprint);
    std::string trace;
    const auto note = [&trace](char kind, const OpTag& t) {
        trace += kind + std::to_string(t.collective_id) + '.' +
                 std::to_string(t.chunk_id) + '.' +
                 std::to_string(t.stage_index) + ' ';
    };
    engine.setStartListener([&](const OpTag& t) { note('S', t); });
    engine.setFinishListener(
        [&](const ChunkOp& op, TimeNs) { note('F', op.tag); });
    const auto op = [&](int collective, int chunk, Bytes entering,
                        int tier) {
        return makeChunkOp(OpTag{collective, chunk, 0},
                           Phase::ReduceScatter, 0, 0, entering, cfg,
                           [](const ChunkOp&) {}, FlowClass{tier, 1.0});
    };
    for (int epoch = 0; epoch < 3; ++epoch) {
        if (epoch > 0) {
            queue.rebaseToZero();
            engine.beginIterationEpoch();
        }
        // One tier, no order: the batched refill.
        for (int c = 0; c < 6; ++c)
            engine.enqueue(op(0, c, c % 2 == 0 ? 1.0e4 : 4.0e6, 0));
        queue.schedule(50.0e3, [&] {
            // Pending ops of collective 3 park under an order installed
            // after them; higher tiers then bypass the waiting tier 0.
            for (int c = 0; c < 3; ++c)
                engine.enqueue(op(3, c, 2.0e6, 0));
            engine.setEnforcedOrder(3, {OpKey{2, 0}, OpKey{0, 0},
                                        OpKey{1, 0}});
            for (int c = 0; c < 3; ++c) {
                engine.enqueue(op(1, c, 1.0e6 + epoch * 1.0e5, 1));
                engine.enqueue(op(2, c, 2.0e4, 2));
            }
        });
        queue.schedule(80.0e3, [&] { engine.setLinkDown(true); });
        queue.schedule(120.0e3, [&] { engine.setLinkDown(false); });
        queue.run();
        engine.clearEnforcedOrder(3);
        trace += "| ";
    }
    EXPECT_EQ(engine.completedCount(), 45u);
    EXPECT_EQ(engine.retryCount(), 6u);
    // Each epoch: 2.0 and 2.1 bypass the older 0.5, which is then
    // forced; the flap fails 2.2 and 0.5 (each starts twice); 3.x
    // start in the enforced order 2, 0, 1.
    const std::string epoch =
        "S0.0.0 S0.1.0 F0.0.0 S0.2.0 F0.2.0 S0.4.0 F0.4.0 S0.3.0 "
        "F0.1.0 S2.0.0 F2.0.0 S2.1.0 F2.1.0 S0.5.0 F0.3.0 S2.2.0 "
        "S2.2.0 S3.2.0 F2.2.0 S1.0.0 F1.0.0 S1.1.0 F3.2.0 S3.0.0 "
        "F1.1.0 S1.2.0 F3.0.0 S3.1.0 F1.2.0 S0.5.0 F3.1.0 F0.5.0 | ";
    EXPECT_EQ(trace, epoch + epoch + epoch);
    EXPECT_EQ(fingerprint.value(), 11920767678104971363ull);
}

// ------------------------------------------- ready-set edge paths
//
// Zero-latency ops admit strictly one at a time, so each start is one
// selection. Expected orders follow the selection rule: higher tier
// first, then (SCF) shorter service time, then earlier arrival; the
// anti-starvation bound overrides it with the oldest waiting op.

struct OrderHarness
{
    sim::EventQueue queue;
    DimensionConfig cfg = switchDim(8, 800.0, 0.0);
    std::vector<std::pair<int, int>> started; // (collective, chunk)

    ChunkOp
    op(int collective, int chunk, Bytes entering, int tier = 0)
    {
        return makeChunkOp(OpTag{collective, chunk, 0},
                           Phase::ReduceScatter, 0, 0, entering, cfg,
                           [](const ChunkOp&) {}, FlowClass{tier, 1.0});
    }

    void
    watch(DimensionEngine& engine)
    {
        engine.setStartListener([this](const OpTag& tag) {
            started.emplace_back(tag.collective_id, tag.chunk_id);
        });
    }
};

using Starts = std::vector<std::pair<int, int>>;

TEST(DimensionEngineReadySet, EnforcedReleaseKeepsArrivalOrderInKey)
{
    OrderHarness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Scf,
                           AdmissionConfig{});
    h.watch(engine);
    engine.setEnforcedOrder(1, {OpKey{1, 0}, OpKey{0, 0}});
    engine.enqueue(h.op(9, 0, 8.0e6)); // starts at once, holds the rest
    engine.enqueue(h.op(1, 0, 2.0e6)); // parked: not the expected head
    engine.enqueue(h.op(2, 5, 2.0e6));
    engine.enqueue(h.op(2, 6, 2.0e6));
    engine.enqueue(h.op(1, 1, 1.0e6)); // expected head, shortest
    h.queue.run();
    // Starting 1.1 releases 1.0, which arrived before 2.5 and 2.6 with
    // the same service time: it goes first among them.
    EXPECT_EQ(h.started,
              (Starts{{9, 0}, {1, 1}, {1, 0}, {2, 5}, {2, 6}}));
}

TEST(DimensionEngineReadySet, OrderInstalledOverPendingOpsParksMidKey)
{
    OrderHarness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Scf,
                           AdmissionConfig{});
    h.watch(engine);
    engine.enqueue(h.op(9, 0, 8.0e6)); // starts at once, holds the rest
    engine.enqueue(h.op(2, 5, 2.0e6));
    engine.enqueue(h.op(1, 0, 2.0e6));
    engine.enqueue(h.op(1, 1, 2.0e6));
    engine.enqueue(h.op(2, 6, 2.0e6));
    // 1.0 sits between 2.5 and 1.1 among equal keys: it parks, and
    // returns to its arrival position once 1.1 has started.
    engine.setEnforcedOrder(1, {OpKey{1, 0}, OpKey{0, 0}});
    EXPECT_EQ(engine.queuedCount(), 4u);
    h.queue.run();
    EXPECT_EQ(h.started,
              (Starts{{9, 0}, {2, 5}, {1, 1}, {1, 0}, {2, 6}}));
}

TEST(DimensionEngineReadySet, AntiStarvationPicksOldestFromMiddleTier)
{
    OrderHarness h;
    AdmissionConfig admission;
    admission.max_parallel_ops = 1;
    admission.max_priority_bypass = 2;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Scf,
                           admission);
    h.watch(engine);
    engine.enqueue(h.op(0, 0, 8.0e6, 0)); // starts at once
    engine.enqueue(h.op(1, 1, 1.0e6, 1)); // oldest waiting, middle tier
    engine.enqueue(h.op(0, 2, 1.0e6, 0));
    for (int c = 3; c < 7; ++c)
        engine.enqueue(h.op(2, c, 1.0e6, 2));
    h.queue.run();
    // Two tier-2 starts bypass 1.1, so it is forced next; then two
    // more bypass 0.2, which runs last as the only op left.
    EXPECT_EQ(h.started, (Starts{{0, 0},
                                 {2, 3},
                                 {2, 4},
                                 {1, 1},
                                 {2, 5},
                                 {2, 6},
                                 {0, 2}}));
    EXPECT_EQ(engine.bypassStreak(), 0);
}

TEST(DimensionEngineReadySet, FifoIgnoresSizeWithinTier)
{
    OrderHarness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Fifo,
                           AdmissionConfig{});
    h.watch(engine);
    engine.enqueue(h.op(0, 0, 8.0e6, 0)); // starts at once
    engine.enqueue(h.op(0, 1, 4.0e6, 0));
    engine.enqueue(h.op(0, 2, 1.0e6, 0));
    engine.enqueue(h.op(1, 3, 8.0e6, 1));
    engine.enqueue(h.op(1, 4, 2.0e6, 1));
    engine.enqueue(h.op(1, 5, 1.0e6, 1));
    engine.enqueue(h.op(0, 6, 2.0e6, 0));
    h.queue.run();
    EXPECT_EQ(h.started, (Starts{{0, 0},
                                 {1, 3},
                                 {1, 4},
                                 {1, 5},
                                 {0, 1},
                                 {0, 2},
                                 {0, 6}}));
}

TEST(DimensionEngineReadySet, DrainedKeyIsRecreatedInPlace)
{
    OrderHarness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Scf,
                           AdmissionConfig{});
    h.watch(engine);
    engine.enqueue(h.op(0, 0, 8.0e6)); // runs 0 .. 70 us
    engine.enqueue(h.op(0, 1, 1.0e6)); // runs 70 .. 78.75 us
    engine.enqueue(h.op(0, 2, 4.0e6));
    h.queue.runUntil(72.0e3);
    // 0.1's key has drained; new ops re-create it and a key between
    // the two, both ahead of the older, longer 0.2.
    ASSERT_EQ(h.started, (Starts{{0, 0}, {0, 1}}));
    EXPECT_EQ(engine.queuedCount(), 1u);
    engine.enqueue(h.op(0, 3, 2.0e6));
    engine.enqueue(h.op(0, 4, 1.0e6));
    engine.enqueue(h.op(0, 5, 1.0e6));
    h.queue.run();
    EXPECT_EQ(h.started, (Starts{{0, 0},
                                 {0, 1},
                                 {0, 4},
                                 {0, 5},
                                 {0, 3},
                                 {0, 2}}));
}

TEST(DimensionEngineReadySet, ObservedOrderRecordsStartsThenAdopts)
{
    OrderHarness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Scf,
                           AdmissionConfig{});
    h.watch(engine);
    engine.observeOrder(1);
    engine.enqueue(h.op(1, 0, 8.0e6)); // starts at once, holds the rest
    engine.enqueue(h.op(1, 1, 4.0e6));
    engine.enqueue(h.op(1, 2, 2.0e6));
    engine.enqueue(h.op(1, 3, 1.0e6));
    // Observing parks nothing: 1.3 (shortest) is the policy's next.
    // Adopting an order that continues the observed 1.0 overrides SCF
    // from the cursor on.
    engine.setEnforcedOrder(
        1, {OpKey{0, 0}, OpKey{1, 0}, OpKey{3, 0}, OpKey{2, 0}});
    EXPECT_EQ(engine.queuedCount(), 3u);
    h.queue.run();
    EXPECT_EQ(h.started, (Starts{{1, 0}, {1, 1}, {1, 3}, {1, 2}}));
}

TEST(DimensionEngineReadySet, ObservedOrderIsHandedOver)
{
    OrderHarness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Scf,
                           AdmissionConfig{});
    engine.observeOrder(1);
    engine.enqueue(h.op(1, 0, 8.0e6));
    engine.enqueue(h.op(1, 1, 4.0e6));
    engine.enqueue(h.op(1, 2, 2.0e6));
    h.queue.run();
    EXPECT_TRUE(engine.takeObservedOrder(1) ==
                (std::vector<OpKey>{OpKey{0, 0}, OpKey{2, 0},
                                    OpKey{1, 0}}));
}

TEST(DimensionEngineReadySet, AdoptedOrderMustExtendObservedStarts)
{
    OrderHarness h;
    DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Scf,
                           AdmissionConfig{});
    engine.observeOrder(1);
    engine.enqueue(h.op(1, 0, 8.0e6)); // observed first start
    engine.enqueue(h.op(1, 1, 4.0e6));
    EXPECT_DEATH(engine.setEnforcedOrder(1, {OpKey{1, 0}, OpKey{0, 0}}),
                 "not a prefix");
}

TEST(DimensionEngine, RejectsWrongDimensionOps)
{
    Harness h;
    DimensionEngine engine(h.queue, h.cfg, 3, IntraDimPolicy::Fifo,
                           AdmissionConfig{});
    EXPECT_DEATH(engine.enqueue(h.op(0, 1.0e6)), "enqueued on dim");
}

TEST(DimensionEngine, RejectsBadAdmissionConfig)
{
    // A bad admission tunable is a configuration error, not a panic.
    Harness h;
    const auto build = [&h](const AdmissionConfig& admission) {
        DimensionEngine engine(h.queue, h.cfg, 0, IntraDimPolicy::Scf,
                               admission);
    };
    AdmissionConfig bad_parallel;
    bad_parallel.max_parallel_ops = 0;
    EXPECT_THROW(build(bad_parallel), ConfigError);
    AdmissionConfig bad_headroom;
    bad_headroom.latency_headroom = 0.0;
    EXPECT_THROW(build(bad_headroom), ConfigError);
    AdmissionConfig bad_bypass;
    bad_bypass.max_priority_bypass = 0;
    EXPECT_THROW(build(bad_bypass), ConfigError);
    EXPECT_NO_THROW(build(AdmissionConfig{}));
}

} // namespace
} // namespace themis::runtime
