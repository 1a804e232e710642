/**
 * @file
 * Weighted-fairness dataplane tests: weighted-GPS channel invariants
 * (weight-proportional sharing, byte conservation, weight-aware
 * rebasing, recorded equal-share timings), tier precedence and
 * no-starvation in the dimension engines, the priority-aware Themis
 * scheduler variant, priority-extended plan-cache keys, the step-plan
 * memo, and per-class statistics.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/priority_policy.hpp"
#include "core/themis_scheduler.hpp"
#include "runtime/comm_runtime.hpp"
#include "runtime/dimension_engine.hpp"
#include "sim/shared_channel.hpp"
#include "topology/parse.hpp"
#include "topology/presets.hpp"

namespace themis {
namespace {

using sim::EventQueue;
using sim::SharedChannel;

// ---------------------------------------------------------- channel

TEST(WeightedChannel, SharesSplitByWeight)
{
    EventQueue q;
    SharedChannel ch(q, 100.0); // 100 B/ns
    TimeNs t_heavy = -1.0, t_light = -1.0;
    // Weight 3 moving 3 MB and weight 1 moving 1 MB have the same
    // virtual demand (1e6), so they drain together: combined rate
    // 100 B/ns split 75/25.
    ch.begin(3.0e6, 3.0, [&] { t_heavy = q.now(); }, 0);
    ch.begin(1.0e6, 1.0, [&] { t_light = q.now(); }, 1);
    q.run();
    EXPECT_DOUBLE_EQ(t_heavy, 4.0e4);
    EXPECT_DOUBLE_EQ(t_light, 4.0e4);
    ch.sync();
    EXPECT_NEAR(ch.progressedBytes(), 4.0e6, 1e-3);
    EXPECT_NEAR(ch.classProgressedBytes(0), 3.0e6, 1e-3);
    EXPECT_NEAR(ch.classProgressedBytes(1), 1.0e6, 1e-3);
}

TEST(WeightedChannel, HeavyFlowDrainsFirstThenRateRises)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    TimeNs t_a = -1.0, t_b = -1.0;
    // A: 2 MB at weight 2 (virtual demand 1e6); B: 2 MB at weight 1
    // (virtual demand 2e6). Phase 1 rate split 2:1 — A drains at
    // t = 3e6/100 = 3e4 having moved 2 MB while B moved 1 MB. B's
    // remaining 1 MB then runs alone: t = 3e4 + 1e4.
    ch.begin(2.0e6, 2.0, [&] { t_a = q.now(); });
    ch.begin(2.0e6, 1.0, [&] { t_b = q.now(); });
    q.run();
    EXPECT_DOUBLE_EQ(t_a, 3.0e4);
    EXPECT_DOUBLE_EQ(t_b, 4.0e4);
}

TEST(WeightedChannel, ByteConservationUnderMixedWeights)
{
    EventQueue q;
    SharedChannel ch(q, 64.0);
    const double weights[] = {0.5, 1.0, 2.0, 4.0, 8.0};
    const Bytes sizes[] = {3.0e5, 1.1e6, 7.0e6, 2.3e6, 9.9e5};
    Bytes expected[2] = {0.0, 0.0};
    int done = 0;
    for (int i = 0; i < 5; ++i) {
        const int cls = i % 2;
        expected[cls] += sizes[i];
        ch.begin(sizes[i], weights[i], [&] { ++done; }, cls);
    }
    // One aborted transfer: its partial progress stays accounted but
    // its remainder must vanish.
    const auto aborted = ch.begin(5.0e6, 2.0, [&] { ++done; }, 0);
    q.scheduleAfter(10.0, [&] { ch.abort(aborted); });
    q.run();
    ch.sync();
    EXPECT_EQ(done, 5);
    EXPECT_EQ(ch.activeCount(), 0u);
    // The aborted flow progressed for 10 ns within a weight pool; its
    // contribution is whatever it received before the abort. Total
    // conservation: completed bytes plus that partial service.
    const Bytes total = ch.progressedBytes();
    const Bytes cls_sum =
        ch.classProgressedBytes(0) + ch.classProgressedBytes(1);
    EXPECT_NEAR(total, cls_sum, 1e-3);
    EXPECT_GE(total, expected[0] + expected[1] - 1e-3);
    // Per-class accounting covers each class's completed demand (the
    // abort only ever adds on top of class 0).
    EXPECT_GE(ch.classProgressedBytes(0), expected[0] - 1e-3);
    EXPECT_NEAR(ch.classProgressedBytes(1), expected[1], 1e-3);
}

TEST(WeightedChannel, WeightAwareRebasePastPetascale)
{
    // Sequential petascale transfers at non-unit weight cross the
    // 1e9-virtual-byte rebase threshold millions of times over (the
    // weight halving doubles virtual demand); conservation and serial
    // timing must stay exact.
    EventQueue q;
    SharedChannel ch(q, 1000.0);
    constexpr Bytes kTransfer = 1.0e12;
    constexpr int kCount = 1200; // 2.4e15 cumulative virtual bytes
    int done = 0;
    std::function<void()> next = [&] {
        ++done;
        if (done < kCount)
            ch.begin(kTransfer, 0.5, next, done % 2);
    };
    ch.begin(kTransfer, 0.5, next, 0);
    q.run();
    ch.sync();
    EXPECT_EQ(done, kCount);
    EXPECT_NEAR(ch.progressedBytes(), kTransfer * kCount, 1.0);
    EXPECT_NEAR(q.now(), kTransfer * kCount / 1000.0, 1.0);
}

TEST(WeightedChannel, RebaseAcrossConcurrentMixedWeights)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    constexpr Bytes kA = 1.2e15; // weight 2 -> virtual demand 6e14
    constexpr Bytes kB = 1.5e15; // weight 1 -> virtual demand 1.5e15
    TimeNs t_a = -1.0, t_b = -1.0;
    ch.begin(kA, 2.0, [&] { t_a = q.now(); }, 0);
    ch.begin(kB, 1.0, [&] { t_b = q.now(); }, 1);
    q.run();
    ch.sync();
    // Phase 1: A at 2/3 capacity, B at 1/3. A drains at
    // kA / (2/3 * 100); B then finishes its remainder alone.
    const TimeNs expect_a = kA / (100.0 * 2.0 / 3.0);
    const Bytes b_at_a = expect_a * 100.0 / 3.0;
    const TimeNs expect_b = expect_a + (kB - b_at_a) / 100.0;
    EXPECT_NEAR(t_a, expect_a, 1e-6 * expect_a);
    EXPECT_NEAR(t_b, expect_b, 1e-6 * expect_b);
    EXPECT_NEAR(ch.progressedBytes(), kA + kB, 2.0);
}

TEST(WeightedChannel, EqualWeightsMatchRecordedEqualShareTimes)
{
    // A staggered begin/abort script at unit weights must reproduce,
    // bit for bit, the completion timestamps and progressed bytes the
    // retired count-based equal-share channel recorded: the weight sum
    // of n unit flows is exactly n.
    EventQueue q;
    SharedChannel ch(q, 37.5);
    std::vector<TimeNs> times;
    SharedChannel::TransferId victim = 0;
    for (int i = 0; i < 6; ++i) {
        q.scheduleAfter(static_cast<TimeNs>(i) * 13.0, [&, i] {
            const auto id = ch.begin(1.0e5 * (i + 1) + 0.37 * i,
                                     [&] { times.push_back(q.now()); });
            if (i == 3)
                victim = id;
        });
    }
    q.scheduleAfter(5000.0, [&] { ch.abort(victim); });
    q.run();
    ch.sync();
    times.push_back(ch.progressedBytes());
    const std::vector<TimeNs> want = {
        0x1.b7c3555555555p+13, 0x1.835c7dbf487fcp+14,
        0x1.00554e075f6fdp+15, 0x1.53c90ce703afbp+15,
        0x1.68a39a7cca9d8p+15, 0x1.a69fb90a3d70ap+20};
    ASSERT_EQ(times.size(), want.size());
    for (std::size_t i = 0; i < times.size(); ++i)
        EXPECT_EQ(times[i], want[i]) << "index " << i;
}

// ------------------------------------------------ engine tiering

DimensionConfig
engineDim(int size, double gbps, TimeNs lat)
{
    DimensionConfig d;
    d.kind = DimKind::Switch;
    d.size = size;
    d.link_bw_gbps = gbps;
    d.links_per_npu = 1;
    d.step_latency_ns = lat;
    return d;
}

struct TierHarness
{
    sim::EventQueue queue;
    DimensionConfig cfg = engineDim(8, 800.0, 0.0);
    std::vector<int> started; // chunk ids in start order

    runtime::ChunkOp
    op(int chunk, Bytes entering, FlowClass flow)
    {
        return runtime::makeChunkOp(
            runtime::OpTag{flow.tier, chunk, 0}, Phase::ReduceScatter,
            0, 0, entering, cfg, [](const runtime::ChunkOp&) {}, flow);
    }
};

TEST(DimensionEngineTiers, HigherTierSelectsFirst)
{
    TierHarness h;
    runtime::DimensionEngine engine(h.queue, h.cfg, 0,
                                    IntraDimPolicy::Scf,
                                    runtime::AdmissionConfig{});
    engine.setStartListener([&](const runtime::OpTag& tag) {
        h.started.push_back(tag.chunk_id);
    });
    const FlowClass bulk{0, 1.0};
    const FlowClass urgent{2, 4.0};
    // Op 0 starts immediately (empty engine, zero-latency ops run
    // serially); the queue then holds bulk 1, 2 and urgent 3. Tier
    // precedence must start 3 before the earlier, smaller bulk ops.
    engine.enqueue(h.op(0, 8.0e6, bulk));
    engine.enqueue(h.op(1, 1.0e6, bulk));
    engine.enqueue(h.op(2, 2.0e6, bulk));
    engine.enqueue(h.op(3, 4.0e6, urgent));
    h.queue.run();
    EXPECT_EQ(h.started, (std::vector<int>{0, 3, 1, 2}));
}

TEST(DimensionEngineTiers, LowTierNeverStarvesUnderSustainedLoad)
{
    TierHarness h;
    runtime::AdmissionConfig admission;
    admission.max_parallel_ops = 1; // strictly serial: worst case
    runtime::DimensionEngine engine(h.queue, h.cfg, 0,
                                    IntraDimPolicy::Scf, admission);
    int bulk_started_after = -1; // urgent starts before the bulk op
    int urgent_started = 0;
    engine.setStartListener([&](const runtime::OpTag& tag) {
        if (tag.collective_id == 0 && bulk_started_after < 0)
            bulk_started_after = urgent_started;
        if (tag.collective_id == 2)
            ++urgent_started;
    });
    const FlowClass bulk{0, 1.0};
    const FlowClass urgent{2, 8.0};
    // Sustained urgent stream: every completion enqueues a fresh
    // urgent op, so the ready set never drains. The single bulk op
    // must still start within the anti-starvation bound.
    int remaining = 400;
    std::function<void()> feed = [&] {
        if (remaining-- <= 0)
            return;
        auto op = runtime::makeChunkOp(
            runtime::OpTag{2, remaining, 0}, Phase::ReduceScatter, 0,
            0, 1.0e5, h.cfg,
            [&](const runtime::ChunkOp&) { feed(); }, urgent);
        engine.enqueue(std::move(op));
    };
    engine.enqueue(h.op(7, 4.0e6, bulk));
    for (int i = 0; i < 4; ++i)
        feed();
    h.queue.run();
    ASSERT_GE(bulk_started_after, 0) << "bulk op never started";
    EXPECT_LE(bulk_started_after,
              runtime::AdmissionConfig{}.max_priority_bypass + 4);
    EXPECT_GT(urgent_started, 100); // the stream really was sustained
}

// ---------------------------------------------- scheduler variant

TEST(ThemisPriority, UrgentFlowBypassesThreshold)
{
    // dim1's fixed delay is slightly larger than dim2's, so the
    // seeded tracker loads are unbalanced but the gap stays below
    // the threshold (which is dominated by a full fixed delay):
    // plain Themis falls back to the baseline order while the
    // priority-aware variant balances an urgent chunk onto the
    // lighter dimension first.
    const Topology topo =
        parseTopology("t", "SW:4:400:700,SW:4:400:600");
    const LatencyModel model = LatencyModel::fromTopology(topo);
    ThemisScheduler plain(model);
    ThemisScheduler aware(model, ThemisConfig{},
                          /*priority_aware=*/true);
    const Bytes tiny = 1.0e3;
    const FlowClass urgent{static_cast<int>(PriorityTier::Urgent),
                           4.0};
    const FlowClass bulk{static_cast<int>(PriorityTier::Bulk), 1.0};

    const auto base = plain.scheduleCollective(
        CollectiveType::ReduceScatter, tiny, 1);
    const auto bulk_plan = aware.scheduleCollective(
        CollectiveType::ReduceScatter, tiny, 1, bulk);
    const auto urgent_plan = aware.scheduleCollective(
        CollectiveType::ReduceScatter, tiny, 1, urgent);

    ASSERT_EQ(base.size(), 1u);
    // Below threshold: plain Themis and the bulk flow keep the
    // baseline dim order.
    EXPECT_EQ(base[0].stages, bulk_plan[0].stages);
    EXPECT_EQ(base[0].stages[0].dim, 0);
    // The urgent flow balances: lighter dim2 (index 1) first.
    EXPECT_EQ(urgent_plan[0].stages[0].dim, 1);
    // The bypass is per call: a bulk plan issued after the urgent one
    // on the same scheduler keeps the baseline order again.
    const auto bulk_after = aware.scheduleCollective(
        CollectiveType::ReduceScatter, tiny, 1, bulk);
    EXPECT_EQ(base[0].stages, bulk_after[0].stages);
}

TEST(ThemisPriority, UniformPolicyPlansExactlyLikeThemis)
{
    const Topology topo = presets::byName("2D-SW_SW");
    const LatencyModel model = LatencyModel::fromTopology(topo);
    ThemisScheduler plain(model);
    ThemisScheduler aware(model, ThemisConfig{},
                          /*priority_aware=*/true);
    // A uniform policy maps every tier to class 0 — below Urgent, so
    // the variant must plan identically.
    const FlowClass uniform_flow = PriorityPolicy::uniform().flowFor(
        static_cast<int>(PriorityTier::Urgent));
    for (Bytes size : {1.0e6, 5.0e8}) {
        const auto a = plain.scheduleCollective(
            CollectiveType::AllReduce, size, 8);
        const auto b = aware.scheduleCollective(
            CollectiveType::AllReduce, size, 8, uniform_flow);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].stages, b[i].stages);
    }
}

// ------------------------------------------------- cache keying

TEST(PlanCachePriority, KeysExtendByPriorityFingerprint)
{
    const auto uniform_fp = PriorityPolicy::uniform().fingerprint();
    const auto tiered_fp = PriorityPolicy::tiered(4.0).fingerprint();
    EXPECT_NE(uniform_fp, tiered_fp);
    EXPECT_EQ(uniform_fp, PriorityPolicy::uniform().fingerprint());
    EXPECT_EQ(tiered_fp, PriorityPolicy::tiered(4.0).fingerprint());
    EXPECT_NE(PriorityPolicy::tiered(2.0).fingerprint(), tiered_fp);

    // Priority-aware scheduler: the urgent-bypass bit and the policy
    // split cache entries.
    const PlanKey a =
        PlanKey::make(SchedulerKind::ThemisPriority, ThemisConfig{},
                      CollectiveType::AllReduce, 1e8, 64, 42, 2,
                      tiered_fp);
    const PlanKey b =
        PlanKey::make(SchedulerKind::ThemisPriority, ThemisConfig{},
                      CollectiveType::AllReduce, 1e8, 64, 42, 0,
                      tiered_fp);
    const PlanKey c =
        PlanKey::make(SchedulerKind::ThemisPriority, ThemisConfig{},
                      CollectiveType::AllReduce, 1e8, 64, 42, 2,
                      uniform_fp);
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a == c);

    // Bulk and Standard plan identically (no bypass), so the tier
    // normalizes to the bypass bit and they share one entry.
    const PlanKey b2 =
        PlanKey::make(SchedulerKind::ThemisPriority, ThemisConfig{},
                      CollectiveType::AllReduce, 1e8, 64, 42, 1,
                      tiered_fp);
    EXPECT_TRUE(b == b2);

    // Priority-unaware schedulers normalize both fields away.
    const PlanKey d =
        PlanKey::make(SchedulerKind::Themis, ThemisConfig{},
                      CollectiveType::AllReduce, 1e8, 64, 42, 2,
                      tiered_fp);
    const PlanKey e =
        PlanKey::make(SchedulerKind::Themis, ThemisConfig{},
                      CollectiveType::AllReduce, 1e8, 64, 42, 0,
                      uniform_fp);
    EXPECT_TRUE(d == e);
}

TEST(PlanCachePriority, StepMemoReturnsIdenticalOps)
{
    const Topology topo = presets::byName("2D-SW_SW");
    const LatencyModel model = LatencyModel::fromTopology(topo);
    PlanCache cache;
    auto noop = [](const runtime::ChunkOp&) {};
    const auto plain = runtime::makeChunkOp(
        runtime::OpTag{0, 0, 0}, Phase::ReduceScatter, 0, 0, 2.5e6,
        model.dim(0), noop);
    for (int i = 0; i < 3; ++i) {
        const auto memoized = runtime::makeChunkOp(
            runtime::OpTag{0, 0, 0}, Phase::ReduceScatter, 0, 0,
            2.5e6, model.dim(0), noop, FlowClass{}, &cache,
            model.dimFingerprint(0));
        EXPECT_EQ(memoized.fixed_delay, plain.fixed_delay);
        EXPECT_EQ(memoized.transfer_time, plain.transfer_time);
        ASSERT_EQ(memoized.steps.size(), plain.steps.size());
        EXPECT_EQ(memoized.steps[0].bytes, plain.steps[0].bytes);
        EXPECT_EQ(memoized.steps[0].latency, plain.steps[0].latency);
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.step_misses, 1u);
    EXPECT_EQ(stats.step_hits, 2u);
    EXPECT_EQ(cache.stepCount(), 1u);
    // A different dimension fingerprint is a distinct entry.
    (void)runtime::makeChunkOp(runtime::OpTag{0, 0, 1},
                               Phase::ReduceScatter, 1, 1, 2.5e6,
                               model.dim(1), noop, FlowClass{}, &cache,
                               model.dimFingerprint(1));
    EXPECT_EQ(cache.stepCount(), 2u);
}

// ------------------------------------------------ per-class stats

TEST(ClassStats, TieredPolicyReportsPerClassUsage)
{
    const Topology topo = presets::byName("2D-SW_SW");
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.priority = PriorityPolicy::tiered(4.0);
    EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    CollectiveRequest bulk;
    bulk.type = CollectiveType::AllReduce;
    bulk.size = 2.0e8;
    bulk.priority_tier = static_cast<int>(PriorityTier::Bulk);
    CollectiveRequest urgent = bulk;
    urgent.size = 2.0e7;
    urgent.priority_tier = static_cast<int>(PriorityTier::Urgent);
    comm.issue(bulk);
    comm.issue(urgent);
    queue.run();
    comm.finalizeStats();

    const auto reports = comm.classReports();
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0].issued, 1);
    EXPECT_EQ(reports[0].completed, 1);
    EXPECT_EQ(reports[1].issued, 0);
    EXPECT_EQ(reports[2].issued, 1);
    EXPECT_DOUBLE_EQ(reports[0].weight, 1.0);
    EXPECT_DOUBLE_EQ(reports[2].weight, 16.0);
    EXPECT_GT(reports[0].progressed, 0.0);
    EXPECT_GT(reports[2].progressed, 0.0);
    EXPECT_GT(reports[0].mean_duration, 0.0);
    EXPECT_GT(reports[2].mean_duration, 0.0);
    // Class utilizations partition the weighted utilization.
    const double total = comm.utilization().weightedUtilization();
    EXPECT_NEAR(reports[0].utilization + reports[1].utilization +
                    reports[2].utilization,
                total, 1e-9);
    EXPECT_GT(reports[0].utilization, 0.0);
    EXPECT_GT(reports[2].utilization, 0.0);
}

TEST(ClassStats, UniformPolicyCollapsesToOneClass)
{
    const Topology topo = presets::byName("2D-SW_SW");
    EventQueue queue;
    runtime::CommRuntime comm(queue, topo,
                              runtime::themisScfConfig());
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 1.0e8;
    req.priority_tier = static_cast<int>(PriorityTier::Urgent);
    comm.issue(req);
    req.priority_tier = static_cast<int>(PriorityTier::Bulk);
    comm.issue(req);
    queue.run();
    comm.finalizeStats();
    const auto reports = comm.classReports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].issued, 2);
    EXPECT_EQ(reports[0].completed, 2);
}

TEST(ClassStats, WeightsImproveUrgentCompletionAndConserveBytes)
{
    // Two tenants share every dimension: an urgent chain of small
    // All-Reduces (each issued as the previous completes) and a bulk
    // batch issued at t=0, under tiered weight ratios 1 to 8 on two
    // platforms. The aggregate bytes must not change with the ratio,
    // and the urgent mean at 8x must beat the unit-weight split (the
    // curve between is locally noisy: admission is discrete).
    auto run = [](const Topology& topo, double ratio) {
        runtime::RuntimeConfig cfg = runtime::themisScfConfig();
        cfg.scheduler = SchedulerKind::ThemisPriority;
        cfg.priority = PriorityPolicy::tiered(ratio);
        EventQueue queue;
        runtime::CommRuntime comm(queue, topo, cfg);
        int remaining = 8;
        std::vector<int> ids;
        std::function<void()> chain = [&] {
            if (remaining-- <= 0)
                return;
            CollectiveRequest r;
            r.type = CollectiveType::AllReduce;
            r.size = 3.2e7;
            r.chunks = 8;
            r.priority_tier = static_cast<int>(PriorityTier::Urgent);
            ids.push_back(comm.issue(r, [&] { chain(); }));
        };
        chain();
        for (int i = 0; i < 4; ++i) {
            CollectiveRequest r;
            r.type = CollectiveType::AllReduce;
            r.size = 2.56e8;
            r.priority_tier = static_cast<int>(PriorityTier::Bulk);
            comm.issue(r);
        }
        queue.run();
        TimeNs mean = 0.0;
        for (int id : ids)
            mean += comm.record(id).duration();
        mean /= static_cast<double>(ids.size());
        Bytes total = 0.0;
        for (int d = 0; d < topo.numDims(); ++d) {
            comm.engine(d).channel().sync();
            total += comm.engine(d).channel().progressedBytes();
        }
        return std::pair<TimeNs, Bytes>{mean, total};
    };
    for (const char* name : {"2D-SW_SW", "3D-SW_SW_SW_homo"}) {
        const Topology topo = presets::byName(name);
        const auto flat = run(topo, 1.0);
        for (double ratio : {2.0, 4.0, 8.0}) {
            const auto weighted = run(topo, ratio);
            EXPECT_NEAR(weighted.second, flat.second, 1e-6 * flat.second)
                << name << " x" << ratio;
            if (ratio == 8.0) {
                EXPECT_LT(weighted.first, flat.first) << name;
            }
        }
    }
}

} // namespace
} // namespace themis
