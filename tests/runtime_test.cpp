/**
 * @file
 * End-to-end runtime tests: chunk pipelines on the event simulator.
 * The headline case reproduces the paper's Fig 5 worked example —
 * baseline scheduling finishes the 256MB All-Reduce in 8 time units,
 * Themis+SCF in 7 — and the enforced consistent ordering (Sec 4.6)
 * must not change the result.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <tuple>

#include "core/ideal_estimator.hpp"
#include "runtime/comm_runtime.hpp"
#include "topology/presets.hpp"

namespace themis::runtime {
namespace {

/** Fig 5 platform: 4x4 switches, 48/24 GB/s, no step latency. */
Topology
fig5Topology()
{
    DimensionConfig d1, d2;
    d1.kind = d2.kind = DimKind::Switch;
    d1.size = d2.size = 4;
    d1.link_bw_gbps = 384.0; // 48 GB/s
    d2.link_bw_gbps = 192.0; // 24 GB/s
    d1.links_per_npu = d2.links_per_npu = 1;
    d1.step_latency_ns = d2.step_latency_ns = 0.0;
    return Topology("fig5", {d1, d2});
}

/** One time unit of Fig 5: 64MB RS on dim1 = 48MB / 48 GB/s = 1 ms. */
constexpr TimeNs kUnit = 1.0e6;

TimeNs
runSingleAllReduce(const Topology& topo, const RuntimeConfig& cfg,
                   Bytes size, int chunks)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, topo, cfg);
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = size;
    req.chunks = chunks;
    const int id = comm.issue(req);
    queue.run();
    comm.finalizeStats();
    EXPECT_TRUE(comm.record(id).done());
    return comm.record(id).duration();
}

TEST(RuntimeFig5, BaselineTakesEightUnits)
{
    const TimeNs t = runSingleAllReduce(fig5Topology(),
                                        baselineConfig(), 256.0e6, 4);
    EXPECT_NEAR(t, 8.0 * kUnit, 1e-3 * kUnit);
}

TEST(RuntimeFig5, ThemisScfTakesSevenUnits)
{
    const TimeNs t = runSingleAllReduce(fig5Topology(),
                                        themisScfConfig(), 256.0e6, 4);
    EXPECT_NEAR(t, 7.0 * kUnit, 1e-3 * kUnit);
}

TEST(RuntimeFig5, ThemisBeatsBaseline)
{
    const TimeNs baseline = runSingleAllReduce(
        fig5Topology(), baselineConfig(), 256.0e6, 4);
    const TimeNs themis = runSingleAllReduce(
        fig5Topology(), themisScfConfig(), 256.0e6, 4);
    EXPECT_LT(themis, baseline);
}

/** One op start on one dimension: identity and start time. */
struct Start
{
    int chunk = 0;
    int stage = 0;
    TimeNs at = 0.0;

    bool
    operator==(const Start& o) const
    {
        return chunk == o.chunk && stage == o.stage && at == o.at;
    }
};

/** A lone All-Reduce on a fresh runtime at t = 0: its duration and
 *  every dimension's op starts. */
struct LoneRun
{
    TimeNs duration = 0.0;
    std::vector<std::vector<Start>> starts;
};

LoneRun
runLoneAllReduce(const Topology& topo, const RuntimeConfig& cfg,
                 Bytes size, int chunks)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, topo, cfg);
    LoneRun out;
    out.starts.resize(static_cast<std::size_t>(topo.numDims()));
    for (int d = 0; d < topo.numDims(); ++d) {
        auto* dim = &out.starts[static_cast<std::size_t>(d)];
        comm.engine(d).setStartListener([dim, &queue](const OpTag& t) {
            dim->push_back(Start{t.chunk_id, t.stage_index, queue.now()});
        });
    }
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = size;
    req.chunks = chunks;
    const int id = comm.issue(req);
    queue.run();
    EXPECT_TRUE(comm.record(id).done());
    out.duration = comm.record(id).duration();
    return out;
}

TEST(RuntimeFig5, ShadowSimEnforcementReproducesPolicyExactly)
{
    // A collective alone on a fresh fabric at t = 0 is exactly the
    // shadow simulation that derives its enforced orders, so enforcing
    // them changes nothing: durations, per-dimension start orders and
    // start times agree bit for bit with the free-running policy.
    std::vector<Topology> topos = presets::nextGenTopologies();
    topos.push_back(fig5Topology());
    for (const Topology& topo : topos) {
        for (const auto& base : {baselineConfig(), themisFifoConfig(),
                                 themisScfConfig()}) {
            for (const int chunks : {16, 256}) {
                SCOPED_TRACE(topo.name() + " " +
                             schedulerKindName(base.scheduler) + "/" +
                             intraDimPolicyName(base.intra_policy) + " " +
                             std::to_string(chunks) + " chunks");
                auto enforced = base;
                enforced.enforce_consistent_order = true;
                const LoneRun free =
                    runLoneAllReduce(topo, base, 256.0e6, chunks);
                const LoneRun pinned =
                    runLoneAllReduce(topo, enforced, 256.0e6, chunks);
                EXPECT_EQ(free.duration, pinned.duration);
                EXPECT_TRUE(free.starts == pinned.starts);
            }
        }
    }
}

TEST(RuntimeFig5, EnforcedOrderIsDeterministic)
{
    auto cfg = themisScfConfig();
    cfg.enforce_consistent_order = true;
    const TimeNs a =
        runSingleAllReduce(fig5Topology(), cfg, 256.0e6, 4);
    const TimeNs b =
        runSingleAllReduce(fig5Topology(), cfg, 256.0e6, 4);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(RuntimeSingleDim, MatchesClosedFormOpTime)
{
    // One dimension, one chunk: duration == A + N*B exactly.
    DimensionConfig d;
    d.kind = DimKind::Ring;
    d.size = 16;
    d.link_bw_gbps = 100.0;
    d.links_per_npu = 2;
    d.step_latency_ns = 500.0;
    Topology topo("1d", {d});

    const Bytes size = 32.0e6;
    const TimeNs t = runSingleAllReduce(topo, baselineConfig(), size, 1);
    // Ring AR: RS + AG, each 15 steps * 500 ns + 30MB / 25 GB/s.
    const TimeNs expect =
        2.0 * (15.0 * 500.0 + (size * 15.0 / 16.0) / 25.0);
    EXPECT_NEAR(t, expect, 1.0);
}

TEST(RuntimeSingleDim, ChunkingAddsLatencyButNotBandwidthTime)
{
    DimensionConfig d;
    d.kind = DimKind::Switch;
    d.size = 8;
    d.link_bw_gbps = 800.0;
    d.links_per_npu = 1;
    d.step_latency_ns = 1000.0;
    Topology topo("1d", {d});
    // Serial chunks each pay their own fixed delay.
    const TimeNs t1 =
        runSingleAllReduce(topo, baselineConfig(), 64.0e6, 1);
    const TimeNs t8 =
        runSingleAllReduce(topo, baselineConfig(), 64.0e6, 8);
    EXPECT_GT(t8, t1);
    // The extra cost is bounded by the extra fixed delays.
    EXPECT_LT(t8 - t1, 8.0 * 6.0 * 1000.0);
}

TEST(Runtime, UtilizationMatchesHandCount)
{
    // Baseline on Fig 5: 480 MB progressed over 8 units of 72 GB/s.
    sim::EventQueue queue;
    CommRuntime comm(queue, fig5Topology(), baselineConfig());
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 256.0e6;
    req.chunks = 4;
    comm.issue(req);
    queue.run();
    comm.finalizeStats();
    EXPECT_NEAR(comm.utilization().weightedUtilization(),
                480.0 / 576.0, 1e-6);
}

TEST(Runtime, ThemisScfUtilizationHigher)
{
    auto run_util = [&](const RuntimeConfig& cfg) {
        sim::EventQueue queue;
        CommRuntime comm(queue, fig5Topology(), cfg);
        CollectiveRequest req;
        req.type = CollectiveType::AllReduce;
        req.size = 256.0e6;
        req.chunks = 4;
        comm.issue(req);
        queue.run();
        comm.finalizeStats();
        return comm.utilization().weightedUtilization();
    };
    const double u_base = run_util(baselineConfig());
    const double u_scf = run_util(themisScfConfig());
    EXPECT_GT(u_scf, u_base);
    // 480 MB over 7 units of 72 GB/s-units: ~95.2% utilization.
    EXPECT_NEAR(u_scf, 480.0 / (72.0 * 7.0), 1e-6);
}

TEST(Runtime, PerDimUtilizationBounded)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make3DSwSwSwHomo(),
                     themisScfConfig());
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 1.0e8;
    req.chunks = 64;
    comm.issue(req);
    queue.run();
    comm.finalizeStats();
    for (double u : comm.utilization().perDimUtilization()) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0 + 1e-9);
    }
}

TEST(Runtime, ActivityIntervalsCoverBaselineBottleneck)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, fig5Topology(), baselineConfig());
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 256.0e6;
    req.chunks = 4;
    const int id = comm.issue(req);
    queue.run();
    comm.finalizeStats();
    // dim1 is busy the whole collective under baseline scheduling.
    EXPECT_NEAR(comm.activity().busyTime(0),
                comm.record(id).duration(), 1.0);
    // dim2 has ops present from the first chunk's RS completion until
    // the last AG feeds back, but far less transfer time.
    EXPECT_GT(comm.activity().busyTime(1), 0.0);
}

TEST(Runtime, ScopedCollectiveUsesOnlyScopedDims)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make3DSwSwSwHomo(),
                     themisScfConfig());
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 1.0e7;
    req.chunks = 8;
    req.scope = {ScopeDim{2, 0}}; // last dimension only
    comm.issue(req);
    queue.run();
    comm.finalizeStats();
    comm.engine(0).channel().sync();
    comm.engine(1).channel().sync();
    comm.engine(2).channel().sync();
    EXPECT_DOUBLE_EQ(comm.engine(0).channel().progressedBytes(), 0.0);
    EXPECT_DOUBLE_EQ(comm.engine(1).channel().progressedBytes(), 0.0);
    EXPECT_GT(comm.engine(2).channel().progressedBytes(), 0.0);
}

TEST(Runtime, SubGroupScopeShrinksCollective)
{
    // An 8-NPU sub-group of the 64-wide dim2 moves less data and
    // finishes sooner than the full dimension.
    const auto topo = presets::make2DSwSw();
    auto run_scoped = [&](int participants) {
        sim::EventQueue queue;
        CommRuntime comm(queue, topo, themisScfConfig());
        CollectiveRequest req;
        req.type = CollectiveType::AllReduce;
        req.size = 6.4e7;
        req.chunks = 8;
        req.scope = {ScopeDim{1, participants}};
        const int id = comm.issue(req);
        queue.run();
        return comm.record(id).duration();
    };
    EXPECT_LT(run_scoped(8), run_scoped(64));
}

TEST(Runtime, ConcurrentCollectivesBothComplete)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make3DSwSwSwHetero(),
                     themisScfConfig());
    CollectiveRequest a;
    a.type = CollectiveType::AllReduce;
    a.size = 5.0e7;
    a.chunks = 16;
    CollectiveRequest b = a;
    b.type = CollectiveType::AllGather;
    int done = 0;
    comm.issue(a, [&] { ++done; });
    comm.issue(b, [&] { ++done; });
    EXPECT_EQ(comm.outstanding(), 2);
    queue.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(comm.outstanding(), 0);
}

TEST(Runtime, BackToBackCollectivesSeparateWindows)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, fig5Topology(), baselineConfig());
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 64.0e6;
    req.chunks = 4;
    comm.issue(req, [&] {
        // Re-issue 1 ms after the first completes: the idle gap must
        // not count towards comm-active time.
        queue.scheduleAfter(1.0e6, [&] { comm.issue(req); });
    });
    queue.run();
    comm.finalizeStats();
    const auto& recs = comm.records();
    ASSERT_EQ(recs.size(), 2u);
    const TimeNs busy =
        recs[0].duration() + recs[1].duration();
    EXPECT_NEAR(comm.utilization().activeTime(), busy, 1.0);
}

TEST(Runtime, AllToAllCompletesOnEveryPreset)
{
    for (const auto& topo : presets::nextGenTopologies()) {
        sim::EventQueue queue;
        CommRuntime comm(queue, topo, themisScfConfig());
        CollectiveRequest req;
        req.type = CollectiveType::AllToAll;
        req.size = 1.7e6;
        req.chunks = 4;
        const int id = comm.issue(req);
        queue.run();
        EXPECT_TRUE(comm.record(id).done()) << topo.name();
        EXPECT_GT(comm.record(id).duration(), 0.0) << topo.name();
    }
}

TEST(Runtime, WarmCollectiveLooksUpEachStepKeyOnce)
{
    // Every op of a stage shares its (phase, entering, dimension)
    // step key: a warm collective asks the plan cache once per
    // distinct key, not once per op.
    const auto topo = presets::make3DSwSwSwHetero();
    const LatencyModel model = LatencyModel::fromTopology(topo);
    PlanCache cache;
    RuntimeConfig cfg = themisScfConfig();
    cfg.plan_cache = &cache;
    sim::EventQueue queue;
    CommRuntime comm(queue, topo, cfg);
    std::set<std::tuple<int, std::uint64_t, std::uint64_t>> keys;
    std::size_t ops = 0;
    for (int d = 0; d < topo.numDims(); ++d) {
        comm.engine(d).setFinishListener(
            [&](const ChunkOp& op, TimeNs) {
                ++ops;
                std::uint64_t bits = 0;
                std::memcpy(&bits, &op.entering, sizeof bits);
                keys.emplace(static_cast<int>(op.phase), bits,
                             model.dimFingerprint(op.local_dim));
            });
    }
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 1.0e8;
    req.chunks = 64;
    comm.issue(req); // cold: fills the plan cache
    queue.run();
    for (int rep = 0; rep < 2; ++rep) {
        keys.clear();
        ops = 0;
        const PlanCache::Stats before = cache.stats();
        comm.issue(req);
        queue.run();
        const PlanCache::Stats after = cache.stats();
        EXPECT_EQ(after.step_misses, before.step_misses);
        EXPECT_GT(ops, 2 * keys.size());
        EXPECT_EQ(after.step_hits - before.step_hits, keys.size());
    }
}

TEST(Runtime, RecordsTrackIssueAndCompletion)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, fig5Topology(), themisScfConfig());
    queue.scheduleAfter(5.0e5, [&] {
        CollectiveRequest req;
        req.type = CollectiveType::ReduceScatter;
        req.size = 64.0e6;
        req.chunks = 4;
        comm.issue(req);
    });
    queue.run();
    const auto& rec = comm.record(0);
    EXPECT_DOUBLE_EQ(rec.issued, 5.0e5);
    EXPECT_GT(rec.completed, rec.issued);
    EXPECT_EQ(rec.type, CollectiveType::ReduceScatter);
}

TEST(Ideal, FormulaMatchesTable3)
{
    const auto model =
        LatencyModel::fromTopology(presets::make3DSwSwSwHomo());
    // 2400 Gb/s total = 300 GB/s; AR moves the data twice.
    EXPECT_NEAR(
        idealCollectiveTime(CollectiveType::AllReduce, 1.0e9, model),
        2.0e9 / 300.0, 1e-6);
    EXPECT_NEAR(
        idealCollectiveTime(CollectiveType::AllGather, 1.0e9, model),
        1.0e9 / 300.0, 1e-6);
}

} // namespace
} // namespace themis::runtime
