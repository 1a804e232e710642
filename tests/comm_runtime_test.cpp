/**
 * @file
 * CommRuntime facade tests: scope normalization and caching, record
 * bookkeeping, trace integration, utilization windows across
 * overlapping scoped collectives, and error paths.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "runtime/comm_runtime.hpp"
#include "stats/trace_writer.hpp"
#include "topology/presets.hpp"

namespace themis::runtime {
namespace {

CollectiveRequest
request(CollectiveType type, Bytes size, int chunks,
        std::vector<ScopeDim> scope = {})
{
    CollectiveRequest req;
    req.type = type;
    req.size = size;
    req.chunks = chunks;
    req.scope = std::move(scope);
    return req;
}

TEST(CommRuntime, ScopeNormalizationErrors)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make3DSwSwSwHomo(),
                     themisScfConfig());
    auto issue = [&](std::vector<ScopeDim> scope) {
        comm.issue(request(CollectiveType::AllReduce, 1.0e6, 2,
                           std::move(scope)));
    };
    EXPECT_THROW(issue({ScopeDim{3, 0}}), ConfigError);   // no dim 3
    EXPECT_THROW(issue({ScopeDim{1, 0}, ScopeDim{0, 0}}), // unordered
                 ConfigError);
    EXPECT_THROW(issue({ScopeDim{0, 32}}), ConfigError);  // too big
    EXPECT_THROW(issue({ScopeDim{0, 1}}), ConfigError);   // degenerate
}

TEST(CommRuntime, DefaultChunksApplied)
{
    sim::EventQueue queue;
    auto cfg = themisScfConfig();
    cfg.default_chunks = 7;
    CommRuntime comm(queue, presets::make2DSwSw(), cfg);
    comm.issue(request(CollectiveType::AllReduce, 7.0e6, 0));
    queue.run();
    // 7 chunks x (RS+AG on 2 dims) = 28 ops over both engines.
    EXPECT_EQ(comm.engine(0).completedCount() +
                  comm.engine(1).completedCount(),
              28u);
}

TEST(CommRuntime, OverlappingScopedCollectivesShareOneWindow)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make3DSwSwSwHomo(),
                     themisScfConfig());
    // Two disjoint-scope collectives issued together: one
    // communication-active window covering both.
    comm.issue(request(CollectiveType::AllReduce, 64.0e6, 8,
                       {ScopeDim{0, 0}}));
    comm.issue(request(CollectiveType::AllReduce, 64.0e6, 8,
                       {ScopeDim{2, 0}}));
    queue.run();
    comm.finalizeStats();
    const TimeNs t0 = comm.record(0).duration();
    const TimeNs t1 = comm.record(1).duration();
    EXPECT_NEAR(comm.utilization().activeTime(), std::max(t0, t1),
                1.0);
}

TEST(CommRuntime, TraceCapturesEveryOp)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make2DSwSw(),
                     themisScfConfig());
    stats::TraceWriter trace;
    comm.attachTrace(trace);
    comm.issue(request(CollectiveType::AllReduce, 16.0e6, 4));
    queue.run();
    // 4 chunks x 4 stages.
    EXPECT_EQ(trace.eventCount(), 16u);
    const std::string json = trace.toJson();
    EXPECT_NE(json.find("RS c0.s0"), std::string::npos);
    EXPECT_NE(json.find("AG c3.s3"), std::string::npos);
}

TEST(CommRuntime, RecordsKeepUserFacingSizes)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make2DSwSw(),
                     themisScfConfig());
    // AG records keep the gathered-result convention the caller used.
    const int id =
        comm.issue(request(CollectiveType::AllGather, 128.0e6, 8));
    queue.run();
    EXPECT_DOUBLE_EQ(comm.record(id).size, 128.0e6);
    EXPECT_EQ(comm.record(id).scope.size(), 2u);
    EXPECT_EQ(comm.record(id).scope[0].participants, 16);
}

TEST(CommRuntime, ManySequentialCollectivesStayConsistent)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make3DSwSwSwHetero(),
                     themisScfConfig());
    CollectiveRequest req =
        request(CollectiveType::AllReduce, 4.0e6, 4);
    int completed = 0;
    std::function<void()> chain = [&] {
        ++completed;
        if (completed < 10)
            comm.issue(req, chain);
    };
    comm.issue(req, chain);
    queue.run();
    comm.finalizeStats();
    EXPECT_EQ(completed, 10);
    EXPECT_EQ(comm.outstanding(), 0);
    // All ten back-to-back collectives fall in one active window
    // (each issue happens inside the predecessor's completion).
    EXPECT_NEAR(comm.utilization().activeTime(),
                comm.records().back().completed -
                    comm.records().front().issued,
                1.0);
}

TEST(CommRuntime, EngineAccessorBoundsChecked)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make2DSwSw(),
                     themisScfConfig());
    EXPECT_DEATH(comm.engine(2), "bad dimension");
    EXPECT_DEATH(comm.record(0), "unknown collective");
}

TEST(CommRuntime, IndexedAndLegacyEngineSelectionAgree)
{
    // The indexed ready-set must pick the ops the retired linear
    // queue scan picked, in the same order — checked end-to-end
    // against the bit-exact completion times that scan produced,
    // across policies, collective types, and overlapping
    // collectives.
    struct Case
    {
        RuntimeConfig cfg;
        CollectiveType type;
        TimeNs a;
        TimeNs b;
    };
    const Case cases[] = {
        {baselineConfig(), CollectiveType::AllReduce,
         0x1.0b0ff8p+22, 0x1.22efbp+22},
        {baselineConfig(), CollectiveType::AllToAll,
         0x1.c0af695555555p+22, 0x1.0df753fffffffp+22},
        {themisFifoConfig(), CollectiveType::AllReduce,
         0x1.e7510f5555557p+21, 0x1.5bf3d48000002p+21},
        {themisFifoConfig(), CollectiveType::AllToAll,
         0x1.c0af695555555p+22, 0x1.0df753fffffffp+22},
        {themisScfConfig(), CollectiveType::AllReduce,
         0x1.89936d9555556p+21, 0x1.b5cd36aaaaaacp+19},
        {themisScfConfig(), CollectiveType::AllToAll,
         0x1.ee0843ffffffep+22, 0x1.f25e4aaaaaaaap+19},
    };
    for (const Case& c : cases) {
        sim::EventQueue queue;
        CommRuntime comm(queue, presets::make3DSwSwSwHetero(), c.cfg);
        const int a = comm.issue(request(c.type, 4.0e8, 24));
        // Overlap a second, scoped collective mid-flight.
        queue.runUntil(queue.now() + 1.0e5);
        const int b = comm.issue(request(
            c.type, 1.0e8, 8, {ScopeDim{0, 0}, ScopeDim{1, 0}}));
        queue.run();
        EXPECT_EQ(comm.record(a).duration(), c.a);
        EXPECT_EQ(comm.record(b).duration(), c.b);
    }
}

TEST(CommRuntime, IndexedSelectionHonorsEnforcedOrders)
{
    // Enforced orders park and promote ops in the ready set; the
    // result must match the retired linear scan's, recorded bit for
    // bit.
    RuntimeConfig cfg = themisScfConfig();
    cfg.enforce_consistent_order = true;
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make3DSwSwSwHetero(), cfg);
    const int id =
        comm.issue(request(CollectiveType::AllReduce, 4.0e8, 24));
    queue.run();
    EXPECT_EQ(comm.record(id).duration(), 0x1.56296a9555554p+21);
}

/** What one overlap epoch produced; see runOverlapEpoch(). */
struct OverlapEpoch
{
    TimeNs all_reduce = 0.0;
    TimeNs reduce_scatter = 0.0;
    std::uint64_t fingerprint = 0;
};

/**
 * One iteration epoch: an All-Reduce of 4e8 B in 16 chunks at t = 0,
 * overlapped by a Reduce-Scatter of 1e8 B in 8 chunks issued at
 * @p rs_at (at t = 0 right after the All-Reduce, or later from an
 * event while the All-Reduce is running).
 */
OverlapEpoch
runOverlapEpoch(CommRuntime& comm, sim::EventQueue& queue, TimeNs rs_at)
{
    comm.beginIterationEpoch();
    const int ar =
        comm.issue(request(CollectiveType::AllReduce, 4.0e8, 16));
    int rs = -1;
    auto issue_rs = [&] {
        rs = comm.issue(request(CollectiveType::ReduceScatter, 1.0e8, 8));
    };
    if (rs_at == 0.0)
        issue_rs();
    else
        queue.schedule(rs_at, issue_rs);
    queue.run();
    const CommRuntime::EpochStats stats = comm.finishIterationEpoch();
    return OverlapEpoch{comm.record(ar).duration(),
                        comm.record(rs).duration(), stats.fingerprint};
}

TEST(CommRuntime, OverlappingIssueKeepsEnforcedOrders)
{
    // A second issue while an enforced collective runs must not
    // change what the first one would have done under its orders, and
    // the second runs under its own. Enforcement visibly matters here:
    // the Reduce-Scatter runs differently when nothing is enforced.
    struct Case
    {
        TimeNs rs_at;
        TimeNs all_reduce;
        TimeNs reduce_scatter;
        std::uint64_t fingerprint;
    };
    const Case cases[] = {
        {0.0, 0x1.d278b7bp+21, 0x1.0179354p+20, 0x72db91cb5adf239ULL},
        {5.0e4, 0x1.d278b7bp+21, 0x1.ea886a8p+19, 0x28aecf1cb5adf239ULL},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.rs_at);
        RuntimeConfig cfg = themisScfConfig();
        cfg.enforce_consistent_order = true;
        PlanCache cache;
        for (PlanCache* pc : {static_cast<PlanCache*>(nullptr), &cache}) {
            SCOPED_TRACE(pc == nullptr ? "no cache" : "plan cache");
            cfg.plan_cache = pc;
            sim::EventQueue queue;
            CommRuntime comm(queue, presets::make2DSwSw(), cfg);
            // The second epoch runs on a rebased fabric (and, with a
            // cache, on the orders the first epoch stored).
            for (int epoch = 0; epoch < 2; ++epoch) {
                const OverlapEpoch e = runOverlapEpoch(comm, queue, c.rs_at);
                EXPECT_EQ(e.all_reduce, c.all_reduce);
                EXPECT_EQ(e.reduce_scatter, c.reduce_scatter);
                EXPECT_EQ(e.fingerprint, c.fingerprint);
            }
        }
        sim::EventQueue queue;
        CommRuntime free(queue, presets::make2DSwSw(), themisScfConfig());
        const OverlapEpoch e = runOverlapEpoch(free, queue, c.rs_at);
        EXPECT_NE(e.reduce_scatter, c.reduce_scatter);
    }
}

} // namespace
} // namespace themis::runtime
