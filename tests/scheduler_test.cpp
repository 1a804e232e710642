/**
 * @file
 * Tests of Algorithm 1: the Themis greedy scheduler, its robustness
 * threshold, the baseline scheduler and the splitter. The central
 * case reproduces the paper's Fig 7 walkthrough chunk by chunk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "core/baseline_scheduler.hpp"
#include "core/splitter.hpp"
#include "core/themis_scheduler.hpp"
#include "topology/presets.hpp"

namespace themis {
namespace {

/** The Fig 5/Fig 7 platform: 4x4, BW(dim1) = 2*BW(dim2), no latency. */
LatencyModel
fig5Model()
{
    DimensionConfig d1, d2;
    d1.kind = d2.kind = DimKind::Switch;
    d1.size = d2.size = 4;
    d1.link_bw_gbps = 384.0; // 48 GB/s
    d2.link_bw_gbps = 192.0; // 24 GB/s
    d1.links_per_npu = d2.links_per_npu = 1;
    d1.step_latency_ns = d2.step_latency_ns = 0.0;
    return LatencyModel({d1, d2});
}

std::vector<int>
rsOrder(const ChunkSchedule& sched)
{
    std::vector<int> order;
    for (const auto& st : sched.stages) {
        if (st.phase == Phase::ReduceScatter)
            order.push_back(st.dim);
    }
    return order;
}

std::vector<int>
agOrder(const ChunkSchedule& sched)
{
    std::vector<int> order;
    for (const auto& st : sched.stages) {
        if (st.phase == Phase::AllGather)
            order.push_back(st.dim);
    }
    return order;
}

TEST(Splitter, EqualChunks)
{
    const auto chunks = splitCollective(256.0e6, 4);
    ASSERT_EQ(chunks.size(), 4u);
    for (const auto c : chunks)
        EXPECT_DOUBLE_EQ(c, 64.0e6);
}

TEST(Splitter, RejectsBadInput)
{
    EXPECT_THROW(splitCollective(0.0, 4), ConfigError);
    EXPECT_THROW(splitCollective(1.0e6, 0), ConfigError);
}

TEST(BaselineSched, AllChunksIdenticalFixedOrder)
{
    const auto model = fig5Model();
    BaselineScheduler sched(model);
    const auto out =
        sched.scheduleCollective(CollectiveType::AllReduce, 256.0e6, 4);
    ASSERT_EQ(out.size(), 4u);
    for (const auto& c : out) {
        EXPECT_EQ(rsOrder(c), (std::vector<int>{0, 1}));
        EXPECT_EQ(agOrder(c), (std::vector<int>{1, 0}));
        EXPECT_DOUBLE_EQ(c.size, 64.0e6);
    }
}

TEST(ThemisSched, ReproducesFig7ChunkDecisions)
{
    // Paper Fig 7: chunk 1 follows the baseline (loads balanced at
    // reset), chunk 2 starts at dim2 to fill its gap, chunks 3 and 4
    // start at dim1 to fill the now-overloaded dim2's gap.
    const auto model = fig5Model();
    ThemisScheduler sched(model);
    const auto out =
        sched.scheduleCollective(CollectiveType::AllReduce, 256.0e6, 4);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(rsOrder(out[0]), (std::vector<int>{0, 1})) << "chunk 1";
    EXPECT_EQ(rsOrder(out[1]), (std::vector<int>{1, 0})) << "chunk 2";
    EXPECT_EQ(rsOrder(out[2]), (std::vector<int>{0, 1})) << "chunk 3";
    EXPECT_EQ(rsOrder(out[3]), (std::vector<int>{0, 1})) << "chunk 4";
}

TEST(ThemisSched, AgPassMirrorsRsPass)
{
    const auto model =
        LatencyModel::fromTopology(presets::make3DSwSwSwHetero());
    ThemisScheduler sched(model);
    const auto out =
        sched.scheduleCollective(CollectiveType::AllReduce, 1.0e9, 64);
    for (const auto& c : out) {
        auto rs = rsOrder(c);
        const auto ag = agOrder(c);
        std::reverse(rs.begin(), rs.end());
        EXPECT_EQ(ag, rs) << "chunk " << c.chunk_id;
    }
}

TEST(ThemisSched, EveryChunkIsAValidPermutation)
{
    const auto model =
        LatencyModel::fromTopology(presets::make4DRingFcRingSw());
    ThemisScheduler sched(model);
    const auto out =
        sched.scheduleCollective(CollectiveType::AllReduce, 0.5e9, 64);
    for (const auto& c : out) {
        auto rs = rsOrder(c);
        std::sort(rs.begin(), rs.end());
        EXPECT_EQ(rs, (std::vector<int>{0, 1, 2, 3}));
        EXPECT_EQ(c.stages.size(), 8u);
    }
}

TEST(ThemisSched, BalancesTrackedLoads)
{
    // After scheduling many chunks, the max/min tracked-load gap must
    // be far smaller than under baseline accounting.
    const auto model =
        LatencyModel::fromTopology(presets::make3DSwSwSwHomo());
    ThemisScheduler sched(model);
    sched.scheduleCollective(CollectiveType::AllReduce, 1.0e9, 64);
    const auto& loads = sched.trackedLoads();
    const double max = *std::max_element(loads.begin(), loads.end());
    const double min = *std::min_element(loads.begin(), loads.end());
    EXPECT_LT((max - min) / max, 0.10);

    // Baseline load accounting on the same collective: dim1 carries
    // ~16x dim2's time load, a gap of >90%.
    DimLoadTracker baseline_tracker(model);
    baseline_tracker.reset(CollectiveType::AllReduce);
    for (int i = 0; i < 64; ++i) {
        baseline_tracker.add(model.stageLoads(
            1.0e9 / 64,
            makeStages(CollectiveType::ReduceScatter, {0, 1, 2}, {})));
    }
    const auto& bl = baseline_tracker.loads();
    const double bmax = *std::max_element(bl.begin(), bl.end());
    const double bmin = *std::min_element(bl.begin(), bl.end());
    EXPECT_GT((bmax - bmin) / bmax, 0.90);
}

TEST(ThemisSched, DisabledThresholdSortsFromChunkOne)
{
    // Without the threshold (an urgent flow under the priority-aware
    // variant), the very first chunk sorts by the A_K seeded loads
    // instead of following the baseline.
    const auto model =
        LatencyModel::fromTopology(presets::make3DSwSwSwHomo());
    ThemisScheduler sched(model, ThemisConfig{},
                          /*priority_aware=*/true);
    const FlowClass urgent{static_cast<int>(PriorityTier::Urgent),
                           4.0};
    const auto out = sched.scheduleCollective(CollectiveType::AllReduce,
                                              1.0e9, 64, urgent);
    // A_K(AR): dim1 = 8*700ns, dim2/3 = 6*700ns / 6*1700ns -> dim2 is
    // the least loaded at reset, so chunk 1 starts there.
    EXPECT_EQ(rsOrder(out[0])[0], 1);
}

TEST(ThemisSched, ReduceScatterOnlyUsesAscendingOrders)
{
    const auto model =
        LatencyModel::fromTopology(presets::make3DSwSwSwHetero());
    ThemisScheduler sched(model);
    const auto out = sched.scheduleCollective(
        CollectiveType::ReduceScatter, 1.0e9, 64);
    for (const auto& c : out) {
        EXPECT_EQ(c.stages.size(), 3u);
        for (const auto& st : c.stages)
            EXPECT_EQ(st.phase, Phase::ReduceScatter);
    }
    // Later chunks must deviate from the baseline to balance loads.
    bool deviated = false;
    for (const auto& c : out)
        deviated = deviated || rsOrder(c) != std::vector<int>({0, 1, 2});
    EXPECT_TRUE(deviated);
}

TEST(ThemisSched, AllGatherOnlyStartsAtOuterDims)
{
    const auto model =
        LatencyModel::fromTopology(presets::make3DSwSwSwHetero());
    ThemisScheduler sched(model);
    const auto out =
        sched.scheduleCollective(CollectiveType::AllGather, 1.0e9, 64);
    // Chunk 1 is balanced-at-reset -> baseline AG order dim3..dim1.
    EXPECT_EQ(agOrder(out[0]), (std::vector<int>{2, 1, 0}));
    for (const auto& c : out)
        for (const auto& st : c.stages)
            EXPECT_EQ(st.phase, Phase::AllGather);
}

TEST(ThemisSched, AllToAllKeepsBaselineOrder)
{
    const auto model =
        LatencyModel::fromTopology(presets::make3DSwSwSwHetero());
    ThemisScheduler sched(model);
    const auto out =
        sched.scheduleCollective(CollectiveType::AllToAll, 1.0e8, 16);
    for (const auto& c : out) {
        std::vector<int> dims;
        for (const auto& st : c.stages) {
            EXPECT_EQ(st.phase, Phase::AllToAll);
            dims.push_back(st.dim);
        }
        EXPECT_EQ(dims, (std::vector<int>{0, 1, 2}));
    }
}

TEST(ThemisSched, TrackerResetsBetweenCollectives)
{
    const auto model = fig5Model();
    ThemisScheduler sched(model);
    const auto first =
        sched.scheduleCollective(CollectiveType::AllReduce, 256.0e6, 4);
    const auto second =
        sched.scheduleCollective(CollectiveType::AllReduce, 256.0e6, 4);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].stages, second[i].stages) << "chunk " << i;
}

TEST(SchedulerFactory, MakesBothKinds)
{
    const auto model = fig5Model();
    EXPECT_EQ(makeScheduler(SchedulerKind::Baseline, model)->name(),
              "Baseline");
    EXPECT_EQ(makeScheduler(SchedulerKind::Themis, model)->name(),
              "Themis");
    EXPECT_EQ(schedulerKindName(SchedulerKind::Themis), "Themis");
}

TEST(DimLoadTracker, ResetSeedsFixedDelays)
{
    const auto model =
        LatencyModel::fromTopology(presets::make3DSwSwSwHomo());
    DimLoadTracker tracker(model);
    tracker.reset(CollectiveType::AllReduce);
    const auto& loads = tracker.loads();
    // dim1: 16-wide switch -> 2*4 steps * 700 ns.
    EXPECT_DOUBLE_EQ(loads[0], 8.0 * 700.0);
    // dim3: 8-wide switch -> 2*3 steps * 1700 ns.
    EXPECT_DOUBLE_EQ(loads[2], 6.0 * 1700.0);
    tracker.reset(CollectiveType::AllReduce, false);
    for (const auto l : tracker.loads())
        EXPECT_DOUBLE_EQ(l, 0.0);
}

TEST(DimLoadTracker, AddAndExtremes)
{
    const auto model = fig5Model();
    DimLoadTracker tracker(model);
    tracker.reset(CollectiveType::AllReduce, false);
    tracker.add({3.0, 1.0});
    tracker.add({0.5, 1.0});
    EXPECT_DOUBLE_EQ(tracker.maxLoad(), 3.5);
    EXPECT_DOUBLE_EQ(tracker.minLoad(), 2.0);
    EXPECT_EQ(tracker.minLoadDim(), 1);
}

} // namespace
} // namespace themis
