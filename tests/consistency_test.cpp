/**
 * @file
 * Tests of the schedule-consistency pre-simulation (paper Sec 4.6):
 * the lone-run start orders cover every chunk operation exactly once,
 * are deterministic, and are deadlock-free together with the chunks'
 * stage orders.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/baseline_scheduler.hpp"
#include "core/themis_scheduler.hpp"
#include "runtime/collective_session.hpp"
#include "topology/presets.hpp"

namespace themis {
namespace {

std::vector<ChunkSchedule>
themisSchedules(const LatencyModel& model, Bytes size, int chunks)
{
    ThemisScheduler sched(model);
    return sched.scheduleCollective(CollectiveType::AllReduce, size,
                                    chunks);
}

/** Start orders of @p schedules running alone on all of @p topo. */
std::vector<std::vector<OpKey>>
loneRunOrders(const Topology& topo, const LatencyModel& model,
              const std::vector<ChunkSchedule>& schedules,
              IntraDimPolicy policy)
{
    std::vector<std::pair<int, DimensionConfig>> dims;
    for (int d = 0; d < topo.numDims(); ++d)
        dims.emplace_back(d, topo.dim(d));
    return runtime::loneRunStartOrders(CollectiveType::AllReduce,
                                       schedules, dims, model, policy);
}

TEST(StartOrders, CoversEveryOpExactlyOnce)
{
    const auto topo = presets::make3DSwSwSwHetero();
    const auto model = LatencyModel::fromTopology(topo);
    const auto schedules = themisSchedules(model, 1.0e9, 16);
    const auto orders =
        loneRunOrders(topo, model, schedules, IntraDimPolicy::Scf);
    ASSERT_EQ(orders.size(), 3u);

    std::map<std::pair<int, int>, int> seen;
    std::size_t total = 0;
    for (int d = 0; d < 3; ++d) {
        for (const auto& op : orders[static_cast<std::size_t>(d)]) {
            ++seen[{op.chunk_id, op.stage_index}];
            ++total;
            // The op's stage must actually target this dimension.
            const auto& sched =
                schedules[static_cast<std::size_t>(op.chunk_id)];
            EXPECT_EQ(sched.stages[static_cast<std::size_t>(
                                       op.stage_index)]
                          .dim,
                      d);
        }
    }
    EXPECT_EQ(total, 16u * 6u); // 16 chunks x 2D stages (D=3)
    for (const auto& [key, count] : seen)
        EXPECT_EQ(count, 1);
}

TEST(StartOrders, DeterministicAcrossCalls)
{
    const auto topo = presets::make4DRingFcRingSw();
    const auto model = LatencyModel::fromTopology(topo);
    const auto schedules = themisSchedules(model, 0.5e9, 32);
    const auto a =
        loneRunOrders(topo, model, schedules, IntraDimPolicy::Scf);
    const auto b =
        loneRunOrders(topo, model, schedules, IntraDimPolicy::Scf);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t d = 0; d < a.size(); ++d) {
        ASSERT_EQ(a[d].size(), b[d].size());
        for (std::size_t i = 0; i < a[d].size(); ++i)
            EXPECT_TRUE(a[d][i] == b[d][i]);
    }
}

TEST(StartOrders, PlansAreDeadlockFree)
{
    for (const auto& topo : presets::nextGenTopologies()) {
        const auto model = LatencyModel::fromTopology(topo);
        const auto schedules = themisSchedules(model, 1.0e8, 16);
        for (auto policy :
             {IntraDimPolicy::Fifo, IntraDimPolicy::Scf}) {
            const auto orders =
                loneRunOrders(topo, model, schedules, policy);
            EXPECT_TRUE(planIsDeadlockFree(schedules, orders))
                << topo.name() << " / " << intraDimPolicyName(policy);
        }
    }
}

TEST(StartOrders, BaselineFirstDimOrderIsChunkOrder)
{
    // Baseline + FIFO: every chunk has the same schedule, so dim1
    // starts RS ops in chunk order.
    const auto topo = presets::make2DSwSw();
    const auto model = LatencyModel::fromTopology(topo);
    BaselineScheduler sched(model);
    const auto schedules =
        sched.scheduleCollective(CollectiveType::AllReduce, 2.56e8, 8);
    const auto orders =
        loneRunOrders(topo, model, schedules, IntraDimPolicy::Fifo);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(orders[0][static_cast<std::size_t>(i)].chunk_id, i);
        EXPECT_EQ(orders[0][static_cast<std::size_t>(i)].stage_index,
                  0);
    }
}

TEST(StartOrders, CyclicOrderIsDetectedAsDeadlock)
{
    // Hand-build a cyclic plan: chunk 0 stage 0 must run before
    // chunk 1 stage 0 on dim A, but chunk 1 stage... the reverse on
    // dim B, while stage order forces the opposite — a cycle.
    std::vector<ChunkSchedule> schedules(2);
    schedules[0].chunk_id = 0;
    schedules[0].size = 1.0;
    schedules[0].stages = {{Phase::ReduceScatter, 0},
                           {Phase::ReduceScatter, 1}};
    schedules[1].chunk_id = 1;
    schedules[1].size = 1.0;
    schedules[1].stages = {{Phase::ReduceScatter, 1},
                           {Phase::ReduceScatter, 0}};
    // dim0: chunk1.stage1 before chunk0.stage0;
    // dim1: chunk0.stage1 before chunk1.stage0 -> cycle.
    const std::vector<std::vector<OpKey>> bad = {
        {OpKey{1, 1}, OpKey{0, 0}}, {OpKey{0, 1}, OpKey{1, 0}}};
    EXPECT_FALSE(planIsDeadlockFree(schedules, bad));

    const std::vector<std::vector<OpKey>> good = {
        {OpKey{0, 0}, OpKey{1, 1}}, {OpKey{1, 0}, OpKey{0, 1}}};
    EXPECT_TRUE(planIsDeadlockFree(schedules, good));
}

} // namespace
} // namespace themis
