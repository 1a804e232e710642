/**
 * @file
 * Data-plane demonstration of the paper's Observation 1: any order of
 * Reduce-Scatter stages followed by any order of All-Gather stages is
 * a correct All-Reduce — the freedom Themis exploits.
 *
 * Runs a chunked All-Reduce on a small 4x2x4 machine with *real*
 * per-NPU buffers: each chunk takes the schedule Themis assigned it,
 * data moves through ring/halving-doubling/direct exchanges, and the
 * result is verified element by element. Also prints the enforced
 * per-dimension start orders (Sec 4.6.2): those of the collective
 * running alone on the dimension engines.
 */

#include <cstdio>

#include "collective/dataplane/dataplane_collectives.hpp"
#include "common/string_util.hpp"
#include "core/themis_scheduler.hpp"
#include "runtime/collective_session.hpp"

using namespace themis;

int
main()
{
    // A small heterogeneous machine: ring x switch x clique.
    const std::vector<int> sizes{4, 2, 4};
    const std::vector<DimKind> kinds{DimKind::Ring, DimKind::Switch,
                                     DimKind::FullyConnected};
    LogicalMachine machine(sizes);

    // A latency model for the same shape (bandwidths arbitrary but
    // heterogeneous so Themis produces distinct chunk schedules).
    std::vector<DimensionConfig> dims(3);
    const double bws[3] = {800.0, 400.0, 200.0};
    for (int d = 0; d < 3; ++d) {
        dims[static_cast<std::size_t>(d)].kind =
            kinds[static_cast<std::size_t>(d)];
        dims[static_cast<std::size_t>(d)].size =
            sizes[static_cast<std::size_t>(d)];
        dims[static_cast<std::size_t>(d)].link_bw_gbps =
            bws[static_cast<std::size_t>(d)];
        dims[static_cast<std::size_t>(d)].links_per_npu =
            kinds[static_cast<std::size_t>(d)] ==
                    DimKind::FullyConnected
                ? sizes[static_cast<std::size_t>(d)] - 1
                : 1;
        dims[static_cast<std::size_t>(d)].step_latency_ns = 500.0;
    }
    const LatencyModel model(dims);

    // Themis schedules for a 4-chunk All-Reduce.
    ThemisScheduler scheduler(model);
    const auto schedules =
        scheduler.scheduleCollective(CollectiveType::AllReduce,
                                     4096.0, 4);
    std::printf("Themis chunk schedules (32 NPUs, 4x2x4):\n");
    for (const auto& sched : schedules)
        std::printf("  %s\n", describeSchedule(sched).c_str());

    // Execute every chunk on real data (independent element spaces).
    const auto seed = [](int npu, std::int64_t off) {
        return static_cast<DataValue>(npu) * 1000003 + off;
    };
    bool all_ok = true;
    for (const auto& sched : schedules) {
        std::vector<int> rs_order, ag_order;
        for (const auto& st : sched.stages) {
            if (st.phase == Phase::ReduceScatter)
                rs_order.push_back(st.dim);
            else
                ag_order.push_back(st.dim);
        }
        DataPlane dp(machine, kinds, machine.numNpus() * 4);
        dp.initFullReplicas(seed);
        dp.runAllReduce(rs_order, ag_order);
        const bool ok = dp.verifyAllReduced(seed);
        all_ok = all_ok && ok;
        std::printf("  chunk %d: data-plane All-Reduce %s\n",
                    sched.chunk_id, ok ? "correct" : "WRONG");
    }

    // The per-dimension op order every NPU enforces: the start order
    // of the collective's lone run.
    std::vector<std::pair<int, DimensionConfig>> indexed;
    for (int d = 0; d < 3; ++d)
        indexed.emplace_back(d, dims[static_cast<std::size_t>(d)]);
    const auto orders = runtime::loneRunStartOrders(
        CollectiveType::AllReduce, schedules, indexed, model,
        IntraDimPolicy::Scf);
    std::printf("\nEnforced per-dimension start orders (Sec 4.6):\n");
    for (std::size_t d = 0; d < orders.size(); ++d) {
        std::printf("  dim%zu:", d + 1);
        for (const auto& op : orders[d])
            std::printf(" c%d.s%d", op.chunk_id, op.stage_index);
        std::printf("\n");
    }
    std::printf("Deadlock-free: %s\n",
                planIsDeadlockFree(schedules, orders) ? "yes" : "NO");
    return all_ok ? 0 : 1;
}
