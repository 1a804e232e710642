/**
 * @file
 * Per-NPU backend tests: exact cross-validation against the
 * dimension-granular runtime on symmetric platforms, per-NPU byte
 * accounting, and the Sec 4.6.2 consistency story — skew can deadlock
 * free-running queues; the enforced lone-run order cannot, and
 * without skew it costs nothing.
 */

#include <gtest/gtest.h>

#include "core/baseline_scheduler.hpp"
#include "core/themis_scheduler.hpp"
#include "npu/npu_machine.hpp"
#include "runtime/comm_runtime.hpp"
#include "topology/presets.hpp"

namespace themis {
namespace {

/** Small heterogeneous platform (64 NPUs) for per-NPU runs. */
Topology
smallTopology()
{
    DimensionConfig d1, d2, d3;
    d1.kind = DimKind::Ring;
    d1.size = 4;
    d1.link_bw_gbps = 600.0;
    d1.links_per_npu = 2;
    d1.step_latency_ns = 100.0;
    d2.kind = DimKind::Switch;
    d2.size = 4;
    d2.link_bw_gbps = 400.0;
    d2.links_per_npu = 1;
    d2.step_latency_ns = 700.0;
    d3.kind = DimKind::FullyConnected;
    d3.size = 4;
    d3.link_bw_gbps = 100.0;
    d3.links_per_npu = 3;
    d3.step_latency_ns = 700.0;
    return Topology("small-4x4x4", {d1, d2, d3});
}

std::vector<ChunkSchedule>
themisSchedules(const Topology& topo, Bytes size, int chunks)
{
    const auto model = LatencyModel::fromTopology(topo);
    ThemisScheduler sched(model);
    return sched.scheduleCollective(CollectiveType::AllReduce, size,
                                    chunks);
}

/** Start orders of @p schedules running alone on all of @p topo. */
std::vector<std::vector<OpKey>>
loneRunOrders(const Topology& topo,
              const std::vector<ChunkSchedule>& schedules,
              IntraDimPolicy policy)
{
    std::vector<std::pair<int, DimensionConfig>> dims;
    for (int d = 0; d < topo.numDims(); ++d)
        dims.emplace_back(d, topo.dim(d));
    return runtime::loneRunStartOrders(
        CollectiveType::AllReduce, schedules, dims,
        LatencyModel::fromTopology(topo), policy);
}

TimeNs
frontendTime(const Topology& topo, const runtime::RuntimeConfig& cfg,
             Bytes size, int chunks)
{
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = size;
    req.chunks = chunks;
    const int id = comm.issue(req);
    queue.run();
    return comm.record(id).duration();
}

TEST(NpuBackend, CompletesOnSymmetricPlatform)
{
    const auto topo = smallTopology();
    const auto schedules = themisSchedules(topo, 64.0e6, 8);
    const auto result =
        npu::simulatePerNpu(topo, CollectiveType::AllReduce, schedules);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.stuck_ops, 0u);
    EXPECT_GT(result.makespan, 0.0);
}

TEST(NpuBackend, MatchesDimensionGranularRuntimeExactly)
{
    // The headline cross-validation: with zero skew every NPU behaves
    // identically and the per-NPU makespan equals the symmetric
    // runtime's duration.
    const auto topo = smallTopology();
    for (int chunks : {4, 16, 64}) {
        const Bytes size = 128.0e6;
        const auto schedules = themisSchedules(topo, size, chunks);
        npu::NpuSimConfig cfg;
        cfg.policy = IntraDimPolicy::Scf;
        const auto per_npu = npu::simulatePerNpu(
            topo, CollectiveType::AllReduce, schedules, cfg);
        ASSERT_TRUE(per_npu.completed);
        const TimeNs frontend = frontendTime(
            topo, runtime::themisScfConfig(), size, chunks);
        EXPECT_NEAR(per_npu.makespan, frontend, 1e-6 * frontend)
            << chunks << " chunks";
    }
}

TEST(NpuBackend, MatchesFrontendForBaselineFifoToo)
{
    const auto topo = smallTopology();
    const Bytes size = 96.0e6;
    const auto model = LatencyModel::fromTopology(topo);
    BaselineScheduler sched(model);
    const auto schedules = sched.scheduleCollective(
        CollectiveType::AllReduce, size, 16);
    npu::NpuSimConfig cfg;
    cfg.policy = IntraDimPolicy::Fifo;
    const auto per_npu = npu::simulatePerNpu(
        topo, CollectiveType::AllReduce, schedules, cfg);
    ASSERT_TRUE(per_npu.completed);
    const TimeNs frontend =
        frontendTime(topo, runtime::baselineConfig(), size, 16);
    EXPECT_NEAR(per_npu.makespan, frontend, 1e-6 * frontend);
}

TEST(NpuBackend, EveryNpuSendsIdenticalBytesWhenSymmetric)
{
    const auto topo = smallTopology();
    const auto schedules = themisSchedules(topo, 32.0e6, 8);
    const auto result =
        npu::simulatePerNpu(topo, CollectiveType::AllReduce, schedules);
    ASSERT_TRUE(result.completed);
    for (int d = 0; d < topo.numDims(); ++d) {
        const Bytes ref =
            result.egress_bytes[0][static_cast<std::size_t>(d)];
        EXPECT_GT(ref, 0.0);
        for (std::size_t n = 1; n < result.egress_bytes.size(); ++n) {
            EXPECT_NEAR(result.egress_bytes[n]
                                           [static_cast<std::size_t>(d)],
                        ref, 1.0)
                << "npu " << n << " dim " << d;
        }
    }
}

TEST(NpuBackend, SkewedFreeRunningQueuesCanDeadlock)
{
    // Sec 4.6.2: runtime variation makes chunks available in different
    // orders on different NPUs; with ops blocking their queue while
    // waiting for peers, some seed must wedge the machine.
    const auto topo = smallTopology();
    const auto schedules = themisSchedules(topo, 64.0e6, 16);
    bool deadlocked = false;
    for (std::uint64_t seed = 1; seed <= 20 && !deadlocked; ++seed) {
        npu::NpuSimConfig cfg;
        cfg.max_skew_ns = 50000.0;
        cfg.seed = seed;
        const auto result = npu::simulatePerNpu(
            topo, CollectiveType::AllReduce, schedules, cfg);
        deadlocked = !result.completed && result.stuck_ops > 0;
    }
    EXPECT_TRUE(deadlocked)
        << "no seed deadlocked; the consistency mechanism would be "
           "unnecessary";
}

TEST(NpuBackend, EnforcedLoneRunOrderCostsNothingWithoutSkew)
{
    // Without skew every NPU runs the collective exactly as its lone
    // run did, so enforcing that run's start orders changes nothing:
    // the per-NPU makespan equals the free-running one bit for bit,
    // and matches the runtime's enforced duration.
    const auto topo = smallTopology();
    const Bytes size = 128.0e6;
    for (auto policy : {IntraDimPolicy::Scf, IntraDimPolicy::Fifo}) {
        auto runtime_cfg = policy == IntraDimPolicy::Scf
                               ? runtime::themisScfConfig()
                               : runtime::themisFifoConfig();
        runtime_cfg.enforce_consistent_order = true;
        for (int chunks : {4, 16, 64}) {
            const auto schedules = themisSchedules(topo, size, chunks);
            npu::NpuSimConfig cfg;
            cfg.policy = policy;
            const auto free_running = npu::simulatePerNpu(
                topo, CollectiveType::AllReduce, schedules, cfg);
            cfg.enforced_order = loneRunOrders(topo, schedules, policy);
            const auto enforced = npu::simulatePerNpu(
                topo, CollectiveType::AllReduce, schedules, cfg);
            ASSERT_TRUE(free_running.completed);
            ASSERT_TRUE(enforced.completed);
            EXPECT_EQ(enforced.makespan, free_running.makespan)
                << intraDimPolicyName(policy) << ", " << chunks
                << " chunks";
            const TimeNs frontend =
                frontendTime(topo, runtime_cfg, size, chunks);
            EXPECT_NEAR(enforced.makespan, frontend, 1e-6 * frontend)
                << intraDimPolicyName(policy) << ", " << chunks
                << " chunks";
        }
    }
}

TEST(NpuBackend, EnforcedOrderSurvivesEverySkewSeed)
{
    // The paper's fix: all NPUs execute the same pre-simulated
    // per-dimension order. No skew seed may deadlock, and the cost
    // stays bounded.
    const auto topo = smallTopology();
    const auto schedules = themisSchedules(topo, 64.0e6, 16);
    const auto orders =
        loneRunOrders(topo, schedules, IntraDimPolicy::Scf);
    ASSERT_TRUE(planIsDeadlockFree(schedules, orders));

    const auto unskewed = [&] {
        npu::NpuSimConfig cfg;
        cfg.enforced_order = orders;
        return npu::simulatePerNpu(topo, CollectiveType::AllReduce,
                                   schedules, cfg);
    }();
    ASSERT_TRUE(unskewed.completed);

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        npu::NpuSimConfig cfg;
        cfg.max_skew_ns = 50000.0;
        cfg.seed = seed;
        cfg.enforced_order = orders;
        const auto result = npu::simulatePerNpu(
            topo, CollectiveType::AllReduce, schedules, cfg);
        EXPECT_TRUE(result.completed) << "seed " << seed;
        // Skew only delays; it cannot blow the makespan up.
        EXPECT_LE(result.makespan,
                  unskewed.makespan + 100.0 * 50000.0)
            << "seed " << seed;
    }
}

TEST(NpuBackend, OffloadDimensionsAlsoValidate)
{
    DimensionConfig d1, d2;
    d1.kind = DimKind::Ring;
    d1.size = 4;
    d1.link_bw_gbps = 400.0;
    d1.links_per_npu = 2;
    d1.step_latency_ns = 100.0;
    d2.kind = DimKind::Switch;
    d2.size = 6; // non-power-of-two: offload only
    d2.link_bw_gbps = 200.0;
    d2.links_per_npu = 1;
    d2.step_latency_ns = 700.0;
    d2.in_network_offload = true;
    Topology topo("ring-offload", {d1, d2});

    const auto schedules = themisSchedules(topo, 24.0e6, 8);
    const auto per_npu =
        npu::simulatePerNpu(topo, CollectiveType::AllReduce, schedules);
    ASSERT_TRUE(per_npu.completed);
    const TimeNs frontend =
        frontendTime(topo, runtime::themisScfConfig(), 24.0e6, 8);
    EXPECT_NEAR(per_npu.makespan, frontend, 1e-6 * frontend);
}


TEST(NpuBackend, ReduceScatterAndAllToAllSchedulesRun)
{
    const auto topo = smallTopology();
    const auto model = LatencyModel::fromTopology(topo);
    ThemisScheduler sched(model);
    for (auto type : {CollectiveType::ReduceScatter,
                      CollectiveType::AllToAll}) {
        const auto schedules =
            sched.scheduleCollective(type, 32.0e6, 8);
        const auto result =
            npu::simulatePerNpu(topo, type, schedules);
        EXPECT_TRUE(result.completed)
            << collectiveTypeName(type);
        EXPECT_GT(result.makespan, 0.0);
    }
}

} // namespace
} // namespace themis
