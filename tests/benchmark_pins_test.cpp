/**
 * @file
 * The benchmark's three seed-0 results, pinned bit for bit at library
 * level: one warm full-sim Transformer-1T iteration (t1t_fullsim),
 * one consistent-order-enforced All-Reduce cell (allreduce_enforced)
 * and the DLRM + two-inference-tenant mix's 120-round total
 * (cluster_2to3). Each is built the way perfbench builds it. Host-side
 * optimizations of the per-op path must leave every value here
 * unchanged; the perfbench smoke check only sees them rounded.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "models/model_zoo.hpp"
#include "runtime/comm_runtime.hpp"
#include "topology/presets.hpp"
#include "workload/convergence.hpp"
#include "workload/training_loop.hpp"

namespace themis {
namespace {

using runtime::CommRuntime;

TEST(BenchmarkPins, WarmTransformer1tIterationIsBitIdentical)
{
    PlanCache cache;
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.plan_cache = &cache;
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::byName("2D-SW_SW"), cfg);
    workload::TrainingLoop loop(comm, models::byName("Transformer-1T"));
    workload::ConvergenceOptions opts;
    opts.iterations = 1;
    opts.replay = false;
    workload::runConverged(comm, loop, opts); // fills the plan cache
    const workload::ConvergenceReport warm =
        workload::runConverged(comm, loop, opts);
    // 567.08305424 ms, perfbench's t1t_fullsim sim_time_ms.
    EXPECT_EQ(warm.total.total, 0x1.0e680171eb852p+29);

    // The same iteration as one epoch, for its event-trace fingerprint.
    comm.beginIterationEpoch();
    loop.beginIterationAsync(nullptr);
    queue.run();
    const CommRuntime::EpochStats epoch = comm.finishIterationEpoch();
    EXPECT_EQ(epoch.duration, warm.total.total);
    EXPECT_EQ(epoch.fingerprint, 0xa660eea66be22eacu);
}

TEST(BenchmarkPins, EnforcedAllReduceCellIsBitIdentical)
{
    PlanCache cache;
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.enforce_consistent_order = true;
    cfg.plan_cache = &cache;
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::byName("3D-SW_SW_SW_hetero"), cfg);
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 1.0e9;
    req.chunks = 256;
    const int id = comm.issue(req);
    queue.run();
    ASSERT_TRUE(comm.record(id).done());
    EXPECT_EQ(comm.record(id).duration(), 0x1.72c59aa4p+22);
    std::vector<Bytes> dim_bytes;
    for (int d = 0; d < comm.topology().numDims(); ++d) {
        comm.engine(d).channel().sync();
        dim_bytes.push_back(comm.engine(d).channel().progressedBytes());
    }
    EXPECT_EQ(dim_bytes,
              (std::vector<Bytes>{0x1.0f5209a120009p+30,
                                  0x1.124468adbp+29, 0x1.0fab71d02p+28}));
}

TEST(BenchmarkPins, Cluster2to3MixTotalIsBitIdentical)
{
    constexpr int kRounds = 120;
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.scheduler = SchedulerKind::ThemisPriority;
    cfg.priority = PriorityPolicy::tiered(4.0);
    PlanCache cache;
    cfg.plan_cache = &cache;
    std::vector<cluster::JobSpec> specs;
    specs.push_back(cluster::JobSpec::training(
        models::byName("DLRM"), kRounds, 0.0,
        static_cast<int>(PriorityTier::Bulk)));
    specs.push_back(cluster::JobSpec::periodicInference(
        1.6e7, 2.0e5, 0.0, 0.0, static_cast<int>(PriorityTier::Urgent)));
    specs.push_back(cluster::JobSpec::periodicInference(
        3.2e7, 3.0e5, 0.0, 0.0, static_cast<int>(PriorityTier::Urgent)));
    sim::EventQueue queue;
    cluster::Cluster cl(queue, presets::byName("2D-SW_SW"), cfg, specs);
    workload::ConvergenceOptions opts;
    opts.iterations = kRounds;
    opts.replay = true;
    const workload::ConvergenceReport r = cl.runConverged(opts);
    EXPECT_EQ(r.iterations, kRounds);
    // 89.414 ms, perfbench's cluster_2to3 sim_time_ms.
    EXPECT_EQ(r.total.total, 0x1.551680d7ba119p+26);
    EXPECT_EQ(r.ops, 87040u);
}

} // namespace
} // namespace themis
