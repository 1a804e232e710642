/**
 * @file
 * Cross-module integration tests: single-collective microbenchmark
 * properties over the full Table 2 platform suite — the qualitative
 * claims of paper Sec 6.1 must hold in the simulator. Also pins the
 * pre-optimization runtime path to the default one on whole training
 * iterations.
 */

#include <gtest/gtest.h>

#include "core/ideal_estimator.hpp"
#include "core/plan_cache.hpp"
#include "models/model_zoo.hpp"
#include "runtime/comm_runtime.hpp"
#include "topology/presets.hpp"
#include "topology/provisioning.hpp"
#include "workload/training_loop.hpp"

namespace themis {
namespace {

struct RunResult
{
    TimeNs time = 0.0;
    double util = 0.0;
};

RunResult
runAllReduce(const Topology& topo, const runtime::RuntimeConfig& cfg,
             Bytes size, int chunks = 64)
{
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = size;
    req.chunks = chunks;
    const int id = comm.issue(req);
    queue.run();
    comm.finalizeStats();
    return RunResult{comm.record(id).duration(),
                     comm.utilization().weightedUtilization()};
}

class AllPresets : public ::testing::TestWithParam<std::string>
{
  protected:
    Topology topo_ = presets::byName(GetParam());
};

INSTANTIATE_TEST_SUITE_P(
    Table2, AllPresets,
    ::testing::Values("2D-SW_SW", "3D-SW_SW_SW_homo",
                      "3D-SW_SW_SW_hetero", "3D-FC_Ring_SW",
                      "4D-Ring_SW_SW_SW", "4D-Ring_FC_Ring_SW"),
    [](const auto& inf) {
        std::string n = inf.param;
        for (char& c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST_P(AllPresets, ThemisScfBeatsBaselineOnLargeAllReduce)
{
    const auto base =
        runAllReduce(topo_, runtime::baselineConfig(), 1.0e9);
    const auto scf =
        runAllReduce(topo_, runtime::themisScfConfig(), 1.0e9);
    EXPECT_LT(scf.time, base.time);
    EXPECT_GT(scf.util, base.util);
}

TEST_P(AllPresets, ThemisScfAtLeastAsGoodAsFifo)
{
    const auto fifo =
        runAllReduce(topo_, runtime::themisFifoConfig(), 1.0e9);
    const auto scf =
        runAllReduce(topo_, runtime::themisScfConfig(), 1.0e9);
    EXPECT_LE(scf.time, fifo.time * 1.05);
}

TEST_P(AllPresets, ThemisScfUtilizationHigh)
{
    // Paper Sec 6.1: Themis+SCF averages 95.14% BW utilization on the
    // 100MB-1GB range; allow per-topology slack.
    const auto scf =
        runAllReduce(topo_, runtime::themisScfConfig(), 1.0e9);
    EXPECT_GT(scf.util, 0.80) << topo_.name();
    EXPECT_LE(scf.util, 1.0 + 1e-9);
}

TEST_P(AllPresets, BaselineUtilizationTracksClosedForm)
{
    // The steady-state analysis (Sec 3.3) predicts baseline
    // utilization in the bandwidth-bound limit; the simulated value
    // for a 1 GB collective must be close.
    const auto base =
        runAllReduce(topo_, runtime::baselineConfig(), 1.0e9);
    const auto predicted = analyzeBaseline(topo_).weighted_utilization;
    EXPECT_NEAR(base.util, predicted, 0.08) << topo_.name();
}

TEST_P(AllPresets, ShadowSimEnforcementMatchesPolicyExactly)
{
    // A shadow-simulated order replays the engines' own behaviour, so
    // enforcing it must not change the timing of a lone collective.
    auto cfg = runtime::themisScfConfig();
    const auto policy = runAllReduce(topo_, cfg, 2.0e8);
    cfg.enforce_consistent_order = true;
    const auto enforced = runAllReduce(topo_, cfg, 2.0e8);
    EXPECT_NEAR(enforced.time, policy.time, 1e-6 * policy.time)
        << topo_.name();
}

TEST_P(AllPresets, LargerCollectivesRaiseUtilization)
{
    const auto small =
        runAllReduce(topo_, runtime::themisScfConfig(), 1.0e8);
    const auto large =
        runAllReduce(topo_, runtime::themisScfConfig(), 1.0e9);
    EXPECT_GE(large.util, small.util - 0.05) << topo_.name();
}

TEST_P(AllPresets, RsAndAgAreHalfAnAllReduce)
{
    const auto ar =
        runAllReduce(topo_, runtime::themisScfConfig(), 1.0e9);
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo_,
                              runtime::themisScfConfig());
    CollectiveRequest rs;
    rs.type = CollectiveType::ReduceScatter;
    rs.size = 1.0e9;
    rs.chunks = 64;
    const int id = comm.issue(rs);
    queue.run();
    const TimeNs rs_time = comm.record(id).duration();
    EXPECT_NEAR(rs_time, ar.time / 2.0, 0.25 * rs_time)
        << topo_.name();
}

TEST(Integration, CurrentPlatformBaselineIsAlreadyEfficient)
{
    // Sec 3.2: the current 2D platform reaches ~97.7% utilization
    // with baseline scheduling; Themis cannot add much there.
    const auto topo = presets::makeCurrent2D();
    const auto base =
        runAllReduce(topo, runtime::baselineConfig(), 1.0e9);
    EXPECT_GT(base.util, 0.93);
    const auto scf =
        runAllReduce(topo, runtime::themisScfConfig(), 1.0e9);
    EXPECT_LT(base.time / scf.time, 1.08);
}

TEST(Integration, HomoTopologySeesLargestGain)
{
    // 3D-SW_SW_SW_homo has the worst baseline utilization (~35%) and
    // thus the biggest Themis speedup (paper: up to 2.7x).
    const auto topo = presets::make3DSwSwSwHomo();
    const auto base =
        runAllReduce(topo, runtime::baselineConfig(), 1.0e9);
    const auto scf =
        runAllReduce(topo, runtime::themisScfConfig(), 1.0e9);
    const double speedup = base.time / scf.time;
    EXPECT_GT(speedup, 2.0);
    EXPECT_LT(speedup, 3.0);
}

TEST(Integration, MoreChunksHelpThemisNotBaseline)
{
    // Fig 10's qualitative content.
    const auto topo = presets::make3DSwSwSwHetero();
    const auto base4 =
        runAllReduce(topo, runtime::baselineConfig(), 1.0e8, 4);
    const auto base256 =
        runAllReduce(topo, runtime::baselineConfig(), 1.0e8, 256);
    EXPECT_NEAR(base4.util, base256.util, 0.10);

    const auto scf4 =
        runAllReduce(topo, runtime::themisScfConfig(), 1.0e8, 4);
    const auto scf256 =
        runAllReduce(topo, runtime::themisScfConfig(), 1.0e8, 256);
    EXPECT_GT(scf256.util, scf4.util + 0.15);
}

TEST(Integration, IdealNeverLosesToSimulationByMuch)
{
    // Ideal pools all bandwidth; simulated Themis time with latency
    // can't beat it by more than the (P-1)/P volume discount.
    for (const auto& topo : presets::nextGenTopologies()) {
        const auto model = LatencyModel::fromTopology(topo);
        const TimeNs ideal = idealCollectiveTime(
            CollectiveType::AllReduce, 1.0e9, model);
        const auto scf =
            runAllReduce(topo, runtime::themisScfConfig(), 1.0e9);
        EXPECT_GT(scf.time, 0.8 * ideal) << topo.name();
    }
}

TEST(Integration, PreOptimizationPathReproducesTrainingIterations)
{
    // The configuration the sweep optimizations replaced -- no plan
    // cache, heap event queue -- must simulate training iterations
    // bit-identically to the default path with a shared plan cache.
    const auto topo = presets::byName("3D-SW_SW_SW_hetero");
    PlanCache cache;
    for (const char* name : {"ResNet-152", "GNMT", "DLRM"}) {
        auto run = [&](bool optimized) {
            runtime::RuntimeConfig cfg = runtime::themisScfConfig();
            cfg.plan_cache = optimized ? &cache : nullptr;
            sim::EventQueue queue(optimized ? sim::EventFrontEnd::Calendar
                                            : sim::EventFrontEnd::Heap);
            runtime::CommRuntime comm(queue, topo, cfg);
            workload::TrainingLoop loop(comm, models::byName(name));
            return loop.runIteration();
        };
        EXPECT_TRUE(workload::bitIdentical(run(true), run(false)))
            << name;
    }
}

} // namespace
} // namespace themis
