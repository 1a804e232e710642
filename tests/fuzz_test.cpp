/**
 * @file
 * Randomized property tests over the whole stack. A seeded RNG builds
 * arbitrary (valid) topologies and collective requests; the suite
 * checks invariants that must hold for *every* input:
 *
 *  - every collective completes and the event queue drains;
 *  - byte conservation: the bytes each dimension's channel moved equal
 *    the scheduler's predicted wire volumes exactly;
 *  - utilization stays within [0, 1] per dimension and overall;
 *  - Themis never schedules a non-permutation, and its makespan never
 *    loses badly to baseline;
 *  - shadow-enforced ordering reproduces free-running timing;
 *  - the data plane reduces/gathers correctly for random machines and
 *    random stage orders;
 *  - mixed-period cluster mixes replay steady cycles bit-identically
 *    to full simulation on random platforms;
 *  - k x every bandwidth and 1/k x every step latency make a lone
 *    collective exactly k x faster;
 *  - a random themis_cli grid stores the same canonical results
 *    sharded and unsharded, on one worker thread and on three.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "app/cli.hpp"
#include "cluster/cluster.hpp"
#include "collective/dataplane/dataplane_collectives.hpp"
#include "common/random.hpp"
#include "core/themis_scheduler.hpp"
#include "models/model_zoo.hpp"
#include "npu/npu_machine.hpp"
#include "runtime/comm_runtime.hpp"
#include "sim/fault_timeline.hpp"
#include "topology/parse.hpp"

namespace themis {
namespace {

/** Random valid dimension. */
DimensionConfig
randomDim(Rng& rng)
{
    DimensionConfig d;
    switch (rng.uniformInt(0, 2)) {
      case 0:
        d.kind = DimKind::Ring;
        d.size = static_cast<int>(rng.uniformInt(2, 12));
        d.links_per_npu = static_cast<int>(rng.uniformInt(1, 2));
        break;
      case 1:
        d.kind = DimKind::FullyConnected;
        d.size = static_cast<int>(rng.uniformInt(2, 9));
        d.links_per_npu =
            static_cast<int>(rng.uniformInt(1, d.size - 1));
        break;
      default:
        d.kind = DimKind::Switch;
        d.size = 1 << rng.uniformInt(1, 5);
        d.links_per_npu = 1;
        d.in_network_offload = rng.coin(0.25);
        break;
    }
    d.link_bw_gbps = rng.uniformReal(25.0, 1600.0);
    d.step_latency_ns = rng.uniformReal(0.0, 2000.0);
    return d;
}

Topology
randomTopology(Rng& rng)
{
    const int dims = static_cast<int>(rng.uniformInt(1, 4));
    std::vector<DimensionConfig> cfg;
    for (int i = 0; i < dims; ++i)
        cfg.push_back(randomDim(rng));
    return Topology("fuzz", std::move(cfg));
}

CollectiveRequest
randomRequest(Rng& rng)
{
    CollectiveRequest req;
    switch (rng.uniformInt(0, 3)) {
      case 0: req.type = CollectiveType::AllReduce; break;
      case 1: req.type = CollectiveType::ReduceScatter; break;
      case 2: req.type = CollectiveType::AllGather; break;
      default: req.type = CollectiveType::AllToAll; break;
    }
    req.size = rng.uniformReal(1.0e5, 2.0e9);
    req.chunks = static_cast<int>(rng.uniformInt(1, 128));
    return req;
}

class RuntimeFuzz : public ::testing::TestWithParam<int>
{};

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeFuzz, ::testing::Range(1, 26));

TEST_P(RuntimeFuzz, CollectiveCompletesAndConservesBytes)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const Topology topo = randomTopology(rng);
    const CollectiveRequest req = randomRequest(rng);

    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo,
                              runtime::themisScfConfig());
    const int id = comm.issue(req);
    queue.run();
    comm.finalizeStats();
    ASSERT_TRUE(comm.record(id).done());
    EXPECT_GT(comm.record(id).duration(), 0.0);

    // Predicted wire volume per dimension, from the scheduler's own
    // stage-load algebra (loads are times; multiply back by BW).
    const auto& model = comm.modelForScope({});
    ThemisScheduler reference(model);
    const auto schedules = reference.scheduleCollective(
        req.type,
        schedulableSize(req.type, req.size, model.dimSizes()),
        req.chunks);
    std::vector<Bytes> expected(
        static_cast<std::size_t>(topo.numDims()), 0.0);
    for (const auto& sched : schedules) {
        const auto loads = model.stageLoads(sched.size, sched.stages);
        for (int d = 0; d < topo.numDims(); ++d) {
            expected[static_cast<std::size_t>(d)] +=
                loads[static_cast<std::size_t>(d)] *
                topo.dim(d).bandwidth();
        }
    }
    for (int d = 0; d < topo.numDims(); ++d) {
        auto& ch = comm.engine(d).channel();
        ch.sync();
        EXPECT_NEAR(ch.progressedBytes(),
                    expected[static_cast<std::size_t>(d)],
                    1.0 + 1e-6 * expected[static_cast<std::size_t>(d)])
            << "dim " << d << " on " << topo.describe();
    }
}

TEST_P(RuntimeFuzz, UtilizationStaysPhysical)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
    const Topology topo = randomTopology(rng);
    const CollectiveRequest req = randomRequest(rng);

    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo,
                              runtime::themisScfConfig());
    comm.issue(req);
    queue.run();
    comm.finalizeStats();
    const double util = comm.utilization().weightedUtilization();
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-9) << topo.describe();
    for (double u : comm.utilization().perDimUtilization())
        EXPECT_LE(u, 1.0 + 1e-9) << topo.describe();
}

TEST_P(RuntimeFuzz, ThemisNeverLosesBadlyToBaseline)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
    const Topology topo = randomTopology(rng);
    CollectiveRequest req = randomRequest(rng);
    req.type = CollectiveType::AllReduce; // the scheduled pattern

    auto run = [&](const runtime::RuntimeConfig& cfg) {
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo, cfg);
        const int id = comm.issue(req);
        queue.run();
        return comm.record(id).duration();
    };
    const TimeNs base = run(runtime::baselineConfig());
    const TimeNs scf = run(runtime::themisScfConfig());
    // Robustness requirement: even on adversarial random platforms
    // the threshold must keep Themis within a modest factor.
    EXPECT_LE(scf, base * 1.35) << topo.describe();
}

TEST_P(RuntimeFuzz, ShadowEnforcementMatchesPolicy)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
    const Topology topo = randomTopology(rng);
    const CollectiveRequest req = randomRequest(rng);

    auto run = [&](bool enforce) {
        auto cfg = runtime::themisScfConfig();
        cfg.enforce_consistent_order = enforce;
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo, cfg);
        const int id = comm.issue(req);
        queue.run();
        return comm.record(id).duration();
    };
    const TimeNs policy = run(false);
    const TimeNs enforced = run(true);
    EXPECT_NEAR(policy, enforced, 1e-9 * policy) << topo.describe();
}

TEST_P(RuntimeFuzz, ScalingBandwidthAndLatencyScalesTime)
{
    // Metamorphic: k x every dimension's bandwidth and 1/k x its step
    // latency make a lone collective exactly k x faster, under the
    // baseline and under Themis. k is a power of two, so every scaled
    // product is exact and the times match bit for bit.
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 5000);
    const Topology topo = randomTopology(rng);
    const CollectiveRequest req = randomRequest(rng);
    for (const auto& cfg :
         {runtime::baselineConfig(), runtime::themisScfConfig()}) {
        TimeNs unit = 0.0;
        for (double k : {1.0, 2.0, 4.0}) {
            std::vector<DimensionConfig> dims = topo.dims();
            for (DimensionConfig& d : dims) {
                d.link_bw_gbps *= k;
                d.step_latency_ns /= k;
            }
            const Topology scaled("fuzz", std::move(dims));
            sim::EventQueue queue;
            runtime::CommRuntime comm(queue, scaled, cfg);
            const int id = comm.issue(req);
            queue.run();
            if (k == 1.0)
                unit = comm.record(id).duration();
            EXPECT_EQ(comm.record(id).duration() * k, unit)
                << "k=" << k << " on " << topo.describe();
        }
    }
}

TEST_P(RuntimeFuzz, SchedulesAreValidPermutations)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 4000);
    const Topology topo = randomTopology(rng);
    const auto model = LatencyModel::fromTopology(topo);
    ThemisScheduler sched(model);
    const CollectiveRequest req = randomRequest(rng);
    const auto out =
        sched.scheduleCollective(req.type, req.size, req.chunks);
    ASSERT_EQ(static_cast<int>(out.size()), req.chunks);
    for (const auto& c : out) {
        EXPECT_EQ(c.stages.size(),
                  static_cast<std::size_t>(stagesForType(
                      req.type, topo.numDims())));
        // Each pass visits every dimension exactly once.
        std::vector<int> rs, ag;
        for (const auto& st : c.stages) {
            if (st.phase == Phase::AllGather)
                ag.push_back(st.dim);
            else
                rs.push_back(st.dim);
        }
        for (auto* pass : {&rs, &ag}) {
            if (pass->empty())
                continue;
            std::sort(pass->begin(), pass->end());
            for (std::size_t i = 0; i < pass->size(); ++i)
                EXPECT_EQ((*pass)[i], static_cast<int>(i));
        }
    }
}


class FaultFuzz : public ::testing::TestWithParam<int>
{};

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz, ::testing::Range(300, 318));

TEST_P(FaultFuzz, RandomFaultTimelinesConserveBytesAndDrain)
{
    // Random topology + collective + fault timeline (degrades,
    // stragglers, flaps in arbitrary interleavings). Invariants:
    // the run drains with no stuck transfers, and each dimension's
    // wire bytes equal the scheduled volume plus the bytes failed
    // attempts moved before their flap (exact conservation).
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const Topology topo = randomTopology(rng);
    const CollectiveRequest req = randomRequest(rng);

    sim::FaultTimeline faults;
    const int events = static_cast<int>(rng.uniformInt(1, 6));
    for (int e = 0; e < events; ++e) {
        const int dim =
            static_cast<int>(rng.uniformInt(0, topo.numDims() - 1));
        const TimeNs at = rng.uniformReal(0.0, 5.0e6);
        switch (rng.uniformInt(0, 2)) {
          case 0:
            faults.addDegrade(dim, at, rng.uniformReal(1.0e4, 2.0e6),
                              rng.uniformReal(0.05, 0.95));
            break;
          case 1:
            faults.addStraggler(dim, at, rng.uniformReal(0.3, 0.9));
            break;
          default:
            faults.addFlap(dim, at, rng.uniformReal(1.0e3, 1.0e6));
            break;
        }
    }

    auto cfg = runtime::themisScfConfig();
    cfg.faults = &faults;
    cfg.retry.max_attempts = 100;
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    const int id = comm.issue(req);
    queue.run();
    comm.finalizeStats();
    ASSERT_TRUE(comm.record(id).done())
        << topo.describe() << "\n" << faults.describe();
    EXPECT_TRUE(queue.empty());

    const auto& model = comm.modelForScope({});
    ThemisScheduler reference(model);
    const auto schedules = reference.scheduleCollective(
        req.type,
        schedulableSize(req.type, req.size, model.dimSizes()),
        req.chunks);
    std::vector<Bytes> expected(
        static_cast<std::size_t>(topo.numDims()), 0.0);
    for (const auto& sched : schedules) {
        const auto loads = model.stageLoads(sched.size, sched.stages);
        for (int d = 0; d < topo.numDims(); ++d) {
            expected[static_cast<std::size_t>(d)] +=
                loads[static_cast<std::size_t>(d)] *
                topo.dim(d).bandwidth();
        }
    }
    for (int d = 0; d < topo.numDims(); ++d) {
        auto& ch = comm.engine(d).channel();
        ch.sync();
        const Bytes want = expected[static_cast<std::size_t>(d)] +
                           comm.engine(d).lostBytes();
        EXPECT_NEAR(ch.progressedBytes(), want, 1.0 + 1e-6 * want)
            << "dim " << d << " (" << comm.engine(d).retryCount()
            << " retries) on " << topo.describe() << "\n"
            << faults.describe();
    }
}

class AdaptationFuzz : public ::testing::TestWithParam<int>
{};

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptationFuzz,
                         ::testing::Range(500, 512));

TEST_P(AdaptationFuzz, LinkFaultsWithAdaptationConserveAndRepeat)
{
    // Random topology + collective + fault timelines that mix
    // per-link outages with capacity events, with adaptive
    // re-planning armed on even seeds and off on odd ones.
    // Invariants: the run drains, the result is reproducible, and
    // wire bytes equal the (clean-planned) schedule volume plus
    // re-sent bytes. Events start at >= 1e3 ns so the collective
    // plans against the clean model at t=0 — which pins the
    // scheduled volume whether or not adaptation later re-plans
    // (re-plans only affect collectives issued afterwards).
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const Topology topo = randomTopology(rng);
    const CollectiveRequest req = randomRequest(rng);

    sim::FaultTimeline faults;
    const int events = static_cast<int>(rng.uniformInt(1, 5));
    for (int e = 0; e < events; ++e) {
        const int dim =
            static_cast<int>(rng.uniformInt(0, topo.numDims() - 1));
        const TimeNs at = rng.uniformReal(1.0e3, 5.0e6);
        switch (rng.uniformInt(0, 2)) {
          case 0: {
            const int link = static_cast<int>(rng.uniformInt(
                0, topo.dim(dim).links_per_npu - 1));
            faults.addLinkFlap(dim, link, at,
                               rng.uniformReal(1.0e3, 5.0e5));
            break;
          }
          case 1:
            faults.addDegrade(dim, at, rng.uniformReal(1.0e4, 2.0e6),
                              rng.uniformReal(0.05, 0.95));
            break;
          default:
            faults.addStraggler(dim, at, rng.uniformReal(0.3, 0.9));
            break;
        }
    }

    auto cfg = runtime::themisScfConfig();
    cfg.faults = &faults;
    cfg.retry.max_attempts = 100;
    cfg.adaptation.enabled = GetParam() % 2 == 0;

    auto run = [&]() {
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo, cfg);
        const int id = comm.issue(req);
        queue.run();
        comm.finalizeStats();
        EXPECT_TRUE(comm.record(id).done())
            << topo.describe() << "\n" << faults.describe();
        EXPECT_TRUE(queue.empty());
        std::vector<Bytes> wire, lost;
        for (int d = 0; d < topo.numDims(); ++d) {
            auto& ch = comm.engine(d).channel();
            ch.sync();
            wire.push_back(ch.progressedBytes());
            lost.push_back(comm.engine(d).lostBytes());
        }
        return std::make_pair(wire, lost);
    };
    const auto [wire, lost] = run();
    const auto [wire2, lost2] = run();
    for (int d = 0; d < topo.numDims(); ++d) {
        const auto i = static_cast<std::size_t>(d);
        EXPECT_DOUBLE_EQ(wire[i], wire2[i]) << "dim " << d;
        EXPECT_DOUBLE_EQ(lost[i], lost2[i]) << "dim " << d;
    }

    // Conservation against the clean plan (a post-event re-plan
    // would change comm.modelForScope, so rebuild the reference
    // from the topology directly).
    const auto model = LatencyModel::fromTopology(topo);
    ThemisScheduler reference(model);
    const auto schedules = reference.scheduleCollective(
        req.type,
        schedulableSize(req.type, req.size, model.dimSizes()),
        req.chunks);
    std::vector<Bytes> expected(
        static_cast<std::size_t>(topo.numDims()), 0.0);
    for (const auto& sched : schedules) {
        const auto loads = model.stageLoads(sched.size, sched.stages);
        for (int d = 0; d < topo.numDims(); ++d) {
            expected[static_cast<std::size_t>(d)] +=
                loads[static_cast<std::size_t>(d)] *
                topo.dim(d).bandwidth();
        }
    }
    for (int d = 0; d < topo.numDims(); ++d) {
        const auto i = static_cast<std::size_t>(d);
        const Bytes want = expected[i] + lost[i];
        EXPECT_NEAR(wire[i], want, 1.0 + 1e-6 * want)
            << "dim " << d << " on " << topo.describe() << "\n"
            << faults.describe();
    }
}

class ClusterMixFuzz : public ::testing::TestWithParam<int>
{};

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterMixFuzz,
                         ::testing::Range(400, 411));

TEST_P(ClusterMixFuzz, MixedPeriodReplayBitIdenticalToFullSim)
{
    // Random small platform + training job + 1-2 open-ended periodic
    // tenants with commensurate periods (base x small ints): the
    // period-k lockstep engine must produce results bit-identical to
    // full simulation whether or not a steady cycle was confirmed
    // and replayed.
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    Topology topo = randomTopology(rng);
    while (topo.totalNpus() > 512)
        topo = randomTopology(rng);

    const int rounds = static_cast<int>(rng.uniformInt(10, 24));
    // Integer base so period multiples share it as an exact gcd.
    const TimeNs base = std::floor(1.0e5 * rng.uniformReal(0.5, 2.0));
    std::vector<cluster::JobSpec> specs;
    specs.push_back(cluster::JobSpec::training(
        models::byName("DLRM"), rounds));
    const int streams = static_cast<int>(rng.uniformInt(1, 2));
    for (int s = 0; s < streams; ++s) {
        const double mult =
            static_cast<double>(rng.uniformInt(1, 4));
        specs.push_back(cluster::JobSpec::periodicInference(
            rng.uniformReal(1.0e6, 4.0e7), base * mult));
    }
    const auto plan = cluster::JobScheduler(specs).lockstepPlan();
    ASSERT_TRUE(plan.eligible) << plan.reason;

    auto run = [&](bool replay) {
        sim::EventQueue q;
        cluster::Cluster cl(q, topo, runtime::themisScfConfig(),
                            specs);
        workload::ConvergenceOptions opts;
        opts.iterations = rounds;
        opts.replay = replay;
        return cl.runConverged(opts);
    };
    const auto fast = run(true);
    const auto full = run(false);
    EXPECT_EQ(full.epochs_replayed, 0);
    EXPECT_EQ(fast.epochs_simulated + fast.epochs_replayed, rounds);
    EXPECT_TRUE(workload::resultsBitIdentical(fast, full))
        << topo.describe() << " rounds " << rounds << " hyper "
        << plan.hyper_period;
}

/** Run themis_cli with @p args, dropping its stdout; the exit code. */
int
runThemisCli(std::vector<std::string> args)
{
    args.insert(args.begin(), "themis_cli");
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    ::testing::internal::CaptureStdout();
    const int code = app::runCli(static_cast<int>(argv.size()), argv.data());
    (void)::testing::internal::GetCapturedStdout();
    return code;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class GridShardFuzz : public ::testing::TestWithParam<int>
{};

INSTANTIATE_TEST_SUITE_P(Seeds, GridShardFuzz, ::testing::Range(600, 606));

TEST_P(GridShardFuzz, ShardsAndWorkerCountsMergeToTheSameStore)
{
    // A random small grid (random platforms x the three schedulers x
    // random chunk counts) must store the same canonical results run
    // whole or as two merged shards, and on one worker thread or three.
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    std::string grid;
    for (int i = 0, n = static_cast<int>(rng.uniformInt(1, 3)); i < n; ++i) {
        Topology topo = randomTopology(rng);
        while (topo.totalNpus() > 512)
            topo = randomTopology(rng);
        grid += (i > 0 ? ";" : "") + topologySpec(topo);
    }
    std::string sweep;
    for (int i = 0, n = static_cast<int>(rng.uniformInt(1, 3)); i < n; ++i)
        sweep += (i > 0 ? "," : "") + std::to_string(rng.uniformInt(1, 16));
    const char* types[] = {"ar", "rs", "ag", "a2a"};
    const std::vector<std::string> base = {
        "--grid", grid, "--sweep", sweep, "--type",
        types[rng.uniformInt(0, 3)], "--size",
        std::to_string(rng.uniformReal(1.0e6, 2.0e8))};
    const std::string dir = ::testing::TempDir() + "grid_fuzz_" +
                            std::to_string(GetParam()) + "_";
    auto path = [&](const char* name) { return dir + name; };
    auto grid_run = [&](std::vector<std::string> extra, const char* store) {
        std::remove(path(store).c_str());
        std::vector<std::string> args = base;
        args.insert(args.end(), extra.begin(), extra.end());
        args.insert(args.end(), {"--results", path(store)});
        EXPECT_EQ(runThemisCli(args), 0) << grid << " --sweep " << sweep;
    };
    auto merge = [&](const char* out, const std::string& in) {
        EXPECT_EQ(runThemisCli({"--merge", path(out) + "," + in}), 0);
        return readFile(path(out));
    };
    grid_run({"--jobs", "1"}, "whole1.jsonl");
    grid_run({"--jobs", "3"}, "whole3.jsonl");
    grid_run({"--jobs", "2", "--shard", "0/2"}, "s0.jsonl");
    grid_run({"--jobs", "2", "--shard", "1/2"}, "s1.jsonl");
    const std::string whole = merge("c1.jsonl", path("whole1.jsonl"));
    // Every cell is recorded: at least the three schedulers of one
    // platform and chunk count (repeated --sweep values share keys).
    EXPECT_GE(std::count(whole.begin(), whole.end(), '\n'), 3) << whole;
    EXPECT_EQ(merge("c3.jsonl", path("whole3.jsonl")), whole);
    EXPECT_EQ(merge("cs.jsonl", path("s0.jsonl") + "," + path("s1.jsonl")),
              whole)
        << grid << " --sweep " << sweep;
    for (const char* f : {"whole1.jsonl", "whole3.jsonl", "s0.jsonl",
                          "s1.jsonl", "c1.jsonl", "c3.jsonl", "cs.jsonl"})
        std::remove(path(f).c_str());
}

class BackendEquivalenceFuzz : public ::testing::TestWithParam<int>
{};

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceFuzz,
                         ::testing::Range(200, 212));

TEST_P(BackendEquivalenceFuzz, PerNpuMatchesFrontendOnRandomPlatforms)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    // Random platform, capped to <= 256 NPUs for the per-NPU run.
    Topology topo = randomTopology(rng);
    while (topo.totalNpus() > 256)
        topo = randomTopology(rng);
    const Bytes size = rng.uniformReal(1.0e6, 2.0e8);
    const int chunks = static_cast<int>(rng.uniformInt(2, 32));

    const auto model = LatencyModel::fromTopology(topo);
    ThemisScheduler sched(model);
    const auto schedules = sched.scheduleCollective(
        CollectiveType::AllReduce, size, chunks);

    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo,
                              runtime::themisScfConfig());
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = size;
    req.chunks = chunks;
    const int id = comm.issue(req);
    queue.run();
    const TimeNs frontend = comm.record(id).duration();

    const auto per_npu = npu::simulatePerNpu(
        topo, CollectiveType::AllReduce, schedules);
    ASSERT_TRUE(per_npu.completed) << topo.describe();
    EXPECT_NEAR(per_npu.makespan, frontend, 1e-6 * frontend)
        << topo.describe();
}

class DataPlaneFuzz : public ::testing::TestWithParam<int>
{};

INSTANTIATE_TEST_SUITE_P(Seeds, DataPlaneFuzz,
                         ::testing::Range(100, 116));

TEST_P(DataPlaneFuzz, RandomMachinesAllReduceCorrectly)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    // Random small machine (<= 64 NPUs).
    const int dims = static_cast<int>(rng.uniformInt(1, 3));
    std::vector<int> sizes;
    std::vector<DimKind> kinds;
    int total = 1;
    for (int d = 0; d < dims; ++d) {
        int size = 0;
        DimKind kind = DimKind::Ring;
        switch (rng.uniformInt(0, 2)) {
          case 0:
            kind = DimKind::Ring;
            size = static_cast<int>(rng.uniformInt(2, 5));
            break;
          case 1:
            kind = DimKind::FullyConnected;
            size = static_cast<int>(rng.uniformInt(2, 5));
            break;
          default:
            kind = DimKind::Switch;
            size = 1 << rng.uniformInt(1, 2);
            break;
        }
        sizes.push_back(size);
        kinds.push_back(kind);
        total *= size;
    }
    if (total > 64)
        GTEST_SKIP() << "machine too large for this seed";

    LogicalMachine machine(sizes);
    // Random RS and AG orders (independent, per Observation 1).
    std::vector<int> rs(static_cast<std::size_t>(dims));
    std::iota(rs.begin(), rs.end(), 0);
    std::vector<int> ag = rs;
    rng.shuffle(rs);
    rng.shuffle(ag);

    const auto seed_fn = [&](int npu, std::int64_t off) {
        return static_cast<DataValue>(npu) * 7919 + off * 13 + 1;
    };
    DataPlane dp(machine, kinds, machine.numNpus() * 4);
    dp.initFullReplicas(seed_fn);
    dp.runAllReduce(rs, ag);
    EXPECT_TRUE(dp.verifyAllReduced(seed_fn))
        << "machine " << total << " NPUs, seed " << GetParam();
}

} // namespace
} // namespace themis
