/**
 * @file
 * Plan-cache soundness: cached and cold runs must produce bit-identical
 * chunk schedules and bit-identical simulation results across every
 * scheduler and collective type; keys must separate everything plans
 * depend on and nothing they don't.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/plan_cache.hpp"
#include "models/model_zoo.hpp"
#include "runtime/comm_runtime.hpp"
#include "sim/sweep_runner.hpp"
#include "topology/presets.hpp"
#include "workload/training_loop.hpp"

namespace themis {
namespace {

bool
schedulesIdentical(const std::vector<ChunkSchedule>& a,
                   const std::vector<ChunkSchedule>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].chunk_id != b[i].chunk_id || a[i].size != b[i].size ||
            a[i].stages != b[i].stages)
            return false;
    }
    return true;
}

struct SimResult
{
    TimeNs duration = 0.0;
    double util = 0.0;

    bool
    operator==(const SimResult& o) const
    {
        return duration == o.duration && util == o.util;
    }
};

SimResult
simulate(const Topology& topo, runtime::RuntimeConfig cfg,
         CollectiveType type, PlanCache* cache)
{
    cfg.plan_cache = cache;
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    CollectiveRequest req;
    req.type = type;
    req.size = 3.0e8;
    req.chunks = 16;
    const int id = comm.issue(req);
    queue.run();
    comm.finalizeStats();
    return SimResult{comm.record(id).duration(),
                     comm.utilization().weightedUtilization()};
}

TEST(LatencyModelFingerprint, SeparatesTopologiesAndScopes)
{
    const auto homo = LatencyModel::fromTopology(
        presets::make3DSwSwSwHomo());
    const auto homo_again = LatencyModel::fromTopology(
        presets::make3DSwSwSwHomo());
    const auto hetero = LatencyModel::fromTopology(
        presets::make3DSwSwSwHetero());
    EXPECT_EQ(homo.fingerprint(), homo_again.fingerprint());
    EXPECT_NE(homo.fingerprint(), hetero.fingerprint());

    // Partial participation changes predictions, so it must change
    // the fingerprint.
    const auto topo = presets::make2DSwSw();
    const auto full = LatencyModel::fromScope(topo, {});
    const auto partial = LatencyModel::fromScope(
        topo, {ScopeDim{0, 0}, ScopeDim{1, 8}});
    EXPECT_NE(full.fingerprint(), partial.fingerprint());
}

TEST(PlanKey, BaselineNormalizesSchedulerConfig)
{
    ThemisConfig a;
    ThemisConfig b;
    b.init_loads_with_fixed_delay = false;
    // The baseline scheduler ignores ThemisConfig, so both keys must
    // collapse onto one cache entry...
    EXPECT_EQ(PlanKey::make(SchedulerKind::Baseline, a,
                            CollectiveType::AllReduce, 1e9, 64, 7),
              PlanKey::make(SchedulerKind::Baseline, b,
                            CollectiveType::AllReduce, 1e9, 64, 7));
    // ...while Themis keys must separate them.
    EXPECT_FALSE(PlanKey::make(SchedulerKind::Themis, a,
                               CollectiveType::AllReduce, 1e9, 64, 7) ==
                 PlanKey::make(SchedulerKind::Themis, b,
                               CollectiveType::AllReduce, 1e9, 64, 7));
}

TEST(PlanKey, HashOfDefaultThemisKeyIsPinned)
{
    // planKeyHash feeds the epoch fingerprints the CLI goldens print,
    // so a change to what it mixes must show up here first.
    EXPECT_EQ(planKeyHash(PlanKey::make(SchedulerKind::Themis,
                                        ThemisConfig{},
                                        CollectiveType::AllReduce, 1e9,
                                        64, 7)),
              0x7d1df4211de05459ull);
}

TEST(PlanCache, StoreThenFindReturnsIdenticalPlan)
{
    const auto topo = presets::make3DSwSwSwHomo();
    const auto model = LatencyModel::fromTopology(topo);
    auto scheduler = makeScheduler(SchedulerKind::Themis, model);
    auto cold =
        scheduler->scheduleCollective(CollectiveType::AllReduce, 1e9, 32);

    PlanCache cache;
    const PlanKey key =
        PlanKey::make(SchedulerKind::Themis, {},
                      CollectiveType::AllReduce, 1e9, 32,
                      model.fingerprint());
    EXPECT_EQ(cache.findPlan(key), nullptr);
    const auto stored = cache.storePlan(key, cold);
    const auto found = cache.findPlan(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, stored);
    EXPECT_TRUE(schedulesIdentical(*found, cold));

    const auto stats = cache.stats();
    EXPECT_EQ(stats.plan_hits, 1u);
    EXPECT_EQ(stats.plan_misses, 1u);
    EXPECT_EQ(cache.planCount(), 1u);
}

TEST(PlanCache, SchedulerOutputIsPureAcrossRepeatedCalls)
{
    // The cache's soundness premise: scheduling is a pure function of
    // the key. Every scheduler must reproduce bit-identical plans on
    // repeated calls (Themis resets its tracker per collective).
    const auto model =
        LatencyModel::fromTopology(presets::make3DSwSwSwHetero());
    for (const auto kind :
         {SchedulerKind::Baseline, SchedulerKind::Themis}) {
        auto scheduler = makeScheduler(kind, model);
        for (const auto type :
             {CollectiveType::AllReduce, CollectiveType::ReduceScatter,
              CollectiveType::AllGather, CollectiveType::AllToAll}) {
            const auto first =
                scheduler->scheduleCollective(type, 7.7e8, 24);
            const auto second =
                scheduler->scheduleCollective(type, 7.7e8, 24);
            EXPECT_TRUE(schedulesIdentical(first, second))
                << schedulerKindName(kind) << "/"
                << collectiveTypeName(type);
        }
    }
}

TEST(PlanCache, CachedRunsBitIdenticalAcrossSchedulersAndTypes)
{
    // Acceptance gate: cache-on and cache-off simulations produce
    // bit-identical results for every scheduler and collective type —
    // and a second cache-on run (all hits) stays identical too.
    const std::vector<runtime::RuntimeConfig> configs{
        runtime::baselineConfig(), runtime::themisFifoConfig(),
        runtime::themisScfConfig()};
    for (const auto& topo :
         {presets::make3DSwSwSwHetero(), presets::make2DSwSw()}) {
        for (const auto& cfg : configs) {
            for (const auto type :
                 {CollectiveType::AllReduce,
                  CollectiveType::ReduceScatter,
                  CollectiveType::AllGather,
                  CollectiveType::AllToAll}) {
                PlanCache cache;
                const auto cold = simulate(topo, cfg, type, nullptr);
                const auto miss = simulate(topo, cfg, type, &cache);
                const auto hit = simulate(topo, cfg, type, &cache);
                EXPECT_TRUE(cold == miss);
                EXPECT_TRUE(cold == hit);
                const auto stats = cache.stats();
                EXPECT_EQ(stats.plan_misses, 1u);
                EXPECT_EQ(stats.plan_hits, 1u);
            }
        }
    }
}

TEST(PlanCache, TrainingIterationBitIdenticalWithSharedCache)
{
    // One shared cache across a whole training iteration (per-layer
    // and cross-layer reuse) must not change the Fig 12 decomposition.
    const auto topo = presets::make3DSwSwSwHomo();
    auto run = [&](PlanCache* cache) {
        runtime::RuntimeConfig cfg = runtime::themisScfConfig();
        cfg.plan_cache = cache;
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo, cfg);
        workload::TrainingLoop loop(comm, models::makeGNMT());
        return loop.runIteration();
    };
    PlanCache cache;
    const auto cold = run(nullptr);
    const auto warm1 = run(&cache);
    const auto warm2 = run(&cache);
    EXPECT_EQ(cold.total, warm1.total);
    EXPECT_EQ(cold.total, warm2.total);
    EXPECT_EQ(cold.exposed_mp, warm2.exposed_mp);
    EXPECT_EQ(cold.exposed_dp, warm2.exposed_dp);
    EXPECT_EQ(cold.fwd_compute, warm2.fwd_compute);
    EXPECT_EQ(cold.bwd_compute, warm2.bwd_compute);
    // The second iteration re-derived nothing.
    const auto stats = cache.stats();
    EXPECT_GT(stats.plan_hits, 0u);
    EXPECT_EQ(stats.plan_misses, cache.planCount());
}

TEST(PlanCache, EnforcedOrdersCachedAndSound)
{
    const auto topo = presets::make3DSwSwSwHetero();
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.enforce_consistent_order = true;
    PlanCache cache;
    const auto cold =
        simulate(topo, cfg, CollectiveType::AllReduce, nullptr);
    const auto miss =
        simulate(topo, cfg, CollectiveType::AllReduce, &cache);
    const auto hit = simulate(topo, cfg, CollectiveType::AllReduce, &cache);
    EXPECT_TRUE(cold == miss);
    EXPECT_TRUE(cold == hit);
    EXPECT_EQ(cache.orderCount(), 1u);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.order_hits, 1u);
    EXPECT_EQ(stats.order_misses, 1u);

    // The same request issued at t > 0, into a fresh cache, derives
    // its orders away from the pristine t = 0 fabric: they must equal
    // the ones the lone t = 0 run stored.
    PlanCache later;
    cfg.plan_cache = &later;
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    CollectiveRequest req;
    req.size = 3.0e8;
    req.chunks = 16;
    queue.schedule(1.0e3, [&] { comm.issue(req); });
    queue.run();
    EXPECT_EQ(later.orderCount(), 1u);
    EXPECT_EQ(later.stats().order_misses, 1u);
    const LatencyModel& model = comm.modelForScope({});
    OrderKey key;
    key.plan = PlanKey::make(
        cfg.scheduler, ThemisConfig{}, req.type,
        schedulableSize(req.type, req.size, model.dimSizes()), req.chunks,
        model.fingerprint(), cfg.priority.flowFor(req.priority_tier).tier,
        cfg.priority.fingerprint());
    key.intra_policy = cfg.intra_policy;
    const PlanCache::OrderPtr lone = cache.findOrders(key);
    const PlanCache::OrderPtr eager = later.findOrders(key);
    ASSERT_NE(lone, nullptr);
    ASSERT_NE(eager, nullptr);
    EXPECT_TRUE(*lone == *eager);
}

TEST(PlanCache, SharedAcrossSweepWorkersDeterministic)
{
    // Many workers hammering one cache concurrently must produce the
    // same per-cell results as cold serial runs.
    const auto topo = presets::make3DSwSwSwHomo();
    const runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    const int cells = 24;
    std::vector<SimResult> cold;
    for (int i = 0; i < cells; ++i)
        cold.push_back(
            simulate(topo, cfg, CollectiveType::AllReduce, nullptr));

    PlanCache cache;
    const auto swept = sim::sweepIndexed(
        static_cast<std::size_t>(cells),
        [&](std::size_t, sim::EventQueue& queue) {
            runtime::RuntimeConfig run_cfg = cfg;
            run_cfg.plan_cache = &cache;
            runtime::CommRuntime comm(queue, topo, run_cfg);
            CollectiveRequest req;
            req.size = 3.0e8;
            req.chunks = 16;
            const int id = comm.issue(req);
            queue.run();
            comm.finalizeStats();
            return SimResult{
                comm.record(id).duration(),
                comm.utilization().weightedUtilization()};
        },
        sim::SweepOptions{8});
    ASSERT_EQ(swept.size(), cold.size());
    for (int i = 0; i < cells; ++i)
        EXPECT_TRUE(swept[static_cast<std::size_t>(i)] ==
                    cold[static_cast<std::size_t>(i)]);
    EXPECT_EQ(cache.planCount(), 1u);
}

} // namespace
} // namespace themis
