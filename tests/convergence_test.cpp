/**
 * @file
 * Steady-state iteration replay: epoch mechanics, fingerprint-based
 * detection, replay-vs-full-simulation bit identity (including the
 * in-binary exactness mode), session-pool and op-slab reuse, and the
 * batched-vs-scalar admission equivalence.
 */

#include <gtest/gtest.h>

#include "models/model_zoo.hpp"
#include "runtime/comm_runtime.hpp"
#include "topology/presets.hpp"
#include "workload/convergence.hpp"
#include "workload/training_loop.hpp"

namespace themis::workload {
namespace {

/** Small hybrid workload with MP + DP traffic (fig12-shaped). */
ModelGraph
smallHybridModel()
{
    ModelGraph g;
    g.name = "small-hybrid";
    g.parallel = ParallelSpec::hybrid(16);
    g.fused_dp_grads = false;
    for (int i = 0; i < 3; ++i) {
        Layer l;
        l.name = "l" + std::to_string(i);
        l.fwd_flops = 2.0e11;
        l.bwd_flops = 4.0e11;
        l.dp_grad_bytes = 6.0e6;
        l.fwd_comm.push_back({CollectiveType::AllReduce, 4.0e6,
                              CommDomain::ModelParallel, true});
        l.bwd_comm.push_back({CollectiveType::AllReduce, 4.0e6,
                              CommDomain::ModelParallel, true});
        g.layers.push_back(l);
    }
    return g;
}

ConvergenceReport
runModel(const ModelGraph& model, const Topology& topo,
         const ConvergenceOptions& opts,
         runtime::RuntimeConfig cfg = runtime::themisScfConfig(),
         PlanCache* cache = nullptr)
{
    sim::EventQueue queue;
    cfg.plan_cache = cache;
    runtime::CommRuntime comm(queue, topo, cfg);
    TrainingLoop loop(comm, model);
    return runConverged(comm, loop, opts);
}

TEST(Convergence, SteadyStateDetectedQuickly)
{
    ConvergenceOptions opts;
    opts.iterations = 10;
    const auto r =
        runModel(smallHybridModel(), presets::make2DSwSw(), opts);
    EXPECT_EQ(r.iterations, 10);
    ASSERT_GE(r.steady_at, 1);
    // Deterministic planning: iteration 2 matches iteration 1, so at
    // most a handful of iterations are ever simulated.
    EXPECT_LE(r.simulated_iterations, 3);
    EXPECT_EQ(r.simulated_iterations + r.replayed_iterations, 10);
    EXPECT_NE(r.steady_fingerprint, 0u);
    EXPECT_GT(r.total.total, 0.0);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_EQ(r.per_iteration.size(), 10u);
}

TEST(Convergence, ReplayTotalsBitIdenticalToFullSimulation)
{
    const ModelGraph model = smallHybridModel();
    const Topology topo = presets::make2DSwSw();
    ConvergenceOptions replay_opts;
    replay_opts.iterations = 12;
    ConvergenceOptions full_opts;
    full_opts.iterations = 12;
    full_opts.replay = false;
    const auto fast = runModel(model, topo, replay_opts);
    const auto full = runModel(model, topo, full_opts);

    EXPECT_GT(fast.replayed_iterations, 0);
    EXPECT_EQ(full.replayed_iterations, 0);
    EXPECT_EQ(full.simulated_iterations, 12);
    EXPECT_TRUE(bitIdentical(fast.total, full.total));
    EXPECT_TRUE(bitIdentical(fast.last, full.last));
    EXPECT_EQ(fast.active_time, full.active_time);
    EXPECT_EQ(fast.ops, full.ops);
    ASSERT_EQ(fast.dim_bytes.size(), full.dim_bytes.size());
    for (std::size_t d = 0; d < fast.dim_bytes.size(); ++d)
        EXPECT_EQ(fast.dim_bytes[d], full.dim_bytes[d]) << "dim " << d;
    ASSERT_EQ(fast.class_bytes.size(), full.class_bytes.size());
    for (std::size_t c = 0; c < fast.class_bytes.size(); ++c)
        EXPECT_EQ(fast.class_bytes[c], full.class_bytes[c])
            << "class " << c;
    EXPECT_EQ(fast.utilization, full.utilization);
    ASSERT_EQ(fast.per_iteration.size(), full.per_iteration.size());
    for (std::size_t i = 0; i < fast.per_iteration.size(); ++i)
        EXPECT_TRUE(bitIdentical(fast.per_iteration[i],
                                 full.per_iteration[i]))
            << "iteration " << i;
}

TEST(Convergence, SingleLoopCycleLimitOneMatchesAuto)
{
    // A single always-stepping loop has hyper-period 1: cycle_limit 0
    // (auto) and 1 must be the same engine, bit for bit, and the new
    // period-k bookkeeping must report the degenerate cycle.
    const ModelGraph model = smallHybridModel();
    const Topology topo = presets::make2DSwSw();
    ConvergenceOptions auto_opts;
    auto_opts.iterations = 10;
    ConvergenceOptions one_opts = auto_opts;
    one_opts.cycle_limit = 1;
    const auto a = runModel(model, topo, auto_opts);
    const auto b = runModel(model, topo, one_opts);
    EXPECT_TRUE(resultsBitIdentical(a, b));
    EXPECT_EQ(a.steady_at, b.steady_at);
    EXPECT_EQ(a.cycle_length, 1);
    EXPECT_EQ(a.hyper_period, 1);
    EXPECT_EQ(a.epochs_simulated, a.simulated_iterations);
    EXPECT_EQ(a.epochs_replayed, a.replayed_iterations);
    EXPECT_GT(a.epochs_replayed, 0);
}

TEST(Convergence, ExactnessCheckModePasses)
{
    ConvergenceOptions opts;
    opts.iterations = 8;
    opts.exactness_check = true; // asserts internally on divergence
    const auto r =
        runModel(smallHybridModel(), presets::make2DSwSw(), opts);
    EXPECT_EQ(r.simulated_iterations, 8);
    EXPECT_EQ(r.replayed_iterations, 0);
    EXPECT_GE(r.steady_at, 1);
}

TEST(Convergence, ExactnessOnPaperWorkloadWithPlanCache)
{
    // fig12-shaped cell: a paper workload on a next-gen platform,
    // plan cache shared, enforced orders exercised elsewhere.
    PlanCache cache;
    ConvergenceOptions opts;
    opts.iterations = 5;
    opts.exactness_check = true;
    const auto topos = presets::nextGenTopologies();
    ASSERT_FALSE(topos.empty());
    const auto r = runModel(models::byName("ResNet-152"), topos[0],
                            opts, runtime::themisScfConfig(), &cache);
    EXPECT_EQ(r.simulated_iterations, 5);
    EXPECT_GE(r.steady_at, 1);
}

TEST(Convergence, BaselineSchedulerReachesSteadyStateToo)
{
    ConvergenceOptions opts;
    opts.iterations = 9;
    const auto r = runModel(smallHybridModel(), presets::make2DSwSw(),
                            opts, runtime::baselineConfig());
    EXPECT_GE(r.steady_at, 1);
    EXPECT_GT(r.replayed_iterations, 0);
}

TEST(Convergence, SessionPoolAndArenaStopGrowingAtSteadyState)
{
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, presets::make2DSwSw(),
                              runtime::themisScfConfig());
    TrainingLoop loop(comm, smallHybridModel());

    ConvergenceOptions opts;
    opts.iterations = 2;
    opts.replay = false;
    runConverged(comm, loop, opts);
    const std::size_t session_slots = comm.sessionSlotCount();
    std::size_t op_slots = 0;
    for (int d = 0; d < comm.topology().numDims(); ++d)
        op_slots += comm.engine(d).opSlotCount();

    runConverged(comm, loop, opts);
    runConverged(comm, loop, opts);
    EXPECT_EQ(comm.sessionSlotCount(), session_slots)
        << "sessions were re-allocated instead of recycled";
    std::size_t op_slots_after = 0;
    for (int d = 0; d < comm.topology().numDims(); ++d)
        op_slots_after += comm.engine(d).opSlotCount();
    EXPECT_EQ(op_slots_after, op_slots)
        << "engine op slabs kept growing across epochs";
}

TEST(Convergence, EpochRebaseKeepsRecordsInIterationFrame)
{
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, presets::make2DSwSw(),
                              runtime::themisScfConfig());
    TrainingLoop loop(comm, smallHybridModel());
    comm.beginIterationEpoch();
    loop.runIteration();
    const auto s1 = comm.finishIterationEpoch();
    const TimeNs t1 = queue.now();
    comm.beginIterationEpoch();
    EXPECT_DOUBLE_EQ(queue.now(), 0.0); // clock rebased
    loop.runIteration();
    const auto s2 = comm.finishIterationEpoch();
    EXPECT_DOUBLE_EQ(t1, s1.duration);
    EXPECT_TRUE(s2.identicalTo(s2));
    EXPECT_GT(s1.duration, 0.0);
    EXPECT_GT(s1.ops, 0u);
    EXPECT_GT(s1.collectives, 0);
}

TEST(Convergence, FingerprintSeparatesDifferentWorkloads)
{
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, presets::make2DSwSw(),
                              runtime::themisScfConfig());
    ModelGraph small = smallHybridModel();
    ModelGraph bigger = smallHybridModel();
    bigger.layers[1].dp_grad_bytes *= 2.0;
    TrainingLoop loop_a(comm, small);
    TrainingLoop loop_b(comm, bigger);

    comm.beginIterationEpoch();
    loop_a.runIteration();
    const auto sa = comm.finishIterationEpoch();
    comm.beginIterationEpoch();
    loop_b.runIteration();
    const auto sb = comm.finishIterationEpoch();
    EXPECT_NE(sa.fingerprint, sb.fingerprint);
    EXPECT_FALSE(sa.identicalTo(sb));
}

TEST(Convergence, BatchedAdmissionBitIdenticalToScalar)
{
    // Single-tier, order-free runs take the batched refill. Each must
    // reproduce, bit for bit, what the retired always-scalar engine
    // recorded: the summed iteration breakdown, the op count and the
    // per-dimension bytes.
    struct Case
    {
        Topology topo;
        IterationBreakdown total;
        std::uint64_t ops;
        std::vector<Bytes> dim_bytes;
    };
    const Case cases[] = {
        {presets::make2DSwSw(),
         {0x1.24f8p+20, 0x1.24f8p+21, 0x1.45c8p+20, 0x1.43edp+18,
          0x1.416adp+22},
         4608,
         {0x1.5752ap+27, 0x1.0e5ddep+27}},
        {presets::make3DSwSwSwHomo(),
         {0x1.24f8p+20, 0x1.24f8p+21, 0x1.e8acp+20, 0x0p+0,
          0x1.55e5p+22},
         6144,
         {0x1.5752ap+27, 0x1.42f01e8p+26, 0x1.b3973bp+25}},
    };
    for (const Case& c : cases) {
        ConvergenceOptions opts;
        opts.iterations = 4;
        opts.replay = false;
        const auto r = runModel(smallHybridModel(), c.topo, opts);
        EXPECT_TRUE(bitIdentical(r.total, c.total)) << c.topo.name();
        EXPECT_EQ(r.ops, c.ops);
        EXPECT_EQ(r.dim_bytes, c.dim_bytes);
    }
}

TEST(Convergence, BatchedAdmissionMatchesScalarUnderPriorities)
{
    // Mixed tiers force the batched dispatcher onto the scalar
    // fallback mid-run; completion times must still match the ones
    // the retired always-scalar engine recorded, bit for bit.
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.scheduler = SchedulerKind::ThemisPriority;
    cfg.priority = PriorityPolicy::tiered(4.0);
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, presets::make2DSwSw(), cfg);
    for (int i = 0; i < 4; ++i) {
        CollectiveRequest r;
        r.type = CollectiveType::AllReduce;
        r.size = 1.0e8;
        r.priority_tier = static_cast<int>(
            i % 2 == 0 ? PriorityTier::Urgent : PriorityTier::Bulk);
        comm.issue(r);
    }
    queue.run();
    std::vector<TimeNs> done;
    for (const auto& rec : comm.records())
        done.push_back(rec.completed);
    const std::vector<TimeNs> want = {
        0x1.51b7233d044b6p+20, 0x1.7ea9397p+21, 0x1.b0eceb2p+20,
        0x1.b321417p+21};
    EXPECT_EQ(done, want);
}

TEST(Convergence, EnforcedOrderRunsStayOnScalarPathAndAgree)
{
    // Enforced orders keep every refill on the scalar path; the run
    // must match the retired always-scalar engine's recorded totals.
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.enforce_consistent_order = true;
    ConvergenceOptions opts;
    opts.iterations = 3;
    opts.replay = false;
    const auto r = runModel(smallHybridModel(), presets::make2DSwSw(),
                            opts, cfg);
    const IterationBreakdown want{0x1.b774p+19, 0x1.b774p+20,
                                  0x1.e8acp+19, 0x1.e5e38p+17,
                                  0x1.e22038p+21};
    EXPECT_TRUE(bitIdentical(r.total, want));
}

TEST(Convergence, RunWithoutEpochsStillWorksAfterEpochRun)
{
    // Epochs are opt-in: a plain runIteration() loop on the same
    // runtime keeps working after an epoch run (monotonic clock, no
    // rebasing).
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, presets::make2DSwSw(),
                              runtime::themisScfConfig());
    TrainingLoop loop(comm, smallHybridModel());
    ConvergenceOptions opts;
    opts.iterations = 2;
    runConverged(comm, loop, opts);
    const auto it1 = loop.runIteration();
    const auto it2 = loop.runIteration();
    EXPECT_GT(it1.total, 0.0);
    EXPECT_GT(it2.total, 0.0);
}

} // namespace
} // namespace themis::workload
