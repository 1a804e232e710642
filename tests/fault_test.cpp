/**
 * @file
 * Fault & heterogeneity scenario engine tests: timeline parsing with
 * field-level diagnostics, seeded flap storms, capacity degradation
 * and straggler semantics, link flaps with retry/backoff, per-dim
 * fault accounting, the fault report table, phase-aware convergence
 * replay (bit-identical to full simulation around fault windows), and
 * multi-job cluster runs under faults.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "models/model_zoo.hpp"
#include "runtime/comm_runtime.hpp"
#include "sim/fault_timeline.hpp"
#include "topology/presets.hpp"
#include "workload/convergence.hpp"
#include "workload/training_loop.hpp"

namespace themis {
namespace {

using sim::FaultKind;
using sim::FaultTimeline;

// ------------------------------------------------------- parsing

TEST(FaultTimeline, ParsesEveryKind)
{
    const auto tl = FaultTimeline::parse(
        "degrade@1e6+5e5:dim=0,factor=0.5;"
        "flap@2e6+1e4:dim=1;"
        "straggler@0:dim=0,factor=0.8;"
        "storm@3e6+1e6:dim=1,flaps=3,down=2e3");
    // degrade -> start+end, flap -> down+up, straggler -> 1,
    // storm(3) -> 3 * (down+up).
    EXPECT_EQ(tl.eventCount(), 2u + 2u + 1u + 6u);
    EXPECT_EQ(tl.maxDim(), 1);
    EXPECT_FALSE(tl.empty());
    // Events come out sorted by time.
    const auto& ev = tl.events();
    for (std::size_t i = 1; i < ev.size(); ++i)
        EXPECT_LE(ev[i - 1].at, ev[i].at);
    EXPECT_EQ(ev.front().kind, FaultKind::StragglerStart);
}

TEST(FaultTimeline, DegradeExpandsToPairedStartAndEnd)
{
    FaultTimeline tl;
    tl.addDegrade(2, 100.0, 50.0, 0.25);
    ASSERT_EQ(tl.eventCount(), 2u);
    const auto& ev = tl.events();
    EXPECT_EQ(ev[0].kind, FaultKind::DegradeStart);
    EXPECT_EQ(ev[1].kind, FaultKind::DegradeEnd);
    EXPECT_DOUBLE_EQ(ev[0].at, 100.0);
    EXPECT_DOUBLE_EQ(ev[1].at, 150.0);
    EXPECT_EQ(ev[0].pair, ev[1].pair);
    EXPECT_EQ(ev[0].dim, 2);
    EXPECT_DOUBLE_EQ(ev[0].factor, 0.25);
}

TEST(FaultTimeline, DiagnosticsNameEventAndField)
{
    try {
        FaultTimeline::parse(
            "flap@1e3+1e2:dim=0;degrade@1e6+5e5:dim=0,factor=2.0");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("event 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("degrade"), std::string::npos) << msg;
        EXPECT_NE(msg.find("factor"), std::string::npos) << msg;
    }
    try {
        FaultTimeline::parse("degrade@abc+5e5:dim=0,factor=0.5");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("event 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("time"), std::string::npos) << msg;
    }
}

TEST(FaultTimeline, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultTimeline::parse(""), ConfigError);
    EXPECT_THROW(FaultTimeline::parse("degrade@1+1:factor=0.5"),
                 ConfigError); // missing dim
    EXPECT_THROW(FaultTimeline::parse("degrade@1+1:dim=0"),
                 ConfigError); // missing factor
    EXPECT_THROW(FaultTimeline::parse("degrade@1:dim=0,factor=0.5"),
                 ConfigError); // missing window
    EXPECT_THROW(
        FaultTimeline::parse("straggler@1+5:dim=0,factor=0.5"),
        ConfigError); // straggler takes no duration
    EXPECT_THROW(FaultTimeline::parse("flap@1+5:dim=0,factor=0.5"),
                 ConfigError); // flap takes no factor
    EXPECT_THROW(FaultTimeline::parse("flap@1+5:dim=0,bogus=1"),
                 ConfigError); // unknown field
    EXPECT_THROW(FaultTimeline::parse("flap@1+5:dim=0,dim=1"),
                 ConfigError); // duplicate field
    EXPECT_THROW(FaultTimeline::parse("meteor@1+5:dim=0"),
                 ConfigError); // unknown kind
    EXPECT_THROW(FaultTimeline::parse("flap@nan+5:dim=0"),
                 ConfigError);
    EXPECT_THROW(FaultTimeline::parse("flap@-5+5:dim=0"),
                 ConfigError);
    EXPECT_THROW(FaultTimeline::parse("storm@1+5:dim=0,flaps=2"),
                 ConfigError); // storm needs down
}

TEST(FaultTimeline, StormExpansionIsDeterministicPerSeed)
{
    const std::string spec =
        "storm@0+1e6:dim=0,flaps=5,down=1e3,seed=42";
    const auto a = FaultTimeline::parse(spec);
    const auto b = FaultTimeline::parse(spec);
    ASSERT_EQ(a.eventCount(), b.eventCount());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].at, b.events()[i].at) << i;
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind) << i;
    }
    const auto c = FaultTimeline::parse(
        "storm@0+1e6:dim=0,flaps=5,down=1e3,seed=43");
    bool any_diff = false;
    for (std::size_t i = 0; i < a.events().size(); ++i)
        any_diff = any_diff || a.events()[i].at != c.events()[i].at;
    EXPECT_TRUE(any_diff) << "different seeds produced the same storm";
}

TEST(FaultTimeline, NextEventQueriesAndDimValidation)
{
    FaultTimeline tl;
    tl.addDegrade(0, 100.0, 50.0, 0.5);
    EXPECT_DOUBLE_EQ(tl.nextEventAtOrAfter(0.0), 100.0);
    EXPECT_DOUBLE_EQ(tl.nextEventAtOrAfter(100.0), 100.0);
    EXPECT_DOUBLE_EQ(tl.nextEventAfter(100.0), 150.0);
    EXPECT_TRUE(std::isinf(tl.nextEventAfter(150.0)));
    EXPECT_TRUE(std::isinf(tl.nextEventAtOrAfter(150.1)));
    EXPECT_NO_THROW(tl.validateForDims(1));
    EXPECT_THROW(tl.validateForDims(0), ConfigError);
    FaultTimeline far;
    far.addStraggler(5, 0.0, 0.5);
    EXPECT_THROW(far.validateForDims(2), ConfigError);
}

// ------------------------------------------- runtime fault behavior

/** One AllReduce on a fresh runtime; keeps the runtime alive for
 *  post-run inspection. */
struct CollectiveRun
{
    std::unique_ptr<sim::EventQueue> queue;
    std::unique_ptr<runtime::CommRuntime> comm;
    TimeNs duration = 0.0;
};

CollectiveRun
runOneCollective(const Topology& topo,
                 const runtime::RuntimeConfig& cfg)
{
    CollectiveRun run;
    run.queue = std::make_unique<sim::EventQueue>();
    run.comm =
        std::make_unique<runtime::CommRuntime>(*run.queue, topo, cfg);
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 1.0e8;
    req.chunks = 8;
    const int id = run.comm->issue(req);
    run.queue->run();
    run.comm->finalizeStats();
    run.duration = run.comm->record(id).duration();
    return run;
}

TEST(FaultRuntime, StragglerSlowsTheRunWithinBounds)
{
    const Topology topo = presets::byName("2D-SW_SW");
    const TimeNs base =
        runOneCollective(topo, runtime::themisScfConfig()).duration;

    FaultTimeline tl;
    tl.addStraggler(0, 0.0, 0.25); // dim 0 at quarter speed, forever
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &tl;
    const TimeNs slow = runOneCollective(topo, cfg).duration;
    // Dim 0's wire phases take 4x; the whole run sits between the
    // fault-free time and the all-wire-4x bound.
    EXPECT_GT(slow, base);
    EXPECT_LE(slow, 4.0 * base + 1.0);
}

TEST(FaultRuntime, EventAfterCompletionChangesNothing)
{
    const Topology topo = presets::byName("2D-SW_SW");
    const TimeNs base =
        runOneCollective(topo, runtime::themisScfConfig()).duration;

    FaultTimeline tl;
    tl.addDegrade(0, 1.0e15, 1.0e6, 0.5); // long after the run ends
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &tl;
    const TimeNs same = runOneCollective(topo, cfg).duration;
    EXPECT_DOUBLE_EQ(same, base);
}

TEST(FaultRuntime, FlapFailsRetriesAndAccounts)
{
    const Topology topo = presets::byName("2D-SW_SW");
    FaultTimeline tl;
    const TimeNs down = 5.0e4;
    tl.addFlap(0, 1.0e4, down);
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &tl;
    const auto faulted = runOneCollective(topo, cfg);
    auto& comm = *faulted.comm;

    EXPECT_GT(comm.engine(0).retryCount(), 0u);
    EXPECT_GT(comm.engine(0).lostBytes(), 0.0);
    EXPECT_EQ(comm.engine(1).retryCount(), 0u);
    const auto& ut = comm.utilization();
    EXPECT_EQ(ut.flaps()[0], 1u);
    EXPECT_DOUBLE_EQ(ut.downTime()[0], down);
    EXPECT_EQ(ut.retries()[0], comm.engine(0).retryCount());
    EXPECT_DOUBLE_EQ(ut.retryLostBytes()[0],
                     comm.engine(0).lostBytes());

    // The flap costs time: down window plus re-sent bytes.
    const auto clean =
        runOneCollective(topo, runtime::themisScfConfig());
    EXPECT_GT(faulted.duration, clean.duration);

    // Every retry succeeds (a negative duration is an undone
    // collective) and wire bytes = useful schedule bytes + re-sent:
    // for this flap, a parsed seeded storm and a parsed compound.
    FaultTimeline storm =
        FaultTimeline::parse("storm@0+1e6:dim=0,flaps=4,down=1e4,seed=7");
    FaultTimeline compound = FaultTimeline::parse(
        "degrade@1e5+3e5:dim=0,factor=0.25;flap@5e5+2e4:dim=1");
    for (const FaultTimeline* timeline : {&tl, &storm, &compound}) {
        cfg.faults = timeline;
        const auto run = runOneCollective(topo, cfg);
        EXPECT_GT(run.duration, 0.0) << timeline->describe();
        for (int d = 0; d < topo.numDims(); ++d) {
            auto& clean_ch = clean.comm->engine(d).channel();
            auto& fault_ch = run.comm->engine(d).channel();
            clean_ch.sync();
            fault_ch.sync();
            const Bytes want = clean_ch.progressedBytes() +
                               run.comm->engine(d).lostBytes();
            EXPECT_NEAR(fault_ch.progressedBytes(), want,
                        1.0 + 1e-6 * want)
                << "dim " << d << " of " << timeline->describe();
        }
    }
}

TEST(FaultRuntime, ConfigRejectsBadWiring)
{
    const Topology topo = presets::byName("2D-SW_SW");
    sim::EventQueue q;

    FaultTimeline far;
    far.addFlap(7, 0.0, 1.0e3); // dim 7 on a 2D machine
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &far;
    EXPECT_THROW(runtime::CommRuntime(q, topo, cfg), ConfigError);

    FaultTimeline ok;
    ok.addFlap(0, 0.0, 1.0e3);
    auto bad_retry = runtime::themisScfConfig();
    bad_retry.faults = &ok;
    bad_retry.retry.max_attempts = 0;
    EXPECT_THROW(runtime::CommRuntime(q, topo, bad_retry),
                 ConfigError);

    // The compatibility constructor accepts the retired baselines'
    // arguments only when every one of them is off.
    const runtime::AdmissionConfig adm;
    const auto engine = [&](bool scan, sim::ChannelFairness fairness,
                            bool scalar, bool unweighted) {
        runtime::DimensionEngine e(q, topo.dim(0), 0, IntraDimPolicy::Scf,
                                   adm, scan, fairness, scalar,
                                   unweighted);
    };
    const auto weighted = sim::ChannelFairness::Weighted;
    EXPECT_NO_THROW(engine(false, weighted, false, false));
    EXPECT_THROW(engine(true, weighted, false, false), ConfigError);
    EXPECT_THROW(engine(false, sim::ChannelFairness::Egalitarian, false,
                        false),
                 ConfigError);
    EXPECT_THROW(engine(false, weighted, true, false), ConfigError);
    EXPECT_THROW(engine(false, weighted, false, true), ConfigError);
}

// --------------------------------------- phase-aware convergence

workload::ModelGraph
smallHybridModel()
{
    workload::ModelGraph g;
    g.name = "small-hybrid";
    g.parallel = workload::ParallelSpec::hybrid(16);
    g.fused_dp_grads = false;
    for (int i = 0; i < 3; ++i) {
        workload::Layer l;
        l.name = "l" + std::to_string(i);
        l.fwd_flops = 2.0e11;
        l.bwd_flops = 4.0e11;
        l.dp_grad_bytes = 6.0e6;
        l.fwd_comm.push_back({CollectiveType::AllReduce, 4.0e6,
                              workload::CommDomain::ModelParallel,
                              true});
        l.bwd_comm.push_back({CollectiveType::AllReduce, 4.0e6,
                              workload::CommDomain::ModelParallel,
                              true});
        g.layers.push_back(l);
    }
    return g;
}

workload::ConvergenceReport
runModel(const Topology& topo, const workload::ConvergenceOptions& o,
         const FaultTimeline* faults)
{
    auto cfg = runtime::themisScfConfig();
    cfg.faults = faults;
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    workload::TrainingLoop loop(comm, smallHybridModel());
    return runConverged(comm, loop, o);
}

TEST(FaultConvergence, NullAndEmptyTimelineBitIdentical)
{
    const Topology topo = presets::make2DSwSw();
    workload::ConvergenceOptions opts;
    opts.iterations = 8;
    const FaultTimeline empty;
    const auto with_null = runModel(topo, opts, nullptr);
    const auto with_empty = runModel(topo, opts, &empty);
    EXPECT_TRUE(resultsBitIdentical(with_null, with_empty));
    EXPECT_GT(with_empty.replayed_iterations, 0);
}

TEST(FaultConvergence, PhaseAwareReplayBitIdenticalToFullSim)
{
    const Topology topo = presets::make2DSwSw();

    // Measure one fault-free iteration to place the fault window in
    // units of iterations.
    workload::ConvergenceOptions probe;
    probe.iterations = 1;
    probe.replay = false;
    const TimeNs d = runModel(topo, probe, nullptr).last.total;
    ASSERT_GT(d, 0.0);

    // Degrade dim 0 inside iteration 4 (of 12), recovering within
    // the same iteration; flap dim 1 inside iteration 7.
    FaultTimeline tl;
    tl.addDegrade(0, 3.25 * d, 0.5 * d, 0.5);
    tl.addFlap(1, 6.4 * d, 0.05 * d);

    workload::ConvergenceOptions replay_opts;
    replay_opts.iterations = 12;
    workload::ConvergenceOptions full_opts;
    full_opts.iterations = 12;
    full_opts.replay = false;

    const auto fast = runModel(topo, replay_opts, &tl);
    const auto full = runModel(topo, full_opts, &tl);

    // The replay engine skipped work but split the run at the fault
    // phases (so not everything replays).
    EXPECT_GT(fast.replayed_iterations, 0);
    EXPECT_LT(fast.replayed_iterations, 11);
    EXPECT_EQ(full.simulated_iterations, 12);
    EXPECT_TRUE(resultsBitIdentical(fast, full));

    // In-binary exactness proof of the same scenario.
    workload::ConvergenceOptions exact_opts;
    exact_opts.iterations = 12;
    exact_opts.exactness_check = true;
    const auto checked = runModel(topo, exact_opts, &tl);
    EXPECT_EQ(checked.simulated_iterations, 12);
    EXPECT_TRUE(resultsBitIdentical(checked, full));
}

TEST(FaultConvergence, PermanentStragglerStillReachesSteadyState)
{
    // A straggler from t=0 changes capacities once; iterations after
    // it are mutually identical, so detection + replay must engage
    // (the timeline is quiescent past its only event).
    const Topology topo = presets::make2DSwSw();
    FaultTimeline tl;
    tl.addStraggler(0, 0.0, 0.5);
    workload::ConvergenceOptions opts;
    opts.iterations = 10;
    const auto r = runModel(topo, opts, &tl);
    EXPECT_GT(r.replayed_iterations, 0);
    EXPECT_EQ(r.simulated_iterations + r.replayed_iterations, 10);

    workload::ConvergenceOptions full_opts;
    full_opts.iterations = 10;
    full_opts.replay = false;
    const auto full = runModel(topo, full_opts, &tl);
    EXPECT_TRUE(resultsBitIdentical(r, full));
}

// ------------------------------------------------- cluster under faults

TEST(FaultCluster, MultiJobRunSurvivesFaultsAndConserves)
{
    const Topology topo = presets::byName("2D-SW_SW");
    std::vector<cluster::JobSpec> specs;
    specs.push_back(cluster::JobSpec::training(
        models::byName("DLRM"), 2, 0.0,
        static_cast<int>(PriorityTier::Bulk)));
    cluster::JobSpec infer = cluster::JobSpec::periodicInference(
        3.2e7, 3.0e5, 5.0e5, 0.0,
        static_cast<int>(PriorityTier::Urgent));
    infer.max_requests = 6;
    specs.push_back(infer);

    auto run = [&](const FaultTimeline* tl, std::vector<Bytes>* wire,
                   std::vector<Bytes>* lost) {
        auto cfg = runtime::themisScfConfig();
        cfg.scheduler = SchedulerKind::ThemisPriority;
        cfg.priority = PriorityPolicy::tiered(4.0);
        cfg.faults = tl;
        sim::EventQueue q;
        cluster::Cluster cl(q, topo, cfg, specs);
        const auto rep = cl.run();
        auto& comm = cl.runtime();
        for (int d = 0; d < topo.numDims(); ++d) {
            auto& ch = comm.engine(d).channel();
            ch.sync();
            wire->push_back(ch.progressedBytes());
            lost->push_back(comm.engine(d).lostBytes());
        }
        return rep;
    };

    std::vector<Bytes> clean_wire, clean_lost;
    const auto clean = run(nullptr, &clean_wire, &clean_lost);

    FaultTimeline tl;
    tl.addDegrade(0, 2.0e5, 4.0e5, 0.5);
    tl.addFlap(1, 5.0e5, 2.0e4);
    std::vector<Bytes> wire, lost;
    const auto faulted = run(&tl, &wire, &lost);

    // Same work completed in both worlds.
    ASSERT_EQ(faulted.jobs.size(), clean.jobs.size());
    for (std::size_t j = 0; j < faulted.jobs.size(); ++j) {
        EXPECT_EQ(faulted.jobs[j].iterations, clean.jobs[j].iterations)
            << "job " << j;
        EXPECT_EQ(faulted.jobs[j].requests_completed,
                  clean.jobs[j].requests_completed)
            << "job " << j;
    }
    EXPECT_GE(faulted.makespan, clean.makespan);
    // Per-dim conservation: wire bytes = clean wire bytes + re-sent.
    for (int d = 0; d < topo.numDims(); ++d) {
        const Bytes want = clean_wire[static_cast<std::size_t>(d)] +
                           lost[static_cast<std::size_t>(d)];
        EXPECT_NEAR(wire[static_cast<std::size_t>(d)], want,
                    1.0 + 1e-6 * want)
            << "dim " << d;
        EXPECT_DOUBLE_EQ(clean_lost[static_cast<std::size_t>(d)], 0.0);
    }
}

} // namespace
} // namespace themis
