/**
 * @file
 * Fault-aware adaptive re-planning and per-link failure domain tests:
 * the link@ timeline grammar, link-index validation against the
 * topology, partial-capacity semantics of single-link outages (with
 * byte conservation), fault-free bit-identity with adaptation armed,
 * deterministic re-planning under capacity loss, adaptive-vs-static
 * makespans, and retry exhaustion surfacing as a structured failure.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/themis_scheduler.hpp"
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

// ------------------------------------------------- link@ grammar

TEST(LinkTimeline, ParsesLinkEvents)
{
    const auto tl = FaultTimeline::parse("link@1e4+5e4:dim=0,index=2");
    ASSERT_EQ(tl.eventCount(), 2u);
    const auto& ev = tl.events();
    EXPECT_EQ(ev[0].kind, FaultKind::LinkDown);
    EXPECT_EQ(ev[1].kind, FaultKind::LinkUp);
    EXPECT_DOUBLE_EQ(ev[0].at, 1.0e4);
    EXPECT_DOUBLE_EQ(ev[1].at, 6.0e4);
    EXPECT_EQ(ev[0].link, 2);
    EXPECT_EQ(ev[1].link, 2);
    EXPECT_EQ(ev[0].pair, ev[1].pair);
    // The up edge carries the nominal down window for accounting.
    EXPECT_DOUBLE_EQ(ev[1].factor, 5.0e4);
}

TEST(LinkTimeline, RejectsBadLinkSpecs)
{
    EXPECT_THROW(FaultTimeline::parse("link@1e4+5e4:dim=0"),
                 ConfigError); // missing index
    EXPECT_THROW(FaultTimeline::parse("link@1e4:dim=0,index=1"),
                 ConfigError); // missing down window
    EXPECT_THROW(
        FaultTimeline::parse("link@1e4+5e4:dim=0,index=-1"),
        ConfigError); // negative index
    EXPECT_THROW(
        FaultTimeline::parse("link@1e4+5e4:dim=0,index=1,factor=0.5"),
        ConfigError); // link events take no factor
    EXPECT_THROW(FaultTimeline::parse("flap@1e4+5e4:dim=0,index=1"),
                 ConfigError); // only link events take an index
}

TEST(LinkTimeline, LinkIndexValidatedAgainstTopology)
{
    // 2D-SW_SW: dim0 has 6 links per NPU, dim1 has 1.
    const Topology topo = presets::byName("2D-SW_SW");
    sim::EventQueue q;

    FaultTimeline bad;
    bad.addLinkFlap(1, 1, 1.0e4, 1.0e3); // dim1 only has link 0
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &bad;
    EXPECT_THROW(runtime::CommRuntime(q, topo, cfg), ConfigError);

    FaultTimeline ok;
    ok.addLinkFlap(0, 5, 1.0e4, 1.0e3); // dim0's last link
    cfg.faults = &ok;
    EXPECT_NO_THROW(runtime::CommRuntime(q, topo, cfg));
}

// ------------------------------------------- runtime behavior

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
                 const runtime::RuntimeConfig& cfg, Bytes size = 1.0e8,
                 int chunks = 8)
{
    CollectiveRun run;
    run.queue = std::make_unique<sim::EventQueue>();
    run.comm =
        std::make_unique<runtime::CommRuntime>(*run.queue, topo, cfg);
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = size;
    req.chunks = chunks;
    const int id = run.comm->issue(req);
    run.queue->run();
    run.comm->finalizeStats();
    run.duration = run.comm->record(id).duration();
    return run;
}

TEST(LinkFaults, SingleLinkOutageConservesBytesAndAccounts)
{
    const Topology topo = presets::byName("2D-SW_SW");
    const auto clean =
        runOneCollective(topo, runtime::themisScfConfig());

    FaultTimeline tl;
    const TimeNs down = 4.0e4;
    tl.addLinkFlap(0, 3, 2.0e4, down); // one of dim0's 6 links
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &tl;
    const auto faulted = runOneCollective(topo, cfg);
    auto& comm = *faulted.comm;

    // The outage failed in-flight transfers (retried), and the dim
    // kept running on the surviving 5/6 capacity — the re-sent bytes
    // cost dim0 time, though the makespan only moves if dim0 was the
    // critical path.
    EXPECT_GT(comm.engine(0).retryCount(), 0u);
    EXPECT_GT(comm.engine(0).lostBytes(), 0.0);
    EXPECT_GE(faulted.duration, clean.duration);
    const auto& ut = comm.utilization();
    EXPECT_EQ(ut.flaps()[0], 1u);
    EXPECT_DOUBLE_EQ(ut.downTime()[0], down);
    EXPECT_EQ(ut.retries()[0], comm.engine(0).retryCount());

    // Conservation: wire bytes = useful schedule bytes + re-sent.
    for (int d = 0; d < topo.numDims(); ++d) {
        auto& clean_ch = clean.comm->engine(d).channel();
        auto& fault_ch = faulted.comm->engine(d).channel();
        clean_ch.sync();
        fault_ch.sync();
        const Bytes want = clean_ch.progressedBytes() +
                           comm.engine(d).lostBytes();
        EXPECT_NEAR(fault_ch.progressedBytes(), want,
                    1.0 + 1e-6 * want)
            << "dim " << d;
    }
}

TEST(LinkFaults, FullLinkOutageHoldsLikeAWholeDimFlap)
{
    // Taking down every link of a dim via per-link events must hold
    // the dimension (no zero-capacity division), then recover.
    const Topology topo = presets::byName("2D-SW_SW");
    FaultTimeline tl;
    for (int l = 0; l < 6; ++l)
        tl.addLinkFlap(0, l, 2.0e4, 4.0e4);
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &tl;
    const auto faulted = runOneCollective(topo, cfg);
    const auto clean =
        runOneCollective(topo, runtime::themisScfConfig());
    EXPECT_GT(faulted.duration, clean.duration);
    for (int d = 0; d < topo.numDims(); ++d) {
        auto& clean_ch = clean.comm->engine(d).channel();
        auto& fault_ch = faulted.comm->engine(d).channel();
        clean_ch.sync();
        fault_ch.sync();
        const Bytes want = clean_ch.progressedBytes() +
                           faulted.comm->engine(d).lostBytes();
        EXPECT_NEAR(fault_ch.progressedBytes(), want,
                    1.0 + 1e-6 * want)
            << "dim " << d;
    }
}

// -------------------------------------- adaptive re-planning

struct TrainRun
{
    workload::ConvergenceReport report;
    std::uint64_t replans = 0;
    std::uint64_t capacity_fp = 0;
};

TrainRun
runDlrm(const Topology& topo, const FaultTimeline* tl, bool adapt,
        int iterations, bool replay = true)
{
    auto cfg = runtime::themisScfConfig();
    cfg.faults = tl;
    cfg.adaptation.enabled = adapt;
    sim::EventQueue q;
    runtime::CommRuntime comm(q, topo, cfg);
    workload::TrainingLoop loop(comm, models::byName("DLRM"));
    workload::ConvergenceOptions opts;
    opts.iterations = iterations;
    opts.replay = replay;
    TrainRun r;
    r.report = workload::runConverged(comm, loop, opts);
    r.replans = comm.replanCount();
    r.capacity_fp = comm.capacityFingerprint();
    return r;
}

TEST(Adaptation, FaultFreeBitIdenticalWithAdaptationArmed)
{
    // Arming the adaptation layer must cost nothing when no fault
    // fires: the capacity epoch stays 0 and every result bit matches
    // the static engine's.
    const Topology topo = presets::byName("2D-SW_SW");
    const FaultTimeline empty;
    const auto plain = runDlrm(topo, nullptr, false, 8);
    const auto armed = runDlrm(topo, &empty, true, 8);
    EXPECT_TRUE(
        workload::resultsBitIdentical(plain.report, armed.report));
    EXPECT_EQ(plain.report.steady_fingerprint,
              armed.report.steady_fingerprint);
    EXPECT_EQ(armed.replans, 0u);
    EXPECT_EQ(armed.capacity_fp, 0u);
}

TEST(Adaptation, ReplanEngagesDeterministicallyUnderStraggler)
{
    // A permanent straggler mid-iteration-0 triggers exactly one
    // re-plan; the whole adaptive run is deterministic and the
    // phase-aware replay engine still matches full simulation.
    const Topology topo = presets::byName("2D-SW_SW");
    FaultTimeline tl;
    tl.addStraggler(0, 5.0e4, 0.25);
    const auto a = runDlrm(topo, &tl, true, 8);
    const auto b = runDlrm(topo, &tl, true, 8);
    EXPECT_GT(a.replans, 0u);
    EXPECT_NE(a.capacity_fp, 0u);
    EXPECT_EQ(a.replans, b.replans);
    EXPECT_EQ(a.capacity_fp, b.capacity_fp);
    EXPECT_TRUE(workload::resultsBitIdentical(a.report, b.report));

    const auto full = runDlrm(topo, &tl, true, 8, /*replay=*/false);
    EXPECT_TRUE(workload::resultsBitIdentical(a.report, full.report));
}

TEST(Adaptation, AdaptivePlanBeatsStaleStaticPlan)
{
    // Under a permanent 4x one-dim straggler the degraded-model plan
    // shifts load off the slow dimension; the static plan keeps
    // feeding it as if it were healthy.
    const Topology topo = presets::byName("2D-SW_SW");
    FaultTimeline tl;
    tl.addStraggler(0, 0.0, 0.25);

    auto static_cfg = runtime::themisScfConfig();
    static_cfg.faults = &tl;
    const auto stale = runOneCollective(topo, static_cfg);

    auto adapt_cfg = runtime::themisScfConfig();
    adapt_cfg.faults = &tl;
    adapt_cfg.adaptation.enabled = true;
    const auto adaptive = runOneCollective(topo, adapt_cfg);

    EXPECT_GT(adaptive.comm->replanCount(), 0u);
    EXPECT_LT(adaptive.duration, stale.duration);

    // The t=0 straggler applies before planning, so the adaptive
    // collective ran wholly under the degraded plan: its wire bytes
    // follow the degraded model's stage-load algebra (loads are times
    // under the degraded bandwidths; multiply back by them).
    const auto model =
        LatencyModel::fromTopology(topo).scaledBy({0.25, 1.0});
    const auto schedules = ThemisScheduler(model).scheduleCollective(
        CollectiveType::AllReduce,
        schedulableSize(CollectiveType::AllReduce, 1.0e8,
                        model.dimSizes()),
        8);
    for (int d = 0; d < topo.numDims(); ++d) {
        Bytes expected = 0.0;
        for (const auto& sched : schedules)
            expected += model.stageLoads(sched.size, sched.stages)
                            [static_cast<std::size_t>(d)] *
                        topo.dim(d).bandwidth() * (d == 0 ? 0.25 : 1.0);
        auto& ch = adaptive.comm->engine(d).channel();
        ch.sync();
        EXPECT_NEAR(ch.progressedBytes(), expected, 1.0 + 1e-6 * expected)
            << "dim " << d;
    }

    // Over DLRM training the stale plan costs at least 10% makespan.
    const auto stale_dlrm = runDlrm(topo, &tl, false, 8);
    const auto adaptive_dlrm = runDlrm(topo, &tl, true, 8);
    EXPECT_GT(adaptive_dlrm.replans, 0u);
    EXPECT_GE(stale_dlrm.report.total.total,
              1.10 * adaptive_dlrm.report.total.total);
}

// ------------------------------------------- retry exhaustion

TEST(RetryExhaustion, SurfacesStructuredFatalReport)
{
    // Repeated single-link outages with a 1-attempt budget: each
    // down edge fails the active transfer, the engine rotates in the
    // next pending op, and once every dim0 op has burned its single
    // attempt the next failure is fatal. The error must carry a
    // structured report and the per-dim counters must record the
    // fatality.
    const Topology topo = presets::byName("2D-SW_SW");
    FaultTimeline tl;
    for (int k = 0; k < 8; ++k)
        tl.addLinkFlap(0, k % 2, 1.0e4 + 2.0e3 * k, 1.0e3);
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &tl;
    cfg.retry.max_attempts = 1;
    cfg.retry.backoff_base_ns = 1.0e3;

    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 1.0e8;
    req.chunks = 4;
    comm.issue(req);
    try {
        queue.run();
        FAIL() << "expected RetryExhaustedError";
    } catch (const runtime::RetryExhaustedError& e) {
        EXPECT_EQ(e.report().dim, 0);
        EXPECT_EQ(e.report().attempts, 2);
        EXPECT_GT(e.report().lost_bytes, 0.0);
        const std::string msg = e.what();
        EXPECT_NE(msg.find("retry"), std::string::npos) << msg;
    }
    ASSERT_NE(comm.fatalRetry(), nullptr);
    EXPECT_EQ(comm.fatalRetry()->dim, 0);
    EXPECT_GE(comm.utilization().fatalRetries()[0], 1u);
    EXPECT_EQ(comm.utilization().fatalRetries()[1], 0u);
}

} // namespace
} // namespace themis
