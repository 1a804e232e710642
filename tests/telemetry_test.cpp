/**
 * @file
 * Telemetry subsystem tests: metric instrument semantics (counters,
 * gauges, log2 histograms with tail percentiles), registry stability
 * and epoch reset, the bounded flight-recorder ring, TraceWriter JSON
 * escaping (round-trip) and time-base stitching, runtime publishing
 * for clean / faulted / adaptive runs, convergence-replay
 * bit-identity with telemetry armed, RunReport serialization, fatal
 * retry postmortems, cluster per-job metrics with deadline misses,
 * and the telemetry tail columns of the text tables.
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
#include "stats/telemetry/flight_recorder.hpp"
#include "stats/telemetry/json_writer.hpp"
#include "stats/telemetry/metrics.hpp"
#include "stats/telemetry/run_report.hpp"
#include "stats/telemetry/telemetry.hpp"
#include "stats/trace_writer.hpp"
#include "topology/presets.hpp"
#include "workload/convergence.hpp"
#include "workload/training_loop.hpp"

namespace themis {
namespace {

using sim::FaultTimeline;
using stats::telemetry::FlightEvent;
using stats::telemetry::FlightKind;
using stats::telemetry::FlightRecorder;
using stats::telemetry::Histogram;
using stats::telemetry::MetricsRegistry;
using stats::telemetry::RunReport;
using stats::telemetry::Telemetry;

// ------------------------------------------------- instruments

TEST(TelemetryMetrics, CounterAndGaugeSemantics)
{
    MetricsRegistry reg;
    auto& c = reg.counter("runtime.collectives.issued");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    auto& g = reg.gauge("engine.dim0.channel.capacity_gbps");
    g.set(300.0);
    g.set(150.0);
    EXPECT_DOUBLE_EQ(g.value(), 150.0);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(TelemetryMetrics, HistogramBucketsAndTails)
{
    // Bucket 0 absorbs everything below 1.0 -- including the
    // negative values deadline slack produces; b >= 1 holds
    // [2^(b-1), 2^b).
    EXPECT_EQ(Histogram::bucketOf(-5.0), 0);
    EXPECT_EQ(Histogram::bucketOf(0.0), 0);
    EXPECT_EQ(Histogram::bucketOf(0.5), 0);
    EXPECT_EQ(Histogram::bucketOf(1.0), 1);
    EXPECT_EQ(Histogram::bucketOf(2.0), 2);
    EXPECT_EQ(Histogram::bucketOf(3.0), 2);
    EXPECT_EQ(Histogram::bucketOf(4.0), 3);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(0), 1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(3), 8.0);

    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
    for (int i = 0; i < 100; ++i)
        h.record(1000.0);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
    // All mass in one bucket: every percentile clamps to the exact
    // min/max.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 1000.0);

    // A negative sample lands in the underflow bucket; exact min is
    // kept so the low tail stays truthful.
    h.record(-7.5);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_DOUBLE_EQ(h.min(), -7.5);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_GE(h.percentile(0.0), h.min());
    EXPECT_LE(h.percentile(1.0), h.max());

    // Values past the last bucket boundary saturate but keep max.
    Histogram big;
    big.record(1.0e300);
    EXPECT_DOUBLE_EQ(big.max(), 1.0e300);
    EXPECT_DOUBLE_EQ(big.percentile(0.99), 1.0e300);
}

TEST(TelemetryMetrics, RegistryStableRefsSortedIterationAndReset)
{
    MetricsRegistry reg;
    auto& c = reg.counter("zebra");
    c.add(3);
    // Inserting more names must not move existing instruments
    // (hot paths cache the reference).
    for (int i = 0; i < 64; ++i)
        reg.counter("c" + std::to_string(i));
    EXPECT_EQ(reg.counter("zebra").value(), 3u);
    EXPECT_EQ(&reg.counter("zebra"), &c);

    EXPECT_EQ(reg.findCounter("nope"), nullptr);
    EXPECT_EQ(reg.findGauge("nope"), nullptr);
    EXPECT_EQ(reg.findHistogram("nope"), nullptr);
    ASSERT_NE(reg.findCounter("zebra"), nullptr);

    // Iteration is name-sorted (deterministic snapshots).
    std::string prev;
    for (const auto& [name, counter] : reg.counters()) {
        EXPECT_LT(prev, name);
        prev = name;
    }

    // Epoch reset zeroes values but keeps every name registered, so
    // instrument pointers stay valid across convergence epochs.
    const std::size_t before = reg.size();
    reg.histogram("h").record(5.0);
    reg.gauge("g").set(2.0);
    reg.reset();
    EXPECT_EQ(reg.size(), before + 2);
    EXPECT_EQ(reg.counter("zebra").value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
    EXPECT_EQ(reg.histogram("h").count(), 0u);
}

// ---------------------------------------------- flight recorder

TEST(TelemetryFlight, RingBoundsOrderAndDescriptions)
{
    FlightRecorder rec(4);
    EXPECT_EQ(rec.capacity(), 4u);
    for (int i = 0; i < 10; ++i)
        rec.record({static_cast<TimeNs>(i), FlightKind::Retry, i % 2,
                    i, 100.0 * i});
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.totalRecorded(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
    const auto ev = rec.events();
    ASSERT_EQ(ev.size(), 4u);
    for (std::size_t i = 0; i < ev.size(); ++i) {
        EXPECT_DOUBLE_EQ(ev[i].at, 6.0 + static_cast<double>(i));
        EXPECT_EQ(ev[i].kind, FlightKind::Retry);
    }

    EXPECT_STREQ(stats::telemetry::flightKindName(FlightKind::Retry),
                 "retry");
    EXPECT_STREQ(
        stats::telemetry::flightKindName(FlightKind::FatalRetry),
        "fatal-retry");
    const std::string line =
        stats::telemetry::describeFlightEvent(ev.front());
    EXPECT_NE(line.find("retry"), std::string::npos) << line;

    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.totalRecorded(), 0u);
}

// ------------------------------------------------- trace writer

/** Minimal JSON string unescape (the inverse of the writer's escape
 *  set) so the escaping test can prove a true round trip. */
std::string
unescapeJsonString(const std::string& s)
{
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        ++i;
        switch (s[i]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
            const int code = std::stoi(s.substr(i + 1, 4), nullptr, 16);
            out += static_cast<char>(code);
            i += 4;
            break;
        }
        default: ADD_FAILURE() << "unknown escape \\" << s[i];
        }
    }
    return out;
}

TEST(TraceWriterEscaping, NamesRoundTripThroughJson)
{
    // The regression this guards: event names with quotes, slashes,
    // tabs, newlines or raw control bytes used to be spliced into the
    // JSON verbatim, producing output chrome://tracing rejects.
    const std::string evil =
        std::string("q\"uo\\te\nnl\ttab") + '\x01' + "ctl";
    stats::TraceWriter tw;
    tw.record(0, evil, 0.0, 10.0);
    const std::string json = tw.toJson();

    const std::string esc = "q\\\"uo\\\\te\\nnl\\ttab\\u0001ctl";
    EXPECT_NE(json.find(esc), std::string::npos) << json;
    // No raw control bytes or unescaped quotes-in-name survive.
    for (char ch : json)
        EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);

    // Round trip: the escaped form decodes back to the original.
    EXPECT_EQ(unescapeJsonString(esc), evil);
}

TEST(TraceWriter, TimeBaseStitchingAndMetadata)
{
    stats::TraceWriter tw;
    tw.setProcessName(stats::TraceWriter::kRunPid, "run");
    tw.setThreadName(stats::TraceWriter::kRunPid,
                     stats::TraceWriter::kFaultTid, "faults");

    EXPECT_DOUBLE_EQ(tw.timeBase(), 0.0);
    tw.advanceTimeBase(100.0);
    tw.advanceTimeBase(50.0);
    EXPECT_DOUBLE_EQ(tw.timeBase(), 150.0);

    // Relative records get the base folded in; Abs records do not.
    tw.span(1, 1, "rel", 0.0, 10.0);
    tw.instant(3, 1, "rel-i", 5.0);
    tw.spanAbs(3, 3, "abs", 150.0, 160.0);
    tw.instantAbs(3, 1, "abs-i", 155.0);
    EXPECT_EQ(tw.eventCount(), 4u);
    EXPECT_EQ(tw.instantCount(), 2u);

    const std::string json = tw.toJson();
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"run\""), std::string::npos);
    EXPECT_NE(json.find("\"faults\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // 150 ns base + 0 rel = 0.15 us, same instant as the abs span.
    EXPECT_NE(json.find("0.15"), std::string::npos) << json;
}

// --------------------------------------- runtime publishing

/** One AllReduce with telemetry armed; keeps everything alive for
 *  post-run inspection. */
struct TelemetryRun
{
    std::unique_ptr<Telemetry> telem;
    std::unique_ptr<stats::TraceWriter> trace;
    std::unique_ptr<sim::EventQueue> queue;
    std::unique_ptr<runtime::CommRuntime> comm;
    TimeNs duration = 0.0;
};

TelemetryRun
runOneInstrumented(const Topology& topo, runtime::RuntimeConfig cfg)
{
    TelemetryRun run;
    run.telem = std::make_unique<Telemetry>();
    run.trace = std::make_unique<stats::TraceWriter>();
    run.telem->trace = run.trace.get();
    cfg.telemetry = run.telem.get();
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

TEST(TelemetryRuntime, SingleCollectivePublishesCoreMetrics)
{
    const Topology topo = presets::byName("2D-SW_SW");
    const auto run =
        runOneInstrumented(topo, runtime::themisScfConfig());
    const auto& reg = run.telem->metrics;

    const auto* issued = reg.findCounter("runtime.collectives.issued");
    const auto* done = reg.findCounter("runtime.collectives.completed");
    ASSERT_NE(issued, nullptr);
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(issued->value(), 1u);
    EXPECT_EQ(done->value(), 1u);

    const auto* dur = reg.findHistogram("runtime.collective_ns");
    ASSERT_NE(dur, nullptr);
    EXPECT_EQ(dur->count(), 1u);
    EXPECT_DOUBLE_EQ(dur->sum(), run.duration);

    // chunk_ops accumulates at epoch close; a bare collective closes
    // no epoch, but the instrument is registered up front.
    ASSERT_NE(reg.findCounter("runtime.chunk_ops"), nullptr);

    // finalizeStats publishes the per-engine gauges (1-based dims,
    // matching the report tables' "dim1 (SW)" labels).
    const auto* cap =
        reg.findGauge("engine.dim1.channel.capacity_gbps");
    ASSERT_NE(cap, nullptr);
    EXPECT_GT(cap->value(), 0.0);
    const auto* done_ops = reg.findGauge("engine.dim1.completed_ops");
    ASSERT_NE(done_ops, nullptr);
    EXPECT_GT(done_ops->value(), 0.0);
    EXPECT_NE(reg.findGauge("engine.dim2.channel.progressed_bytes"),
              nullptr);

    // The flight recorder saw both edges of the collective.
    bool saw_issue = false, saw_done = false;
    for (const auto& e : run.telem->recorder.events()) {
        saw_issue |= e.kind == FlightKind::CollectiveIssued;
        saw_done |= e.kind == FlightKind::CollectiveDone;
    }
    EXPECT_TRUE(saw_issue);
    EXPECT_TRUE(saw_done);

    // And the fabric rows carry the chunk-op spans.
    EXPECT_GT(run.trace->eventCount(), 0u);
    EXPECT_NE(run.trace->toJson().find("\"fabric\""),
              std::string::npos);
}

TEST(TelemetryRuntime, FaultAndRetryMetricsMatchTheCounters)
{
    const Topology topo = presets::byName("2D-SW_SW");
    FaultTimeline tl;
    tl.addFlap(0, 1.0e4, 5.0e4);
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &tl;
    const auto run = runOneInstrumented(topo, cfg);
    const auto& reg = run.telem->metrics;
    const auto& ut = run.comm->utilization();

    const auto* applied = reg.findCounter("fault.events_applied");
    ASSERT_NE(applied, nullptr);
    EXPECT_EQ(applied->value(), 2u); // down + up edge

    const auto* retries = reg.findCounter("fault.retries");
    ASSERT_NE(retries, nullptr);
    EXPECT_EQ(retries->value(), ut.retries()[0] + ut.retries()[1]);
    EXPECT_GT(retries->value(), 0u);

    const auto* backoff =
        reg.findHistogram("fault.retry_backoff_ns");
    ASSERT_NE(backoff, nullptr);
    EXPECT_EQ(backoff->count(), retries->value());
    EXPECT_GT(backoff->max(), 0.0);

    const auto* lost = reg.findHistogram("fault.retry_lost_bytes");
    ASSERT_NE(lost, nullptr);
    EXPECT_NEAR(lost->sum(),
                ut.retryLostBytes()[0] + ut.retryLostBytes()[1],
                1e-6);

    bool saw_fault = false, saw_retry = false;
    for (const auto& e : run.telem->recorder.events()) {
        saw_fault |= e.kind == FlightKind::FaultEvent;
        saw_retry |= e.kind == FlightKind::Retry;
    }
    EXPECT_TRUE(saw_fault);
    EXPECT_TRUE(saw_retry);
}

TEST(TelemetryTrace, FaultInstantPrecedesReplanUnderAdaptation)
{
    // A straggler edge mid-run with adaptation armed: the trace must
    // carry the fault instant first, then the re-plan instant the
    // adaptation layer reacts with -- the `--faults --adapt` ordering
    // the Perfetto timeline sells.
    const Topology topo = presets::byName("2D-SW_SW");
    FaultTimeline tl;
    tl.addStraggler(0, 1.0e4, 0.5);
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &tl;
    cfg.adaptation.enabled = true;
    const auto run = runOneInstrumented(topo, cfg);

    const auto* replans =
        run.telem->metrics.findCounter("adapt.replans");
    ASSERT_NE(replans, nullptr);
    EXPECT_GE(replans->value(), 1u);
    EXPECT_EQ(replans->value(), run.comm->replanCount());

    bool saw_replan = false;
    for (const auto& e : run.telem->recorder.events())
        saw_replan |= e.kind == FlightKind::Replan;
    EXPECT_TRUE(saw_replan);

    const std::string json = run.trace->toJson();
    const auto fault_at = json.find("fault: straggler");
    const auto replan_at = json.find("re-plan");
    ASSERT_NE(fault_at, std::string::npos) << json;
    ASSERT_NE(replan_at, std::string::npos) << json;
    EXPECT_LT(fault_at, replan_at);
}

// ------------------------------------- convergence bit-identity

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

TEST(TelemetryConvergence, ReplayBitIdenticalWithTelemetryOn)
{
    const Topology topo = presets::make2DSwSw();
    workload::ConvergenceOptions opts;
    opts.iterations = 8;

    auto plain_cfg = runtime::themisScfConfig();
    sim::EventQueue q1;
    runtime::CommRuntime plain(q1, topo, plain_cfg);
    workload::TrainingLoop l1(plain, smallHybridModel());
    const auto off = runConverged(plain, l1, opts);

    Telemetry telem;
    stats::TraceWriter trace;
    telem.trace = &trace;
    auto cfg = runtime::themisScfConfig();
    cfg.telemetry = &telem;
    sim::EventQueue q2;
    runtime::CommRuntime comm(q2, topo, cfg);
    workload::TrainingLoop l2(comm, smallHybridModel());
    const auto on = runConverged(comm, l2, opts);

    // Telemetry is a pure observer: armed vs. unarmed runs produce
    // bit-identical results even through analytic replay.
    EXPECT_TRUE(resultsBitIdentical(off, on));
    EXPECT_GT(on.replayed_iterations, 0);

    const auto* replayed =
        telem.metrics.findCounter("replay.epochs_replayed");
    ASSERT_NE(replayed, nullptr);
    EXPECT_EQ(replayed->value(),
              static_cast<std::uint64_t>(on.replayed_iterations));

    // Simulated epochs closed with their chunk-op totals.
    const auto* ops =
        telem.metrics.findCounter("runtime.chunk_ops");
    ASSERT_NE(ops, nullptr);
    EXPECT_GT(ops->value(), 0u);

    // The replay span stitches the skipped rounds into the timeline.
    EXPECT_NE(trace.toJson().find("replay x"), std::string::npos);
    // Time base covers every epoch the queue rebased away.
    EXPECT_GT(trace.timeBase(), 0.0);
}

TEST(TelemetryConvergence, FaultedAdaptiveRunBitIdenticalWithTelemetryOn)
{
    // The run where every publisher fires (fault edges, retries,
    // re-plans, epoch closes, replay spans) must still be unperturbed.
    const Topology topo = presets::byName("2D-SW_SW");
    FaultTimeline tl;
    tl.addStraggler(0, 1.0e5, 0.5);
    tl.addFlap(1, 2.0e5, 2.0e4);
    workload::ConvergenceOptions opts;
    opts.iterations = 8;

    auto run = [&](Telemetry* telem) {
        auto cfg = runtime::themisScfConfig();
        cfg.faults = &tl;
        cfg.adaptation.enabled = true;
        cfg.telemetry = telem;
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo, cfg);
        workload::TrainingLoop loop(comm, models::byName("DLRM"));
        auto report = runConverged(comm, loop, opts);
        comm.publishTelemetry();
        EXPECT_GE(comm.replanCount(), 1u);
        return report;
    };
    const auto off = run(nullptr);
    Telemetry telem;
    stats::TraceWriter trace;
    telem.trace = &trace;
    const auto on = run(&telem);

    EXPECT_TRUE(resultsBitIdentical(off, on));
    EXPECT_EQ(off.steady_fingerprint, on.steady_fingerprint);
    EXPECT_GT(telem.metrics.size(), 0u);
    EXPECT_GT(trace.eventCount(), 0u);
}

// --------------------------------------------------- run report

TEST(TelemetryReport, RoundTripsSectionsMetricsAndRecorder)
{
    MetricsRegistry reg;
    reg.counter("runtime.collectives.issued").add(3);
    reg.gauge("engine.dim0.channel.capacity_gbps").set(300.0);
    auto& h = reg.histogram("runtime.collective_ns");
    for (int i = 1; i <= 10; ++i)
        h.record(1000.0 * i);
    FlightRecorder rec(8);
    rec.record({1.0, FlightKind::Replan, 0, 1, 0.5});

    RunReport report("single");
    report.setInfo("topology", "2D-SW_SW");
    report.setNumber("time_ns", 1.25e6);
    report.addTable("jobs", {{"job", "Job"}}).addRow({0});
    report.attachMetrics(&reg);
    report.attachRecorder(&rec);

    const std::string j = report.toJson();
    EXPECT_NE(j.find(RunReport::kSchemaVersion), std::string::npos);
    EXPECT_NE(j.find("\"mode\":\"single\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"topology\":\"2D-SW_SW\""), std::string::npos);
    EXPECT_NE(j.find("time_ns"), std::string::npos);
    EXPECT_NE(j.find("\"jobs\":[{\"job\":0}]"), std::string::npos);
    EXPECT_NE(j.find("runtime.collectives.issued"), std::string::npos);
    EXPECT_NE(j.find("\"p99\""), std::string::npos);
    EXPECT_NE(j.find("\"flight_recorder\""), std::string::npos);
    EXPECT_NE(j.find("\"re-plan\""), std::string::npos);
    EXPECT_NE(j.find("\"dropped\":0"), std::string::npos);

    // Identical inputs serialize byte-identically (sorted keys).
    EXPECT_EQ(j, report.toJson());
}

// ------------------------------------------- fatal postmortem

TEST(TelemetryFatal, FlightRecorderCapturesRetryExhaustion)
{
    // The adaptation_test exhaustion recipe with telemetry armed: the
    // run dies with RetryExhaustedError, and the flight recorder must
    // hold the fatal edge (the postmortem path the CLI dumps).
    const Topology topo = presets::byName("2D-SW_SW");
    FaultTimeline tl;
    for (int k = 0; k < 8; ++k)
        tl.addLinkFlap(0, k % 2, 1.0e4 + 2.0e3 * k, 1.0e3);
    auto cfg = runtime::themisScfConfig();
    cfg.faults = &tl;
    cfg.retry.max_attempts = 1;
    cfg.retry.backoff_base_ns = 1.0e3;
    Telemetry telem;
    cfg.telemetry = &telem;

    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = 1.0e8;
    req.chunks = 4;
    comm.issue(req);
    EXPECT_THROW(queue.run(), runtime::RetryExhaustedError);

    const auto* fatal =
        telem.metrics.findCounter("fault.fatal_retries");
    ASSERT_NE(fatal, nullptr);
    EXPECT_GE(fatal->value(), 1u);

    bool saw_fatal = false;
    FlightEvent fe;
    for (const auto& e : telem.recorder.events())
        if (e.kind == FlightKind::FatalRetry) {
            saw_fatal = true;
            fe = e;
        }
    ASSERT_TRUE(saw_fatal);
    EXPECT_EQ(fe.dim, 0);
    const std::string line =
        stats::telemetry::describeFlightEvent(fe);
    EXPECT_NE(line.find("fatal-retry"), std::string::npos) << line;
}

// ------------------------------------------- cluster publishing

TEST(TelemetryCluster, PerJobMetricsDeadlineMissesAndTraceRows)
{
    const Topology topo = presets::byName("2D-SW_SW");
    Telemetry telem;
    stats::TraceWriter trace;
    telem.trace = &trace;
    auto cfg = runtime::themisScfConfig();
    cfg.telemetry = &telem;

    std::vector<cluster::JobSpec> specs;
    specs.push_back(
        cluster::JobSpec::training(models::byName("DLRM"), 2));
    // 1 ns deadline: every request misses, slack goes negative (the
    // underflow-bucket case the slack histogram exists for).
    auto infer = cluster::JobSpec::periodicInference(1.6e7, 1.0e5, 1.0);
    infer.max_requests = 3;
    specs.push_back(infer);

    sim::EventQueue q;
    cluster::Cluster cl(q, topo, cfg, std::move(specs));
    const auto rep = cl.run();
    ASSERT_EQ(rep.jobs.size(), 2u);
    const auto& reg = telem.metrics;

    // Per-job unit histograms feed the report tails.
    const auto* iters =
        reg.findHistogram("cluster.job.0.iteration_ns");
    ASSERT_NE(iters, nullptr);
    EXPECT_EQ(iters->count(), 2u);
    EXPECT_GE(rep.jobs[0].unit_p99, 0.0);
    EXPECT_GE(rep.jobs[0].unit_max, rep.jobs[0].unit_p99);

    const auto* lat = reg.findHistogram("cluster.job.1.request_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count(), 3u);
    EXPECT_DOUBLE_EQ(rep.jobs[1].unit_max, lat->max());

    const auto* slack =
        reg.findHistogram("cluster.job.1.deadline_slack_ns");
    ASSERT_NE(slack, nullptr);
    EXPECT_EQ(slack->count(), 3u);
    EXPECT_LT(slack->max(), 0.0); // every request blew the deadline

    const auto* misses =
        reg.findCounter("cluster.job.1.deadline_misses");
    ASSERT_NE(misses, nullptr);
    EXPECT_EQ(misses->value(), 3u);
    EXPECT_EQ(rep.jobs[1].deadline_misses, 3);

    bool saw_miss = false;
    for (const auto& e : telem.recorder.events())
        saw_miss |= e.kind == FlightKind::DeadlineMiss;
    EXPECT_TRUE(saw_miss);

    // The jobs process carries per-job request / iteration spans.
    const std::string json = trace.toJson();
    EXPECT_NE(json.find("\"jobs\""), std::string::npos);
    EXPECT_NE(json.find("iter#"), std::string::npos);
    EXPECT_NE(json.find("req#"), std::string::npos);
    EXPECT_NE(json.find("deadline miss"), std::string::npos);
}

} // namespace
} // namespace themis
