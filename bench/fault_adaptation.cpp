/**
 * @file
 * Fault-aware adaptive re-planning benchmark: when a capacity-changing
 * fault fires, the runtime snapshots per-dim effective bandwidth and
 * re-plans newly issued collectives against the degraded latency
 * model, while in-flight collectives finish under their old plan.
 *
 * Three sections, all in one binary:
 *
 *  1. Fault-free identity: a convergence run with the adaptation layer
 *     armed (and an empty fault timeline) must be bit-identical to the
 *     static engine, fingerprint-checked, with a zero capacity epoch —
 *     arming adaptation costs nothing when no fault fires (asserted).
 *  2. Stale-plan gap: DLRM training under a permanent 4x one-dim
 *     straggler, static plan vs adaptive re-planning. The binary
 *     asserts the adaptive makespan beats the stale static plan by at
 *     least the win floor (1.10x) and that at least one re-plan fired.
 *  3. Adaptive scenario grid: parsed fault specs (straggler, degrade,
 *     per-link outages, compounds) each driving an AllReduce with
 *     adaptation on. For the t=0 straggler the binary asserts exact
 *     byte conservation against the *degraded* model's own schedule
 *     algebra (the adaptive plan moves different per-dim volumes than
 *     the clean plan — that is the point).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/themis_scheduler.hpp"
#include "models/model_zoo.hpp"
#include "sim/fault_timeline.hpp"
#include "topology/presets.hpp"
#include "workload/convergence.hpp"
#include "workload/training_loop.hpp"

using namespace themis;

namespace {

constexpr double kWinFloor = 1.10;

struct TrainRun
{
    workload::ConvergenceReport report;
    std::uint64_t replans = 0;
    std::uint64_t capacity_fp = 0;
};

TrainRun
runTraining(const Topology& topo, int iterations,
            const sim::FaultTimeline* faults, bool adapt)
{
    sim::EventQueue queue;
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.faults = faults;
    cfg.adaptation.enabled = adapt;
    runtime::CommRuntime comm(queue, topo, cfg);
    workload::TrainingLoop loop(comm, models::byName("DLRM"));
    workload::ConvergenceOptions opts;
    opts.iterations = iterations;
    TrainRun r;
    r.report = workload::runConverged(comm, loop, opts);
    r.replans = comm.replanCount();
    r.capacity_fp = comm.capacityFingerprint();
    return r;
}

} // namespace

int
main()
{
    bench::printHeader(
        "Fault-aware adaptive re-planning (capacity epochs)",
        "robustness extension: Themis re-planning chunk schedules "
        "against degraded per-dim bandwidths (paper Sec 3-4 "
        "scheduling + Sec 4.3 channel model)");

    const Topology topo = presets::byName("2D-SW_SW");

    // ---- 1. fault-free identity ------------------------------------
    const sim::FaultTimeline empty_tl;
    const auto plain = runTraining(topo, 8, nullptr, false);
    const auto armed = runTraining(topo, 8, &empty_tl, true);
    const bool faultfree_identical =
        workload::resultsBitIdentical(plain.report, armed.report) &&
        plain.report.steady_fingerprint ==
            armed.report.steady_fingerprint;
    THEMIS_ASSERT(faultfree_identical,
                  "arming adaptation perturbed a fault-free run");
    THEMIS_ASSERT(armed.replans == 0 && armed.capacity_fp == 0,
                  "a fault-free run re-planned (replans="
                      << armed.replans << ", capacity epoch "
                      << armed.capacity_fp << ")");
    std::printf("fault-free identity: adaptation armed vs static "
                "engine bit-identical over 8 iterations (fingerprint "
                "%016llx, capacity epoch 0)\n\n",
                static_cast<unsigned long long>(
                    armed.report.steady_fingerprint));

    // ---- 2. stale-plan gap under a permanent straggler -------------
    sim::FaultTimeline straggler;
    straggler.addStraggler(0, 0.0, 0.25); // dim0 at 4x slowdown
    const int kIterations = 8;
    const auto stale =
        runTraining(topo, kIterations, &straggler, false);
    const auto adaptive =
        runTraining(topo, kIterations, &straggler, true);
    const TimeNs static_makespan = stale.report.total.total;
    const TimeNs adaptive_makespan = adaptive.report.total.total;
    const double win = static_makespan / adaptive_makespan;
    THEMIS_ASSERT(adaptive.replans > 0,
                  "the straggler never triggered a re-plan");
    THEMIS_ASSERT(win >= kWinFloor,
                  "adaptive re-planning won only "
                      << win << "x over the stale static plan (floor "
                      << kWinFloor << "x)");
    std::printf(
        "stale-plan gap: DLRM x%d iterations, permanent 4x dim0 "
        "straggler\n  static plan : %.1f ms makespan\n  adaptive    : "
        "%.1f ms makespan (%llu re-plan(s), capacity epoch %016llx)\n"
        "  win         : %.2fx (floor %.2fx, asserted)\n\n",
        kIterations, static_makespan / 1e6, adaptive_makespan / 1e6,
        static_cast<unsigned long long>(adaptive.replans),
        static_cast<unsigned long long>(adaptive.capacity_fp), win,
        kWinFloor);

    // ---- 3. adaptive scenario grid ---------------------------------
    const std::vector<std::pair<std::string, std::string>> scenarios =
        {{"straggler", "straggler@0:dim=0,factor=0.25"},
         {"degrade", "degrade@2e5+4e5:dim=0,factor=0.5"},
         {"link", "link@2e4+4e4:dim=0,index=3"},
         {"link-compound",
          "link@2e4+4e4:dim=0,index=0;link@3e4+2e4:dim=0,index=1;"
          "straggler@1e5:dim=1,factor=0.8"}};
    const Bytes kSize = 1.0e8;
    const int kChunks = 16;

    std::printf("adaptive scenario grid (AllReduce %.0f MB, %d "
                "chunks, --adapt on):\n",
                kSize / 1e6, kChunks);
    for (const auto& [name, spec] : scenarios) {
        const sim::FaultTimeline tl = sim::FaultTimeline::parse(spec);
        sim::EventQueue queue;
        runtime::RuntimeConfig cfg = runtime::themisScfConfig();
        cfg.faults = &tl;
        cfg.adaptation.enabled = true;
        runtime::CommRuntime comm(queue, topo, cfg);
        CollectiveRequest req;
        req.type = CollectiveType::AllReduce;
        req.size = kSize;
        req.chunks = kChunks;
        const int id = comm.issue(req);
        const std::size_t events = queue.run();
        comm.finalizeStats();
        THEMIS_ASSERT(comm.record(id).done(),
                      "scenario '" << name
                                   << "' left the collective undone");

        if (name == "straggler") {
            // The t=0 straggler applies before planning, so the whole
            // collective ran under the degraded plan: wire bytes must
            // match the degraded model's own stage-load algebra.
            const auto model =
                LatencyModel::fromTopology(topo).scaledBy(
                    {0.25, 1.0});
            ThemisScheduler degraded(model);
            const auto schedules = degraded.scheduleCollective(
                req.type,
                schedulableSize(req.type, req.size,
                                model.dimSizes()),
                req.chunks);
            for (int d = 0; d < topo.numDims(); ++d) {
                Bytes expected = 0.0;
                for (const auto& sched : schedules) {
                    const auto loads =
                        model.stageLoads(sched.size, sched.stages);
                    // stageLoads are times under the *degraded* BW;
                    // multiply back by that BW for wire bytes.
                    expected += loads[static_cast<std::size_t>(d)] *
                                topo.dim(d).bandwidth() *
                                (d == 0 ? 0.25 : 1.0);
                }
                auto& ch = comm.engine(d).channel();
                ch.sync();
                const Bytes got = ch.progressedBytes();
                THEMIS_ASSERT(
                    std::abs(got - expected) <= 1.0 + 1e-6 * expected,
                    "adaptive straggler plan broke byte conservation "
                    "on dim "
                        << d << ": progressed " << got << " vs "
                        << expected);
            }
        }
        std::uint64_t retries = 0;
        for (int d = 0; d < topo.numDims(); ++d)
            retries += comm.engine(d).retryCount();
        std::printf("  %-13s %8zu events  %llu re-plan(s)  "
                    "%4llu retries  t=%.0f us\n",
                    name.c_str(), events,
                    static_cast<unsigned long long>(
                        comm.replanCount()),
                    static_cast<unsigned long long>(retries),
                    comm.record(id).duration() / 1e3);
    }
    std::printf("\nstraggler plan byte-conserved\n");
    return 0;
}
