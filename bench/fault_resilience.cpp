/**
 * @file
 * Fault & heterogeneity resilience benchmark: the scenario engine
 * (time-varying capacity, stragglers, link flaps with retry/backoff)
 * under in-binary correctness proofs.
 *
 * Three sections, all in one binary:
 *
 *  1. Fault-free identity: a convergence run with a null fault
 *     timeline and one with an (allocated but) empty timeline must be
 *     bit-identical — arming the fault engine costs nothing when no
 *     fault fires (asserted).
 *  2. Phase-aware replay: a training run whose middle iterations sit
 *     inside a degrade window and a link flap. Steady-state replay
 *     must split the run at the fault-phase boundaries and still
 *     produce totals bit-identical to full per-iteration simulation
 *     (asserted).
 *  3. Scenario grid: parsed fault specs (degrade, straggler, flap,
 *     seeded storm, compounds) each driving an AllReduce. For every
 *     scenario the binary asserts completion (every retry eventually
 *     succeeded) and exact byte conservation: wire bytes equal the
 *     fault-free schedule bytes plus the re-sent bytes of failed
 *     attempts.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "models/model_zoo.hpp"
#include "sim/fault_timeline.hpp"
#include "stats/summary.hpp"
#include "topology/presets.hpp"
#include "workload/convergence.hpp"
#include "workload/training_loop.hpp"

using namespace themis;

namespace {

workload::ConvergenceReport
runTraining(const Topology& topo, int iterations, bool replay,
            const sim::FaultTimeline* faults)
{
    sim::EventQueue queue;
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.faults = faults;
    runtime::CommRuntime comm(queue, topo, cfg);
    workload::TrainingLoop loop(comm, models::byName("DLRM"));
    workload::ConvergenceOptions opts;
    opts.iterations = iterations;
    opts.replay = replay;
    return workload::runConverged(comm, loop, opts);
}

struct ScenarioResult
{
    std::string name;
    std::size_t events = 0;
    std::uint64_t retries = 0;
    Bytes lost_bytes = 0.0;
    TimeNs duration = 0.0;
};

} // namespace

int
main()
{
    bench::printHeader(
        "Fault & heterogeneity resilience (scenario engine)",
        "robustness extension: Themis under degraded/flapping links "
        "(paper Sec 4.3 channel model + Sec 5 methodology)");

    const Topology topo = presets::byName("2D-SW_SW");

    // ---- 1. fault-free identity ------------------------------------
    const sim::FaultTimeline empty_tl;
    const auto with_null = runTraining(topo, 8, true, nullptr);
    const auto with_empty = runTraining(topo, 8, true, &empty_tl);
    const bool faultfree_identical =
        workload::resultsBitIdentical(with_null, with_empty);
    THEMIS_ASSERT(faultfree_identical,
                  "an empty fault timeline perturbed a fault-free run");
    std::printf("fault-free identity: null vs empty timeline "
                "bit-identical over 8 iterations\n\n");

    // ---- 2. phase-aware replay -------------------------------------
    const TimeNs d =
        runTraining(topo, 1, false, nullptr).last.total;
    sim::FaultTimeline mid;
    mid.addDegrade(0, 3.25 * d, 0.5 * d, 0.5);
    mid.addFlap(1, 7.4 * d, 0.05 * d);
    const int kIterations = 16;
    const auto full = runTraining(topo, kIterations, false, &mid);
    const auto fast = runTraining(topo, kIterations, true, &mid);
    const bool replay_identical =
        workload::resultsBitIdentical(fast, full);
    THEMIS_ASSERT(replay_identical,
                  "phase-aware replay diverged from full simulation "
                  "under a fault timeline");
    THEMIS_ASSERT(fast.replayed_iterations > 0,
                  "replay never engaged around the fault phases");
    std::printf(
        "phase-aware replay: %d iterations with a mid-run degrade "
        "window + flap\n  full simulation: %d simulated\n  "
        "phase-aware:     %d simulated + %d replayed, bit-identical\n\n",
        kIterations, full.simulated_iterations,
        fast.simulated_iterations, fast.replayed_iterations);

    // ---- 3. scenario grid ------------------------------------------
    const std::vector<std::pair<std::string, std::string>> scenarios =
        {{"degrade", "degrade@2e5+4e5:dim=0,factor=0.5"},
         {"straggler", "straggler@0:dim=0,factor=0.5"},
         {"flap", "flap@1e4+5e4:dim=0"},
         {"storm", "storm@0+1e6:dim=0,flaps=4,down=1e4,seed=7"},
         {"compound",
          "degrade@1e5+3e5:dim=0,factor=0.25;flap@5e5+2e4:dim=1"}};
    const Bytes kSize = 1.0e8;
    const int kChunks = 16;

    // Fault-free reference wire bytes per dimension.
    std::vector<Bytes> useful;
    TimeNs clean_duration = 0.0;
    {
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo,
                                  runtime::themisScfConfig());
        CollectiveRequest req;
        req.type = CollectiveType::AllReduce;
        req.size = kSize;
        req.chunks = kChunks;
        const int id = comm.issue(req);
        queue.run();
        comm.finalizeStats();
        clean_duration = comm.record(id).duration();
        for (int dd = 0; dd < topo.numDims(); ++dd) {
            auto& ch = comm.engine(dd).channel();
            ch.sync();
            useful.push_back(ch.progressedBytes());
        }
    }

    std::vector<ScenarioResult> results;
    std::string flap_table;
    for (const auto& [name, spec] : scenarios) {
        const sim::FaultTimeline tl = sim::FaultTimeline::parse(spec);
        sim::EventQueue queue;
        runtime::RuntimeConfig cfg = runtime::themisScfConfig();
        cfg.faults = &tl;
        runtime::CommRuntime comm(queue, topo, cfg);
        CollectiveRequest req;
        req.type = CollectiveType::AllReduce;
        req.size = kSize;
        req.chunks = kChunks;
        const int id = comm.issue(req);
        const std::size_t events = queue.run();
        comm.finalizeStats();

        // Every retry succeeded: the collective finished and nothing
        // is left on the queue.
        THEMIS_ASSERT(comm.record(id).done(),
                      "scenario '" << name
                                   << "' left the collective undone");
        ScenarioResult sr;
        sr.name = name;
        sr.events = events;
        sr.duration = comm.record(id).duration();
        for (int dd = 0; dd < topo.numDims(); ++dd) {
            auto& ch = comm.engine(dd).channel();
            ch.sync();
            const Bytes lost = comm.engine(dd).lostBytes();
            const Bytes want =
                useful[static_cast<std::size_t>(dd)] + lost;
            THEMIS_ASSERT(
                std::abs(ch.progressedBytes() - want) <=
                    1.0 + 1e-6 * want,
                "scenario '" << name << "' broke byte conservation on "
                             << "dim " << dd << ": progressed "
                             << ch.progressedBytes() << " vs " << want);
            sr.retries += comm.engine(dd).retryCount();
            sr.lost_bytes += lost;
        }
        if (name == "flap") {
            THEMIS_ASSERT(sr.retries > 0,
                          "flap scenario produced no retries");
            std::vector<stats::FaultDimRow> rows;
            const auto& ut = comm.utilization();
            for (int dd = 0; dd < topo.numDims(); ++dd) {
                stats::FaultDimRow row;
                row.name = "dim" + std::to_string(dd);
                const auto di = static_cast<std::size_t>(dd);
                row.capacity_events = ut.capacityEvents()[di];
                row.flaps = ut.flaps()[di];
                row.down_time = ut.downTime()[di];
                row.retries = ut.retries()[di];
                row.lost_bytes = ut.retryLostBytes()[di];
                rows.push_back(row);
            }
            flap_table = stats::renderFaultTable(rows);
        }
        results.push_back(sr);
    }

    std::printf("scenario grid (AllReduce %.0f MB, %d chunks, "
                "fault-free %.0f us):\n",
                kSize / 1e6, kChunks, clean_duration / 1e3);
    for (const auto& sr : results) {
        std::printf("  %-10s %8zu events  %4llu retries  "
                    "%10.0f bytes re-sent  t=%.0f us\n",
                    sr.name.c_str(), sr.events,
                    static_cast<unsigned long long>(sr.retries),
                    sr.lost_bytes, sr.duration / 1e3);
    }
    std::printf("\nflap scenario fault report:\n%s\n",
                flap_table.c_str());
    std::printf("all scenarios byte-conserved\n");
    return 0;
}
