/**
 * @file
 * Two-tenant priority contention study (the weighted-fairness
 * dataplane's headline scenario, in the spirit of CASSINI's
 * interleaved jobs and Metronome's priority-aware traffic).
 *
 * Tenant HI issues a chain of small, latency-critical All-Reduces
 * (one issued as the previous completes — a blocking TP/pipeline
 * stream). Tenant LO issues a batch of large bulk All-Reduces at t=0
 * (DP gradient traffic). Both share every dimension of the platform.
 *
 * The grid sweeps topology x priority weight ratio through the
 * SweepRunner (one independent simulation per cell, one plan cache
 * shared across workers). Every cell uses tiered(ratio) — ratio 1
 * separates the classes at unit weights, so the ratio axis isolates
 * the *GPS weight* effect with ready-set tier precedence held
 * constant (priority_test covers weighted-vs-egalitarian
 * equivalence; this grid measures what the weights buy). As the
 * ratio grows, the urgent tenant's mean collective completion time
 * must improve while the aggregate bytes moved stay conserved (every
 * cell completes the same total traffic; the weights only
 * redistribute *when* bytes move). Both properties are asserted, and
 * solo runs of each tenant give the slowdown columns.
 */

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/string_util.hpp"
#include "core/plan_cache.hpp"
#include "core/priority_policy.hpp"
#include "runtime/comm_runtime.hpp"
#include "sim/sweep_runner.hpp"
#include "stats/csv_writer.hpp"
#include "stats/summary.hpp"
#include "topology/presets.hpp"

using namespace themis;

namespace {

/**
 * Tenant traffic shape. The urgent collectives use few chunks so
 * their ops are transfer-bound — the regime where the GPS weight
 * (not just ready-set precedence) decides completion time; 64-chunk
 * latency-bound streams are shielded mostly by precedence alone.
 */
constexpr int kHiChainLength = 8;
constexpr Bytes kHiSize = 3.2e7; // 32 MB latency-critical All-Reduce
constexpr int kHiChunks = 8;
constexpr int kLoBatch = 4;
constexpr Bytes kLoSize = 2.56e8; // 256 MB bulk All-Reduce

struct CellResult
{
    TimeNs hi_mean = 0.0;
    TimeNs lo_mean = 0.0;
    TimeNs makespan = 0.0;
    Bytes total_bytes = 0.0;
    double hi_util = 0.0;
    double lo_util = 0.0;
};

/**
 * Run one contention cell. Every cell uses a tiered policy —
 * tiered(1) separates the classes at unit weights, so the ratio axis
 * isolates the *weight* effect with precedence held constant.
 */
CellResult
runCell(sim::EventQueue& queue, const Topology& topo, double ratio,
        PlanCache* cache, bool run_hi, bool run_lo)
{
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.scheduler = SchedulerKind::ThemisPriority;
    cfg.priority = PriorityPolicy::tiered(ratio);
    cfg.plan_cache = cache;
    runtime::CommRuntime comm(queue, topo, cfg);

    int hi_remaining = run_hi ? kHiChainLength : 0;
    std::vector<int> hi_ids, lo_ids;

    std::function<void()> issue_hi = [&] {
        if (hi_remaining == 0)
            return;
        --hi_remaining;
        CollectiveRequest req;
        req.type = CollectiveType::AllReduce;
        req.size = kHiSize;
        req.chunks = kHiChunks;
        req.priority_tier = static_cast<int>(PriorityTier::Urgent);
        hi_ids.push_back(comm.issue(req, [&] { issue_hi(); }));
    };
    if (run_hi)
        issue_hi();
    if (run_lo) {
        for (int i = 0; i < kLoBatch; ++i) {
            CollectiveRequest req;
            req.type = CollectiveType::AllReduce;
            req.size = kLoSize;
            req.priority_tier = static_cast<int>(PriorityTier::Bulk);
            lo_ids.push_back(comm.issue(req));
        }
    }
    queue.run();
    comm.finalizeStats();

    CellResult out;
    out.makespan = queue.now();
    for (int id : hi_ids)
        out.hi_mean += comm.record(id).duration();
    if (!hi_ids.empty())
        out.hi_mean /= static_cast<double>(hi_ids.size());
    for (int id : lo_ids)
        out.lo_mean += comm.record(id).duration();
    if (!lo_ids.empty())
        out.lo_mean /= static_cast<double>(lo_ids.size());
    for (int d = 0; d < comm.topology().numDims(); ++d) {
        comm.engine(d).channel().sync();
        out.total_bytes += comm.engine(d).channel().progressedBytes();
    }
    const auto classes = comm.classReports();
    for (const auto& c : classes) {
        if (c.tier == static_cast<int>(PriorityTier::Urgent))
            out.hi_util = c.utilization;
        if (c.tier == static_cast<int>(PriorityTier::Bulk))
            out.lo_util = c.utilization;
    }
    return out;
}

} // namespace

int
main()
{
    bench::printHeader(
        "Two-tenant priority contention grid",
        "weighted-fairness dataplane (Sec 4.3/4.6 urgency gap; "
        "CASSINI/Metronome scenarios)");

    const std::vector<Topology> topologies = {
        presets::byName("2D-SW_SW"),
        presets::byName("3D-SW_SW_SW_homo")};
    const std::vector<double> ratios = {1.0, 2.0, 4.0, 8.0};

    // Cells: per topology, [solo-hi, solo-lo, contended x ratios].
    const std::size_t per_topo = 2 + ratios.size();
    const std::size_t cells = topologies.size() * per_topo;
    PlanCache cache;
    const auto results = sim::sweepIndexed(
        cells,
        [&](std::size_t i, sim::EventQueue& queue) {
            const Topology& topo = topologies[i / per_topo];
            const std::size_t k = i % per_topo;
            if (k == 0)
                return runCell(queue, topo, 1.0, &cache, true, false);
            if (k == 1)
                return runCell(queue, topo, 1.0, &cache, false, true);
            return runCell(queue, topo, ratios[k - 2], &cache, true,
                           true);
        });

    stats::CsvWriter csv(bench::csvPath("priority_contention"));
    csv.writeRow({"topology", "weight_ratio", "hi_mean_ns",
                  "hi_slowdown", "lo_mean_ns", "lo_slowdown",
                  "makespan_ns", "total_bytes", "hi_util", "lo_util"});

    bool bytes_conserved = true;
    bool hi_improves = true;
    double hi_gain_max = 0.0;
    for (std::size_t t = 0; t < topologies.size(); ++t) {
        const Topology& topo = topologies[t];
        const CellResult& solo_hi = results[t * per_topo];
        const CellResult& solo_lo = results[t * per_topo + 1];
        std::printf("%s — urgent tenant: %dx %s AR chain (%d chunks); "
                    "bulk tenant: %dx %s AR\n",
                    topo.name().c_str(), kHiChainLength,
                    fmtBytes(kHiSize).c_str(), kHiChunks, kLoBatch,
                    fmtBytes(kLoSize).c_str());
        stats::TextTable table({"Weight ratio", "HI mean", "HI slowdn",
                                "LO mean", "LO slowdn", "Makespan",
                                "HI util", "LO util", "GB moved"});
        const CellResult& base = results[t * per_topo + 2]; // ratio 1
        for (std::size_t r = 0; r < ratios.size(); ++r) {
            const CellResult& c = results[t * per_topo + 2 + r];
            const double hi_slow = c.hi_mean / solo_hi.hi_mean;
            const double lo_slow = c.lo_mean / solo_lo.lo_mean;
            table.addRow({"x" + fmtDouble(ratios[r], 0),
                          fmtTime(c.hi_mean), fmtDouble(hi_slow, 2),
                          fmtTime(c.lo_mean), fmtDouble(lo_slow, 2),
                          fmtTime(c.makespan),
                          fmtPercent(c.hi_util),
                          fmtPercent(c.lo_util),
                          fmtDouble(c.total_bytes / 1e9, 2)});
            csv.writeRow({topo.name(), fmtDouble(ratios[r], 0),
                          fmtDouble(c.hi_mean, 1),
                          fmtDouble(hi_slow, 4),
                          fmtDouble(c.lo_mean, 1),
                          fmtDouble(lo_slow, 4),
                          fmtDouble(c.makespan, 1),
                          fmtDouble(c.total_bytes, 0),
                          fmtDouble(c.hi_util, 4),
                          fmtDouble(c.lo_util, 4)});
            // Conservation: every cell completes identical traffic,
            // so total progressed bytes must match the ratio-1 cell
            // to fp tolerance.
            if (std::abs(c.total_bytes - base.total_bytes) >
                1e-6 * base.total_bytes)
                bytes_conserved = false;
            // The widest weight gap must beat the unit-weight split.
            // (Point-to-point monotonicity is not asserted: discrete
            // admission makes the ratio curve locally noisy.)
            if (r + 1 == ratios.size() && c.hi_mean >= base.hi_mean)
                hi_improves = false;
            hi_gain_max = std::max(hi_gain_max,
                                   base.hi_mean / c.hi_mean);
        }
        std::printf("%s  solo: HI mean %s, LO mean %s\n\n",
                    table.render().c_str(),
                    fmtTime(solo_hi.hi_mean).c_str(),
                    fmtTime(solo_lo.lo_mean).c_str());
    }

    THEMIS_ASSERT(bytes_conserved,
                  "aggregate bytes diverged across weight ratios");
    THEMIS_ASSERT(hi_improves,
                  "priority weights failed to help the urgent tenant");

    std::printf("%zu cells; urgent-tenant max gain %.2fx; bytes "
                "conserved: %s\n",
                cells, hi_gain_max, bytes_conserved ? "yes" : "NO");
    return 0;
}
