/**
 * @file
 * Reproduction fidelity: every claim of the Themis paper (arXiv
 * 2110.04478) that the simulator reproduces, asserted from one table.
 *
 * Each figure's grid is simulated once through the sweep harness. A
 * row of the table is one of two kinds:
 *
 *  - in band: within ±10% of the paper's number, or meeting the
 *    ordering the paper states;
 *  - known gap: pinned to the value the simulator measures today
 *    (±2%), with the reason it differs from the paper, or "open".
 *
 * Drifting out of a band fails, and so does closing a gap: either way
 * the row has to be changed on purpose. The table is printed, so a
 * failing run shows every row next to the paper's value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/ideal_estimator.hpp"
#include "core/optimal_mix.hpp"
#include "core/plan_cache.hpp"
#include "core/themis_scheduler.hpp"
#include "models/model_zoo.hpp"
#include "runtime/comm_runtime.hpp"
#include "sim/sweep_runner.hpp"
#include "topology/parse.hpp"
#include "topology/presets.hpp"
#include "topology/provisioning.hpp"
#include "workload/training_loop.hpp"

namespace themis {
namespace {

// ------------------------------------------------------------- table

struct Row
{
    std::string claim;
    std::string measured;
    std::string paper;
    std::string gap; ///< why the row is a known gap; empty when in band
    bool ok = false;
};

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

class FidelityTable
{
  public:
    /** In band: lo <= measured <= hi. */
    void
    range(std::string claim, double measured, double lo, double hi,
          std::string paper)
    {
        rows_.push_back({std::move(claim), num(measured),
                         std::move(paper), "",
                         lo <= measured && measured <= hi});
    }

    /** In band: within ±10% of the paper's number. */
    void
    band(std::string claim, double measured, double paper)
    {
        range(std::move(claim), measured, 0.9 * paper, 1.1 * paper,
              num(paper));
    }

    /** In band: the ordering the paper states holds. */
    void
    ordering(std::string claim, bool holds, std::string measured,
             std::string paper)
    {
        rows_.push_back({std::move(claim), std::move(measured),
                         std::move(paper), "", holds});
    }

    /** Known gap: measured stays within ±2% of today's @p pinned. */
    void
    gap(std::string claim, double measured, double pinned,
        std::string paper, std::string why)
    {
        rows_.push_back({std::move(claim), num(measured),
                         std::move(paper), std::move(why),
                         std::abs(measured - pinned) <=
                             0.02 * std::abs(pinned)});
    }

    /** band(), or a gap() pinned to @p pinned when that is nonzero. */
    void
    bandOrGap(std::string claim, double measured, double paper,
              double pinned)
    {
        if (pinned > 0.0)
            gap(std::move(claim), measured, pinned, num(paper), "open");
        else
            band(std::move(claim), measured, paper);
    }

    const std::vector<Row>& rows() const { return rows_; }

  private:
    std::vector<Row> rows_;
};

// ------------------------------------------------- single collectives

/** Table 3's simulated schedulers, in this index order. */
enum Sched { kBaseline, kFifo, kScf, kSchedCount };

/** One simulated All-Reduce. */
struct CollectiveRun
{
    TimeNs time = 0.0;
    double util = 0.0;
    /** Per dim: fraction of the run with a chunk op present (Fig 9). */
    std::vector<double> active;
};

/**
 * Every (topology, size, chunks, scheduler) All-Reduce cell, simulated
 * once across the sweep harness's workers. One of the size and chunk
 * axes has a single entry, so a cell's "point" is its index on the
 * other one.
 */
class Table3Grid
{
  public:
    Table3Grid(std::vector<Topology> topos, std::vector<Bytes> sizes,
               std::vector<int> chunks)
        : topos_(std::move(topos)), sizes_(std::move(sizes)),
          chunks_(std::move(chunks))
    {
        const std::size_t points = sizes_.size() * chunks_.size();
        const runtime::RuntimeConfig configs[kSchedCount] = {
            runtime::baselineConfig(), runtime::themisFifoConfig(),
            runtime::themisScfConfig()};
        runs_ = sim::sweepIndexed(
            topos_.size() * points * kSchedCount,
            [&](std::size_t i, sim::EventQueue& queue) {
                const std::size_t point = i / kSchedCount % points;
                const Topology& topo = topos_[i / kSchedCount / points];
                runtime::CommRuntime comm(queue, topo,
                                          configs[i % kSchedCount]);
                CollectiveRequest req;
                req.type = CollectiveType::AllReduce;
                req.size = sizes_[point / chunks_.size()];
                req.chunks = chunks_[point % chunks_.size()];
                const int id = comm.issue(req);
                queue.run();
                comm.finalizeStats();
                CollectiveRun run;
                run.time = comm.record(id).duration();
                run.util = comm.utilization().weightedUtilization();
                for (int d = 0; d < topo.numDims(); ++d) {
                    run.active.push_back(comm.activity().busyTime(d) /
                                         queue.now());
                }
                return run;
            });
    }

    const CollectiveRun&
    at(std::size_t topo, std::size_t point, int sched) const
    {
        const std::size_t points = sizes_.size() * chunks_.size();
        return runs_[(topo * points + point) * kSchedCount +
                     static_cast<std::size_t>(sched)];
    }

    double
    speedup(std::size_t topo, std::size_t point, int sched) const
    {
        return at(topo, point, kBaseline).time /
               at(topo, point, sched).time;
    }

    const std::vector<Topology>& topos() const { return topos_; }
    const std::vector<Bytes>& sizes() const { return sizes_; }
    const std::vector<int>& chunks() const { return chunks_; }

  private:
    std::vector<Topology> topos_;
    std::vector<Bytes> sizes_;
    std::vector<int> chunks_;
    std::vector<CollectiveRun> runs_;
};

/** "k/n" plus the cells where a per-cell ordering fails. */
struct CellCount
{
    int holds = 0;
    int cells = 0;
    std::string failing;

    void
    add(bool ok, const std::string& cell)
    {
        ++cells;
        if (ok)
            ++holds;
        else
            failing += " " + cell;
    }

    std::string
    text() const
    {
        return std::to_string(holds) + "/" + std::to_string(cells) +
               (failing.empty() ? "" : " (fails:" + failing + ")");
    }
};

// --------------------------------------------------------- figures

/** Fig 8/11 (and Fig 9 from its 1 GB 3D-SW_SW_SW_homo cells). */
void
addMicrobenchmark(FidelityTable& table)
{
    const Table3Grid grid(presets::nextGenTopologies(),
                          {100.0e6, 200.0e6, 300.0e6, 400.0e6, 500.0e6,
                           600.0e6, 700.0e6, 800.0e6, 900.0e6, 1.0e9},
                          {64});
    // The one cell where SCF finishes after FIFO (and uses less BW).
    const std::string scf_after_fifo = "2D-SW_SW 200MB";

    double util[kSchedCount] = {0, 0, 0};
    double speedup_fifo = 0.0, speedup_scf = 0.0, speedup_scf_max = 0.0;
    CellCount fifo_le_base, scf_le_base, scf_le_fifo, scf_util_ge;
    double exception_ratio = 0.0;
    for (std::size_t t = 0; t < grid.topos().size(); ++t) {
        for (std::size_t s = 0; s < grid.sizes().size(); ++s) {
            const auto& base = grid.at(t, s, kBaseline);
            const auto& fifo = grid.at(t, s, kFifo);
            const auto& scf = grid.at(t, s, kScf);
            for (int k = 0; k < kSchedCount; ++k)
                util[k] += grid.at(t, s, k).util;
            speedup_fifo += grid.speedup(t, s, kFifo);
            speedup_scf += grid.speedup(t, s, kScf);
            speedup_scf_max =
                std::max(speedup_scf_max, grid.speedup(t, s, kScf));

            const std::string cell =
                grid.topos()[t].name() + " " +
                std::to_string(static_cast<int>(grid.sizes()[s] / 1e6)) +
                "MB";
            fifo_le_base.add(fifo.time <= base.time, cell);
            scf_le_base.add(scf.time <= base.time, cell);
            if (cell == scf_after_fifo) {
                exception_ratio = scf.time / fifo.time;
                continue;
            }
            scf_le_fifo.add(scf.time <= fifo.time, cell);
            scf_util_ge.add(scf.util >= fifo.util, cell);
        }
    }
    const double cells = static_cast<double>(fifo_le_base.cells);

    table.band("Fig 11: Baseline avg BW util [%]",
               100.0 * util[kBaseline] / cells, 56.31);
    table.band("Fig 11: Themis+FIFO avg BW util [%]",
               100.0 * util[kFifo] / cells, 87.67);
    table.band("Fig 11: Themis+SCF avg BW util [%]",
               100.0 * util[kScf] / cells, 95.14);
    table.band("Fig 8: Themis+FIFO avg All-Reduce speedup",
               speedup_fifo / cells, 1.58);
    table.band("Fig 8: Themis+SCF avg All-Reduce speedup",
               speedup_scf / cells, 1.72);
    table.gap("Fig 8: Themis+SCF max All-Reduce speedup",
              speedup_scf_max, 2.98, "2.70", "open");
    auto everyCell = [&](const std::string& claim, const CellCount& c) {
        table.ordering(claim, c.holds == c.cells, c.text(), "every cell");
    };
    everyCell("Fig 8: FIFO time <= Baseline, cells", fifo_le_base);
    everyCell("Fig 8: SCF time <= Baseline, cells", scf_le_base);
    everyCell("Fig 8: SCF time <= FIFO, other cells", scf_le_fifo);
    everyCell("Fig 11: SCF util >= FIFO, other cells", scf_util_ge);
    table.gap("Fig 8: SCF/FIFO time, " + scf_after_fifo,
              exception_ratio, 1.0128, "<= 1",
              "open: the one cell where SCF trails FIFO");

    // Fig 9: the 1 GB All-Reduce on 3D-SW_SW_SW_homo.
    const std::size_t homo = 1, gb = grid.sizes().size() - 1;
    ASSERT_EQ(grid.topos()[homo].name(), "3D-SW_SW_SW_homo");
    const auto& base = grid.at(homo, gb, kBaseline);
    const auto& fifo = grid.at(homo, gb, kFifo);
    const auto& scf = grid.at(homo, gb, kScf);
    for (int d = 1; d < 3; ++d) {
        table.range("Fig 9: Baseline dim" + std::to_string(d + 1) +
                        " activity [%]",
                    100.0 * base.active[d], 0.0, 50.0,
                    "mostly idle (< 50)");
    }
    for (int d = 0; d < 3; ++d) {
        table.range("Fig 9: Themis+SCF dim" + std::to_string(d + 1) +
                        " activity [%]",
                    100.0 * scf.active[d], 90.0, 100.0,
                    "near-continuous (>= 90)");
    }
    table.ordering("Fig 9: finish SCF < FIFO < Baseline [ms]",
                   scf.time < fifo.time && fifo.time < base.time,
                   num(scf.time / kMs) + " < " + num(fifo.time / kMs) +
                       " < " + num(base.time / kMs),
                   "SCF finishes first");
}

/** Fig 10: a 100 MB All-Reduce as chunks per collective sweep 4..512. */
void
addChunkSweep(FidelityTable& table)
{
    const Table3Grid grid(
        {presets::make3DSwSwSwHetero(), presets::make4DRingFcRingSw()},
        {100.0e6}, {4, 8, 16, 32, 64, 128, 256, 512});
    const std::size_t c4 = 0, c64 = 4;
    for (std::size_t t = 0; t < grid.topos().size(); ++t) {
        const std::string topo = grid.topos()[t].name();
        double lo = 1.0, hi = 0.0;
        for (std::size_t c = 0; c < grid.chunks().size(); ++c) {
            lo = std::min(lo, grid.at(t, c, kBaseline).util);
            hi = std::max(hi, grid.at(t, c, kBaseline).util);
        }
        table.range("Fig 10: Baseline util spread over chunks, " + topo,
                    hi - lo, 0.0, 0.10, "flat (<= 0.10)");
        const double gain =
            grid.at(t, c64, kScf).util - grid.at(t, c4, kScf).util;
        table.range("Fig 10: SCF util(64) - util(4), " + topo, gain,
                    0.15, 1.0, "rises (> 0.15)");
    }
}

/** Sec 6.3: the BW2 sweep of a 4x4 switch platform, BW1 = 800 Gb/s. */
void
addBandwidthSplit(FidelityTable& table)
{
    const std::vector<double> bw2{50, 100, 200, 400, 800, 1600};
    std::vector<Topology> topos;
    for (double bw : bw2) {
        topos.push_back(parseTopology(
            "sweep-4x4", "SW:4:800:100,SW:4:" + num(bw) + ":100"));
    }
    const Table3Grid grid(topos, {1.0e9}, {64});
    double prev = 1.0;
    std::string rising;
    bool rises = true;
    for (std::size_t t = 0; t < topos.size(); ++t) {
        const auto pair = classifyPair(topos[t], 0, 1);
        const double speedup = grid.speedup(t, 0, kScf);
        if (pair.scenario != ProvisionScenario::OverProvisioned) {
            table.band("Sec 6.3: SCF speedup, BW2 " + num(bw2[t]) +
                           " (" + provisionScenarioName(pair.scenario) +
                           ")",
                       speedup, 1.00);
            continue;
        }
        rises = rises && speedup > prev;
        prev = speedup;
        rising += (rising.empty() ? "" : " < ") + num(speedup);
    }
    table.ordering("Sec 6.3: SCF speedup, Over-Provisioned BW2 up",
                   rises, rising, "rises with BW2");
}

/** Sec 4.5: in-network offload on every switch dimension. */
void
addOffload(FidelityTable& table)
{
    std::vector<Topology> topos;
    for (const auto& topo : presets::nextGenTopologies()) {
        std::vector<DimensionConfig> dims = topo.dims();
        for (auto& d : dims)
            d.in_network_offload = d.kind == DimKind::Switch;
        topos.emplace_back(topo.name() + "+offload", std::move(dims));
    }
    const Table3Grid grid(topos, {1.0e9}, {64});
    for (std::size_t t = 0; t < topos.size(); ++t) {
        const double speedup = grid.speedup(t, 0, kScf);
        table.ordering("Sec 4.5: SCF beats Baseline, " + topos[t].name(),
                       speedup > 1.0, num(speedup) + "x",
                       "still gains");
    }
}

/**
 * Oracles. Algorithm 1's greedy 64-chunk load can be no better than
 * the LP's dual (lower) bound, and lands within 5% of it. Table 3's
 * Ideal is not a lower bound on one collective's time.
 */
void
addOracles(FidelityTable& table)
{
    const Bytes size = 1.0e9;
    for (const auto& topo : presets::nextGenTopologies()) {
        const auto model = LatencyModel::fromTopology(topo);
        ThemisConfig cfg;
        cfg.init_loads_with_fixed_delay = false; // N*B loads only
        ThemisScheduler sched(model, cfg);
        sched.scheduleCollective(CollectiveType::AllReduce, size, 64);
        const auto& loads = sched.trackedLoads();
        // The tracker accounts the RS pass; the mirrored AG doubles it.
        const double greedy =
            2.0 * *std::max_element(loads.begin(), loads.end());
        const auto opt = optimalStaticMix(model, CollectiveType::AllReduce);
        table.range("Oracle: greedy / LP dual bound, " + topo.name(),
                    greedy / (opt.dual_bound * size), 1.0, 1.05,
                    "1 to 1.05");
    }

    const Table3Grid fig5(
        {parseTopology("fig5", "SW:4:384:0,SW:4:192:0")}, {256.0e6}, {4});
    const TimeNs ideal = idealCollectiveTime(
        CollectiveType::AllReduce, 256.0e6,
        LatencyModel::fromTopology(fig5.topos()[0]));
    table.gap("Fig 5: Themis+SCF time / Ideal",
              fig5.at(0, 0, kScf).time / ideal, 0.9844, ">= 1",
              "Ideal charges 2x size, a 4x4 All-Reduce moves 2x(15/16)");
}

// ------------------------------------------------------- training

/** Zero-latency 1-dim platform pooling all of @p topo's bandwidth. */
Topology
idealTopology(const Topology& topo)
{
    DimensionConfig d;
    d.kind = DimKind::Switch;
    d.size = static_cast<int>(topo.totalNpus());
    d.link_bw_gbps = bwToGbps(topo.totalBandwidth());
    d.links_per_npu = 1;
    d.step_latency_ns = 0.0;
    return Topology(topo.name() + "-ideal", {d});
}

struct IterationRun
{
    workload::IterationBreakdown it;
    double util = 0.0;
};

/** Fig 12's methods, in this index order. */
enum Method { kMBaseline, kMScf, kMIdeal, kMethodCount };

/**
 * Fig 12 (and Fig 4 from its Baseline cells): one training iteration
 * of every paper workload on every platform under each method, with
 * one plan cache shared by every worker.
 */
void
addTraining(FidelityTable& table)
{
    const auto workloads = models::paperWorkloads();
    const auto topos = presets::allTopologies(); // Current-2D first
    std::vector<Topology> ideal;
    for (const auto& topo : topos)
        ideal.push_back(idealTopology(topo));
    PlanCache cache;
    const std::size_t per_workload = topos.size() * kMethodCount;
    const auto runs = sim::sweepIndexed(
        workloads.size() * per_workload,
        [&](std::size_t i, sim::EventQueue& queue) {
            const std::size_t t = i % per_workload / kMethodCount;
            const auto method = static_cast<Method>(i % kMethodCount);
            runtime::RuntimeConfig cfg = method == kMBaseline
                                             ? runtime::baselineConfig()
                                             : runtime::themisScfConfig();
            cfg.plan_cache = &cache;
            runtime::CommRuntime comm(
                queue, method == kMIdeal ? ideal[t] : topos[t], cfg);
            workload::TrainingLoop loop(
                comm, models::byName(workloads[i / per_workload]));
            IterationRun run;
            run.it = loop.runIteration();
            comm.finalizeStats();
            run.util = comm.utilization().weightedUtilization();
            return run;
        });
    auto at = [&](std::size_t w, std::size_t t, Method m) -> const auto& {
        return runs[w * per_workload + t * kMethodCount + m];
    };
    auto workloadIndex = [&](const std::string& name) {
        return static_cast<std::size_t>(
            std::find(workloads.begin(), workloads.end(), name) -
            workloads.begin());
    };

    // Fig 12: speedup of Themis+SCF over Baseline on the next-gen
    // platforms (every topology but Current-2D). A zero pin = in band.
    struct E2eClaim
    {
        const char* workload;
        double avg, max, pinned_avg, pinned_max;
    };
    const E2eClaim e2e[] = {{"ResNet-152", 1.49, 2.25, 1.31, 1.78},
                            {"GNMT", 1.30, 1.78, 0, 0},
                            {"DLRM", 1.30, 1.77, 0, 2.00},
                            {"Transformer-1T", 1.25, 1.53, 0, 0}};
    double themis_reduction = 0.0, ideal_reduction = 0.0;
    int exposed_cells = 0;
    for (const auto& claim : e2e) {
        const std::size_t w = workloadIndex(claim.workload);
        double sum = 0.0, max = 0.0;
        for (std::size_t t = 1; t < topos.size(); ++t) {
            const auto& base = at(w, t, kMBaseline).it;
            const auto& scf = at(w, t, kMScf).it;
            const auto& idl = at(w, t, kMIdeal).it;
            sum += base.total / scf.total;
            max = std::max(max, base.total / scf.total);
            const double exposed = base.exposed_mp + base.exposed_dp;
            const double scf_exposed = scf.exposed_mp + scf.exposed_dp;
            const double idl_exposed = idl.exposed_mp + idl.exposed_dp;
            if (scf_exposed > 0.0 && idl_exposed > 0.0) {
                themis_reduction += exposed / scf_exposed;
                ideal_reduction += exposed / idl_exposed;
                ++exposed_cells;
            }
        }
        const std::string name = std::string("Fig 12: ") + claim.workload;
        table.bandOrGap(name + " avg speedup",
                        sum / static_cast<double>(topos.size() - 1),
                        claim.avg, claim.pinned_avg);
        table.bandOrGap(name + " max speedup", max, claim.max,
                        claim.pinned_max);
    }
    table.band("Fig 12: Themis exposed-comm reduction",
               themis_reduction / exposed_cells, 1.65);
    table.gap("Fig 12: Ideal exposed-comm reduction",
              ideal_reduction / exposed_cells, 2.55, "1.72",
              "open; suspect: the Ideal platform has zero latency");

    // Fig 4: the average BW utilization Baseline scheduling reaches
    // in one training iteration: ~98% on Current-2D, 35-75% next-gen.
    const std::map<std::string, double> gaps = {
        {"Transformer-1T on Current-2D", 19.5},
        {"Transformer-1T on 3D-SW_SW_SW_hetero", 32.6},
        {"Transformer-1T on 4D-Ring_SW_SW_SW", 20.6},
        {"Transformer-1T on 4D-Ring_FC_Ring_SW", 28.8},
        {"ResNet-152 on 3D-SW_SW_SW_homo", 32.9},
        {"GNMT on 3D-SW_SW_SW_homo", 34.2}};
    for (const std::string name : {"ResNet-152", "GNMT", "Transformer-1T"}) {
        for (std::size_t t = 0; t < topos.size(); ++t) {
            const double util =
                100.0 * at(workloadIndex(name), t, kMBaseline).util;
            const std::string cell = name + " on " + topos[t].name();
            const std::string claim = "Fig 4: Baseline util [%], " + cell;
            const auto gap = gaps.find(cell);
            if (gap != gaps.end())
                table.gap(claim, util, gap->second, t == 0 ? "~98" : "35-75",
                          "open");
            else if (t == 0)
                table.band(claim, util, 98.0);
            else
                table.range(claim, util, 35.0, 75.0, "35-75");
        }
    }
}

TEST(PaperFidelity, EveryClaimIsInBandOrAPinnedGap)
{
    FidelityTable table;
    addMicrobenchmark(table);
    addChunkSweep(table);
    addBandwidthSplit(table);
    addOffload(table);
    addOracles(table);
    addTraining(table);

    for (const Row& row : table.rows()) {
        std::printf("%-62s %-10s paper %-8s %s\n", row.claim.c_str(),
                    row.measured.c_str(), row.paper.c_str(),
                    row.gap.empty() ? "in band"
                                    : ("known gap: " + row.gap).c_str());
        EXPECT_TRUE(row.ok)
            << row.claim << ": measured " << row.measured << ", paper "
            << row.paper
            << (row.gap.empty() ? " (outside its band)"
                                : " (known gap moved; pinned for: " +
                                      row.gap + ")");
    }
}

} // namespace
} // namespace themis
