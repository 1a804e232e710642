/**
 * @file
 * Model-zoo training design-space sweep: every paper workload on every
 * next-gen platform, under Baseline and Themis+SCF scheduling, across
 * a chunk-count axis — one full training iteration per cell, fanned
 * over the sweep harness with one shared plan cache. This is the
 * what-if grid the ROADMAP's sweep-throughput work targets (CASSINI-
 * style cluster studies): chunk count does not change a layer's
 * collective *plan inputs* across scheduler repeats, so the cache
 * collapses the per-cell scheduling work to a lookup, and the
 * per-iteration speedup table falls out of one run.
 *
 * Writes model_zoo_sweep.csv (one row per cell) next to the other
 * bench outputs.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "common/string_util.hpp"
#include "core/plan_cache.hpp"
#include "models/model_zoo.hpp"
#include "runtime/comm_runtime.hpp"
#include "sim/sweep_runner.hpp"
#include "stats/csv_writer.hpp"
#include "stats/summary.hpp"
#include "topology/presets.hpp"
#include "workload/training_loop.hpp"

using namespace themis;

namespace {

const std::vector<int>&
chunkAxis()
{
    static const std::vector<int> axis{16, 64, 256};
    return axis;
}

} // namespace

int
main()
{
    bench::printHeader(
        "Model-zoo training sweep (workload x platform x scheduler x "
        "chunks)",
        "Sec 6.2 design space; iteration impact of the chunk-count "
        "knob (Fig 10's axis) at training granularity");

    const auto workloads = models::paperWorkloads();
    const auto topologies = presets::nextGenTopologies();
    const auto& chunks = chunkAxis();
    struct Setup
    {
        const char* name;
        runtime::RuntimeConfig config;
    };
    const std::vector<Setup> setups{
        {"Baseline", runtime::baselineConfig()},
        {"Themis+SCF", runtime::themisScfConfig()}};

    const std::size_t cells_per_workload =
        topologies.size() * setups.size() * chunks.size();
    const std::size_t cell_count =
        workloads.size() * cells_per_workload;

    PlanCache cache;
    const auto results = sim::sweepIndexed(
        cell_count,
        [&](std::size_t i, sim::EventQueue& queue) {
            const std::size_t w = i / cells_per_workload;
            std::size_t rest = i % cells_per_workload;
            const std::size_t t = rest / (setups.size() * chunks.size());
            rest %= setups.size() * chunks.size();
            const std::size_t s = rest / chunks.size();
            const std::size_t c = rest % chunks.size();

            runtime::RuntimeConfig cfg = setups[s].config;
            cfg.default_chunks = chunks[c];
            cfg.plan_cache = &cache;
            runtime::CommRuntime comm(queue, topologies[t], cfg);
            workload::TrainingLoop loop(
                comm, models::byName(workloads[w]));
            return loop.runIteration();
        },
        sim::SweepOptions{});

    stats::CsvWriter csv(bench::csvPath("model_zoo_sweep"));
    csv.writeRow({"workload", "topology", "scheduler", "chunks",
                  "total", "exposed_comm", "speedup_vs_baseline"});

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        std::printf("%s\n", workloads[w].c_str());
        stats::TextTable table({"Topology", "Chunks", "Baseline",
                                "Themis+SCF", "Speedup"});
        for (std::size_t t = 0; t < topologies.size(); ++t) {
            for (std::size_t c = 0; c < chunks.size(); ++c) {
                auto cell = [&](std::size_t s) -> const auto& {
                    return results[w * cells_per_workload +
                                   t * setups.size() * chunks.size() +
                                   s * chunks.size() + c];
                };
                const auto& base = cell(0);
                const auto& scf = cell(1);
                const double speedup = base.total / scf.total;
                table.addRow({topologies[t].name(),
                              std::to_string(chunks[c]),
                              fmtTime(base.total), fmtTime(scf.total),
                              fmtDouble(speedup, 2) + "x"});
                for (std::size_t s = 0; s < setups.size(); ++s) {
                    const auto& it = cell(s);
                    csv.writeRow(
                        {workloads[w], topologies[t].name(),
                         setups[s].name, std::to_string(chunks[c]),
                         fmtDouble(it.total, 1),
                         fmtDouble(it.exposed_mp + it.exposed_dp, 1),
                         fmtDouble(base.total / it.total, 4)});
                }
            }
        }
        std::printf("%s\n", table.render().c_str());
    }

    const auto stats = cache.stats();
    std::printf("%zu cells; plan cache: %zu distinct plans, %llu hits "
                "/ %llu misses (%.1f%% hit rate)\n",
                cell_count, cache.planCount(),
                static_cast<unsigned long long>(stats.plan_hits),
                static_cast<unsigned long long>(stats.plan_misses),
                100.0 * static_cast<double>(stats.plan_hits) /
                    static_cast<double>(
                        std::max<std::uint64_t>(
                            1, stats.plan_hits + stats.plan_misses)));
    return 0;
}
