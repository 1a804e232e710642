/**
 * @file
 * Sweep scale-out bench: sharded execution, checkpoint/restart and
 * memoized what-if queries on top of SweepRunner + PlanCache +
 * ResultStore (the themis_cli --shard/--results/--serve machinery).
 *
 * Three in-binary proofs/measurements, written to
 * bench_results/BENCH_sweep_service.json and gated per PR by
 * tools/bench_trend.py (sweep_service/cells_per_sec):
 *
 *  1. Shard scaling: the fig12-style collective grid (next-gen
 *     topologies x chunk counts x Table 3 schedulers) runs once as a
 *     single process and once split 2 ways by the canonical strided
 *     ShardSpec partition. Each shard runs with its own PlanCache
 *     (process isolation — shards share nothing), walls are the min
 *     of 3 repetitions, and the 2-shard wall is max(shard walls),
 *     modelling the two processes running concurrently. Asserts
 *     >= 1.7x cells/sec at 2 shards.
 *
 *  2. Determinism: the merged 2-shard result stores are asserted
 *     byte-equal to the 1-process store (canonical bytes), and a
 *     shard-0 run interrupted mid-grid — including a partially
 *     written trailing record — resumes to canonical bytes identical
 *     to its uninterrupted run.
 *
 *  3. Warm-query speedup: answering a repeated what-if query from the
 *     results store vs re-simulating it cold. Asserts >= 10x.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/grid_shard.hpp"
#include "sim/result_store.hpp"

using namespace themis;

namespace {

constexpr Bytes kCellSize = 1.0e8;
constexpr int kReps = 3;

/** The grid: topologies x chunk counts x Table 3 schedulers. */
struct Grid
{
    std::vector<Topology> topos;
    /** Odd cells-per-topology block (3 x 3), so the mod-2 stride's
     *  phase alternates across topology blocks and both shards see
     *  the same chunk-count cost mix. */
    std::vector<int> chunk_list{8, 16, 32};
    std::vector<bench::SchedulerSetup> setups =
        bench::table3Schedulers();

    std::size_t
    cells() const
    {
        return topos.size() * chunk_list.size() * setups.size();
    }

    /** Canonical decomposition (topology-major, like themis_cli). */
    std::size_t
    topoOf(std::size_t i) const
    {
        return i / (chunk_list.size() * setups.size());
    }
    int
    chunksOf(std::size_t i) const
    {
        return chunk_list[i % (chunk_list.size() * setups.size()) /
                          setups.size()];
    }
    std::size_t
    schedOf(std::size_t i) const
    {
        return i % setups.size();
    }

    std::string
    keyOf(std::size_t i) const
    {
        char size_buf[64];
        std::snprintf(size_buf, sizeof(size_buf), "%.17g", kCellSize);
        return sim::makeResultKey(
            {{"topo", topos[topoOf(i)].name()},
             {"sched", setups[schedOf(i)].name},
             {"chunks", std::to_string(chunksOf(i))},
             {"enforce", "0"},
             {"type", "ar"},
             {"size", size_buf}});
    }
};

/** Simulate one cell with @p cache shared across the owning run. */
bench::CollectiveRun
evalCell(const Grid& grid, std::size_t i, PlanCache& cache)
{
    runtime::RuntimeConfig cfg = grid.setups[grid.schedOf(i)].config;
    cfg.plan_cache = &cache;
    return bench::runCollective(grid.topos[grid.topoOf(i)], cfg,
                                CollectiveType::AllReduce, kCellSize,
                                grid.chunksOf(i));
}

/**
 * Wall milliseconds to simulate @p cells sequentially with one fresh
 * PlanCache (one process / one shard worth of work). Results are
 * discarded: timing is separated from journaling so store I/O and
 * measurement noise cannot couple.
 */
double
timedPass(const Grid& grid, const std::vector<std::size_t>& cells)
{
    PlanCache cache;
    const double t0 = bench::nowNs();
    for (std::size_t i : cells)
        (void)evalCell(grid, i, cache);
    return (bench::nowNs() - t0) / 1e6;
}

/** Min-of-kReps wall for @p cells (noise floor on shared runners). */
double
bestWall(const Grid& grid, const std::vector<std::size_t>& cells)
{
    double best = timedPass(grid, cells);
    for (int r = 1; r < kReps; ++r)
        best = std::min(best, timedPass(grid, cells));
    return best;
}

/** Journal @p cells into a fresh store at @p path (resume-aware). */
void
journalPass(const Grid& grid, const std::vector<std::size_t>& cells,
            const std::string& path, std::size_t max_cells = 0)
{
    sim::ResultStore store(path);
    PlanCache cache;
    std::size_t fresh = 0;
    for (std::size_t i : cells) {
        const std::string key = grid.keyOf(i);
        if (store.has(key))
            continue;
        if (max_cells > 0 && fresh == max_cells)
            return;
        ++fresh;
        const double c0 = bench::nowNs();
        const auto run = evalCell(grid, i, cache);
        sim::ResultRecord rec;
        rec.key = key;
        rec.values = {{"time_ns", run.time},
                      {"util", run.weighted_util}};
        rec.fingerprint = sim::fingerprintValues(rec.values);
        rec.wall_ms = (bench::nowNs() - c0) / 1e6;
        store.append(std::move(rec));
    }
}

std::string
freshPath(const std::string& name)
{
    const std::string path = bench::resultPath(name);
    std::filesystem::remove(path); // stale journals would be "resumed"
    return path;
}

} // namespace

int
main()
{
    bench::printHeader(
        "Sharded, resumable, memoized sweep execution",
        "sweep scale-out layer (deterministic --shard partitioning, "
        "crash-safe --results store, --serve warm queries)");

    Grid grid;
    grid.topos = presets::nextGenTopologies();
    const std::size_t cells = grid.cells();

    const sim::ShardSpec whole{};
    const sim::ShardSpec half0{0, 2}, half1{1, 2};
    const auto all = sim::shardCells(cells, whole);
    const auto own0 = sim::shardCells(cells, half0);
    const auto own1 = sim::shardCells(cells, half1);
    THEMIS_ASSERT(own0.size() + own1.size() == cells,
                  "shards do not partition the grid");

    // --- 1. shard scaling (warmup untimed, then min-of-3 walls) ----
    (void)timedPass(grid, all);
    const double one_ms = bestWall(grid, all);
    const double s0_ms = bestWall(grid, own0);
    const double s1_ms = bestWall(grid, own1);
    const double two_ms = std::max(s0_ms, s1_ms);
    const double one_cps = static_cast<double>(cells) / (one_ms * 1e-3);
    const double two_cps = static_cast<double>(cells) / (two_ms * 1e-3);
    const double scaling = one_cps > 0.0 ? two_cps / one_cps : 0.0;
    std::printf("grid: %zu cells (%zu topologies x %zu chunk counts "
                "x %zu schedulers)\n",
                cells, grid.topos.size(), grid.chunk_list.size(),
                grid.setups.size());
    std::printf("  1 process : %8.1f ms (%7.1f cells/sec)\n", one_ms,
                one_cps);
    std::printf("  2 shards  : %8.1f ms max(%.1f, %.1f) "
                "(%7.1f cells/sec, %.2fx)\n",
                two_ms, s0_ms, s1_ms, two_cps, scaling);
    THEMIS_ASSERT(scaling >= 1.7,
                  "2-shard cells/sec scaling "
                      << scaling << "x below the 1.7x floor");

    // --- 2. merge + resume determinism ----------------------------
    const std::string one_path =
        freshPath("sweep_service_one.jsonl");
    const std::string s0_path =
        freshPath("sweep_service_shard0.jsonl");
    const std::string s1_path =
        freshPath("sweep_service_shard1.jsonl");
    journalPass(grid, all, one_path);
    journalPass(grid, own0, s0_path);
    journalPass(grid, own1, s1_path);
    const std::string merged =
        sim::ResultStore::canonicalMerge({s0_path, s1_path});
    const std::string one_canon =
        sim::ResultStore(one_path).canonicalBytes();
    const bool merge_identical = merged == one_canon;
    std::printf("  merged 2-shard stores vs 1-process store: %s "
                "(%zu canonical bytes)\n",
                merge_identical ? "byte-identical" : "DIVERGED",
                merged.size());
    THEMIS_ASSERT(merge_identical,
                  "merged shard stores diverged from the 1-process "
                  "store");

    // Interrupt shard 0 halfway, corrupt the tail the way a crash
    // mid-append would, resume, and require canonical equality.
    const std::string resume_path =
        freshPath("sweep_service_resume.jsonl");
    journalPass(grid, own0, resume_path, own0.size() / 2);
    {
        std::FILE* f = std::fopen(resume_path.c_str(), "ab");
        THEMIS_ASSERT(f != nullptr, "cannot corrupt " << resume_path);
        std::fputs("{\"key\": \"chunks=8;torn", f); // torn record
        std::fclose(f);
    }
    journalPass(grid, own0, resume_path);
    const bool resume_identical =
        sim::ResultStore(resume_path).canonicalBytes() ==
        sim::ResultStore(s0_path).canonicalBytes();
    std::printf("  interrupted+resumed shard 0 vs uninterrupted: "
                "%s\n",
                resume_identical ? "byte-identical" : "DIVERGED");
    THEMIS_ASSERT(resume_identical,
                  "resumed shard store diverged from the "
                  "uninterrupted run");

    // --- 3. warm-query speedup ------------------------------------
    // Cold: the mean full simulation. Warm: the same answer read out
    // of the results store, as themis_cli --serve does for repeats.
    const double cold_ms = one_ms / static_cast<double>(cells);
    sim::ResultStore store(one_path);
    constexpr int kLookups = 20000;
    std::uint64_t sink = 0;
    const double q0 = bench::nowNs();
    for (int r = 0; r < kLookups; ++r) {
        const auto* rec = store.find(grid.keyOf(
            static_cast<std::size_t>(r) % cells));
        THEMIS_ASSERT(rec != nullptr, "warm query missed the store");
        sink ^= rec->fingerprint;
    }
    const double warm_ms =
        (bench::nowNs() - q0) / 1e6 / kLookups;
    const double warm_speedup =
        warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
    std::printf("  what-if query: cold %.3f ms -> warm %.5f ms "
                "(%.0fx, checksum %016llx)\n",
                cold_ms, warm_ms, warm_speedup,
                static_cast<unsigned long long>(sink));
    THEMIS_ASSERT(warm_speedup >= 10.0,
                  "warm-query speedup " << warm_speedup
                                        << "x below the 10x floor");

    // --- JSON -----------------------------------------------------
    char buf[1024];
    std::string json = "{\n  \"bench\": \"sweep_service\",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"grid\": {\"topologies\": %zu, \"chunk_counts\": "
                  "%zu, \"schedulers\": %zu, \"cells\": %zu},\n",
                  grid.topos.size(), grid.chunk_list.size(),
                  grid.setups.size(), cells);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"one_process\": {\"wall_ms\": %.2f, "
                  "\"cells_per_sec\": %.2f},\n"
                  "  \"two_shard\": {\"wall_ms_shard0\": %.2f, "
                  "\"wall_ms_shard1\": %.2f, \"wall_ms_max\": %.2f, "
                  "\"cells_per_sec\": %.2f},\n",
                  one_ms, one_cps, s0_ms, s1_ms, two_ms, two_cps);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"cells_per_sec\": %.2f,\n"
                  "  \"shard_scaling\": %.3f,\n"
                  "  \"merge_bit_identical\": %s,\n"
                  "  \"resume_bit_identical\": %s,\n",
                  one_cps, scaling, merge_identical ? "true" : "false",
                  resume_identical ? "true" : "false");
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"query\": {\"cold_ms_mean\": %.4f, "
                  "\"warm_ms_mean\": %.6f, \"warm_speedup\": %.1f}\n"
                  "}\n",
                  cold_ms, warm_ms, warm_speedup);
    json += buf;

    const std::string path =
        bench::resultPath("BENCH_sweep_service.json");
    std::FILE* f = std::fopen(path.c_str(), "w");
    THEMIS_ASSERT(f != nullptr, "cannot write " << path);
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
    return 0;
}
