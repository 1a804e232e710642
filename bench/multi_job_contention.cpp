/**
 * @file
 * Multi-job cluster contention study (the src/cluster/ subsystem's
 * headline scenarios, in the spirit of CASSINI's interleaved jobs and
 * Metronome's deadline-aware periodic traffic).
 *
 * Three experiments share one binary and one fabric (2D-SW_SW):
 *
 *  1. Conservation — a 3-job mix (two training tenants + one bounded
 *     periodic-inference tenant) runs under priority weight ladders
 *     x1/x4/x8. Every cell completes identical per-job traffic, so
 *     each job's wire-level progressed bytes must match across cells
 *     (per-tenant conservation: the weights only redistribute *when*
 *     bytes move, never whose they are), and the per-job bytes must
 *     sum to the fabric total within each cell.
 *
 *  2. Deadline tiers — a periodic-inference job with a tight
 *     per-request deadline contends with bulk training traffic,
 *     under the uniform policy vs tiered(8). The tiered run must
 *     improve the inference job's deadline-hit rate while moving the
 *     same total fabric bytes (Metronome's claim: priority buys
 *     latency, not throughput).
 *
 *  3. Offset search — two identical training jobs, zero-offset vs the
 *     CASSINI-style phase-offset search. Interleaving the jobs'
 *     communication bursts must reduce aggregate iteration time with
 *     no priority knob at all.
 *
 * All multi-cell experiments fan across the SweepRunner's workers.
 */

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "common/string_util.hpp"
#include "models/model_zoo.hpp"
#include "sim/sweep_runner.hpp"
#include "stats/csv_writer.hpp"
#include "stats/summary.hpp"
#include "topology/presets.hpp"

using namespace themis;

namespace {

constexpr double kRelTol = 1e-6;

/** Conservation / deadline mixes run this many training iterations. */
constexpr int kTrainIters = 3;

/** Bounded inference stream: fixed request count for conservation. */
constexpr int kInferRequests = 10;

runtime::RuntimeConfig
clusterConfig(double ratio, PlanCache* cache)
{
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.scheduler = SchedulerKind::ThemisPriority;
    cfg.priority = ratio > 0.0 ? PriorityPolicy::tiered(ratio)
                               : PriorityPolicy::uniform();
    cfg.plan_cache = cache;
    return cfg;
}

/** The conservation mix: 2 training tenants + 1 bounded periodic. */
std::vector<cluster::JobSpec>
conservationMix()
{
    std::vector<cluster::JobSpec> specs;
    specs.push_back(cluster::JobSpec::training(models::byName("DLRM"),
                                               kTrainIters));
    specs.push_back(cluster::JobSpec::training(models::byName("GNMT"),
                                               kTrainIters));
    cluster::JobSpec infer = cluster::JobSpec::periodicInference(
        /*request_size=*/1.6e7, /*period=*/4.0e5, /*deadline=*/6.0e5,
        /*arrival=*/0.0,
        /*tier=*/static_cast<int>(PriorityTier::Urgent));
    infer.max_requests = kInferRequests;
    specs.push_back(infer);
    return specs;
}

/** Deadline mix: bulk training vs tight-deadline periodic inference. */
std::vector<cluster::JobSpec>
deadlineMix()
{
    std::vector<cluster::JobSpec> specs;
    cluster::JobSpec train = cluster::JobSpec::training(
        models::byName("DLRM"), kTrainIters, /*arrival=*/0.0,
        /*tier=*/static_cast<int>(PriorityTier::Bulk));
    specs.push_back(train);
    cluster::JobSpec infer = cluster::JobSpec::periodicInference(
        /*request_size=*/3.2e7, /*period=*/3.0e5, /*deadline=*/5.0e5,
        /*arrival=*/0.0,
        /*tier=*/static_cast<int>(PriorityTier::Urgent));
    infer.max_requests = kInferRequests;
    specs.push_back(infer);
    return specs;
}

struct CellOutcome
{
    cluster::ClusterReport report;
};

} // namespace

int
main()
{
    bench::printHeader(
        "Multi-job cluster contention grid",
        "CASSINI-style interleaving + Metronome-style deadline tiers "
        "on one shared fabric (src/cluster/)");

    const Topology topo = presets::byName("2D-SW_SW");
    PlanCache cache;

    // ---------------------------------------------------- conservation
    const std::vector<double> ratios = {1.0, 4.0, 8.0};
    const auto conservation = sim::sweepIndexed(
        ratios.size(),
        [&](std::size_t i, sim::EventQueue& queue) {
            cluster::Cluster cell(queue, topo,
                                  clusterConfig(ratios[i], &cache),
                                  conservationMix());
            return CellOutcome{cell.run()};
        },
        sim::SweepOptions{});

    std::printf("3-job mix (train:DLRM + train:GNMT + infer, %d "
                "iters / %d requests) across weight ladders:\n\n",
                kTrainIters, kInferRequests);
    stats::TextTable ctable({"Weight ratio", "Makespan", "Fabric util",
                             "Job0 GB", "Job1 GB", "Job2 GB",
                             "Sum==total"});
    bool bytes_conserved = true;
    const auto& base_jobs = conservation.front().report.jobs;
    for (std::size_t i = 0; i < conservation.size(); ++i) {
        const auto& rep = conservation[i].report;
        Bytes sum = 0.0;
        for (const auto& j : rep.jobs) {
            sum += j.progressed;
            // Per-tenant conservation across the ratio axis.
            const Bytes expect =
                base_jobs[static_cast<std::size_t>(j.job)].progressed;
            if (std::abs(j.progressed - expect) > kRelTol * expect)
                bytes_conserved = false;
        }
        const bool sums =
            std::abs(sum - rep.total_bytes) <=
            kRelTol * rep.total_bytes;
        if (!sums)
            bytes_conserved = false;
        ctable.addRow({"x" + fmtDouble(ratios[i], 0),
                       fmtTime(rep.makespan),
                       fmtPercent(rep.fabric_utilization),
                       fmtDouble(rep.jobs[0].progressed / 1e9, 3),
                       fmtDouble(rep.jobs[1].progressed / 1e9, 3),
                       fmtDouble(rep.jobs[2].progressed / 1e9, 3),
                       sums ? "yes" : "NO"});
    }
    std::printf("%s\n", ctable.render().c_str());
    THEMIS_ASSERT(bytes_conserved,
                  "per-job bytes diverged across weight ratios");

    // -------------------------------------------------- deadline tiers
    const auto deadline = sim::sweepIndexed(
        std::size_t{2},
        [&](std::size_t i, sim::EventQueue& queue) {
            // Cell 0: uniform policy; cell 1: tiered(8).
            cluster::Cluster cell(
                queue, topo,
                clusterConfig(i == 0 ? 0.0 : 8.0, &cache),
                deadlineMix());
            return CellOutcome{cell.run()};
        },
        sim::SweepOptions{});

    const auto& uni = deadline[0].report;
    const auto& tier = deadline[1].report;
    const double uni_hit = uni.jobs[1].deadline_hit_rate;
    const double tier_hit = tier.jobs[1].deadline_hit_rate;
    const bool deadline_improved = tier_hit > uni_hit;
    const bool deadline_bytes_unchanged =
        std::abs(uni.total_bytes - tier.total_bytes) <=
        kRelTol * uni.total_bytes;
    std::printf("deadline tiers (bulk train:DLRM vs urgent periodic "
                "inference, deadline %.0f us):\n\n",
                5.0e5 / 1e3);
    stats::TextTable dtable({"Policy", "Hit rate", "Mean latency",
                             "Makespan", "GB moved"});
    dtable.addRow({"uniform", fmtPercent(uni_hit),
                   fmtTime(uni.jobs[1].mean_latency),
                   fmtTime(uni.makespan),
                   fmtDouble(uni.total_bytes / 1e9, 3)});
    dtable.addRow({"tiered x8", fmtPercent(tier_hit),
                   fmtTime(tier.jobs[1].mean_latency),
                   fmtTime(tier.makespan),
                   fmtDouble(tier.total_bytes / 1e9, 3)});
    std::printf("%s\n", dtable.render().c_str());
    THEMIS_ASSERT(deadline_improved,
                  "tiered priority failed to improve the periodic "
                  "job's deadline-hit rate ("
                      << uni_hit << " -> " << tier_hit << ")");
    THEMIS_ASSERT(deadline_bytes_unchanged,
                  "total fabric bytes changed between uniform and "
                  "tiered runs");

    // --------------------------------------------------- offset search
    std::vector<cluster::JobSpec> twins;
    twins.push_back(cluster::JobSpec::training(models::byName("DLRM"),
                                               4));
    twins.push_back(cluster::JobSpec::training(models::byName("DLRM"),
                                               4));
    cluster::OffsetSearchOptions sopts;
    sopts.steps = 8;
    sopts.iterations = 4;
    const auto search = cluster::searchPhaseOffsets(
        topo, clusterConfig(1.0, &cache), twins, sopts);
    const bool offset_improved =
        search.best.metric < search.zero_metric;
    const double offset_gain =
        search.zero_metric / search.best.metric;
    std::printf("offset search (2x train:DLRM, %d candidates):\n\n",
                sopts.steps);
    stats::TextTable otable({"Phase fraction", "Aggregate iter time"});
    for (std::size_t i = 0; i < search.candidates.size(); ++i) {
        otable.addRow(
            {fmtDouble(static_cast<double>(i) / sopts.steps, 3),
             fmtTime(search.candidates[i].metric)});
    }
    std::printf("%s\n  zero-offset %s -> best %s (%.2fx, base period "
                "%s)\n\n",
                otable.render().c_str(),
                fmtTime(search.zero_metric).c_str(),
                fmtTime(search.best.metric).c_str(), offset_gain,
                fmtTime(search.base_period).c_str());
    THEMIS_ASSERT(offset_improved,
                  "phase-offset search failed to beat zero-offset "
                  "arrival");

    // ------------------------------------------------------------- CSV
    stats::CsvWriter csv(bench::csvPath("multi_job_contention"));
    csv.writeRow({"experiment", "cell", "metric", "value"});
    for (std::size_t i = 0; i < conservation.size(); ++i)
        for (const auto& j : conservation[i].report.jobs)
            csv.writeRow({"conservation",
                          "x" + fmtDouble(ratios[i], 0),
                          "job" + std::to_string(j.job) + "_bytes",
                          fmtDouble(j.progressed, 0)});
    csv.writeRow({"deadline", "uniform", "hit_rate",
                  fmtDouble(uni_hit, 4)});
    csv.writeRow({"deadline", "tiered8", "hit_rate",
                  fmtDouble(tier_hit, 4)});
    for (std::size_t i = 0; i < search.candidates.size(); ++i)
        csv.writeRow({"offset", fmtDouble(
                          static_cast<double>(i) / sopts.steps, 3),
                      "aggregate_iter_ns",
                      fmtDouble(search.candidates[i].metric, 1)});

    std::printf("per-job bytes conserved: %s; deadline hit rate %.0f%% "
                "-> %.0f%%; offset-search gain %.2fx\n",
                bytes_conserved ? "yes" : "NO", 100.0 * uni_hit,
                100.0 * tier_hit, offset_gain);
    return 0;
}
