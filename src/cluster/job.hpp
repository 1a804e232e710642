/**
 * @file
 * Cluster job descriptions and per-job statistics.
 *
 * A *job* is one tenant of a shared training fabric: either a
 * multi-iteration training workload (a model from the zoo or a custom
 * graph, driven by workload::TrainingLoop in its asynchronous
 * stepping mode) or a *periodic inference* job in the Metronome
 * mold — a fixed-size collective issued on a fixed period, each
 * request carrying a completion deadline. Jobs arrive at configurable
 * times, carry a whole-job priority tier (mapped to a wire-level
 * FlowClass by the runtime's PriorityPolicy), and are tagged with a
 * job id that partitions the shared channels' byte accounting, so a
 * cluster run can prove per-tenant conservation and report fabric
 * share per job.
 */

#ifndef THEMIS_CLUSTER_JOB_HPP
#define THEMIS_CLUSTER_JOB_HPP

#include <string>
#include <vector>

#include "core/chunk.hpp"
#include "core/priority_policy.hpp"
#include "workload/model_graph.hpp"
#include "workload/roofline.hpp"
#include "workload/training_loop.hpp"

namespace themis::cluster {

/** What kind of tenant a job is. */
enum class JobKind {
    Training,          ///< iterative TrainingLoop workload
    PeriodicInference, ///< fixed-size collectives on a period+deadline
};

/** Kind name ("train"/"infer") for reports. */
std::string jobKindName(JobKind kind);

/** Static description of one cluster job; see file comment. */
struct JobSpec
{
    JobKind kind = JobKind::Training;

    /** Report label; empty derives one from the kind and workload. */
    std::string name;

    /** Simulated arrival time (jobs may start staggered). */
    TimeNs arrival = 0.0;

    /**
     * Whole-job priority tier (PriorityTier values). Negative keeps
     * the defaults: training traffic uses the per-domain tiers (MP
     * urgent / World standard / DP bulk); periodic inference defaults
     * to Urgent (its deadline is the whole point).
     */
    int priority_tier = -1;

    // --- training jobs ---

    /** Workload to train (must have layers when kind == Training). */
    workload::ModelGraph model;

    /** Training iterations to run (>= 1). */
    int iterations = 1;

    /** Accelerator compute model for the training loop. */
    workload::RooflineConfig roofline{};

    // --- periodic inference jobs ---

    /** Collective pattern each request issues. */
    CollectiveType request_type = CollectiveType::AllReduce;

    /** Per-NPU size of each request's collective (> 0). */
    Bytes request_size = 0.0;

    /** Issue period (> 0); requests fire open-loop on this cadence. */
    TimeNs period = 0.0;

    /** Per-request completion deadline; 0 disables deadline stats. */
    TimeNs deadline = 0.0;

    /**
     * Requests to issue; 0 means "until every training job in the
     * cluster finishes" (invalid in a cluster with no training jobs).
     */
    int max_requests = 0;

    /** Convenience constructor for a training job. */
    static JobSpec training(workload::ModelGraph model, int iterations,
                            TimeNs arrival = 0.0, int tier = -1);

    /** Convenience constructor for a periodic-inference job. */
    static JobSpec periodicInference(Bytes request_size, TimeNs period,
                                     TimeNs deadline = 0.0,
                                     TimeNs arrival = 0.0,
                                     int tier = -1);

    /** Resolved report label. */
    std::string label() const;

    /** Throws ConfigError on an ill-formed spec. */
    void validate() const;
};

/**
 * Parse a ';'-separated job list (the grammar of themis_cli --jobs):
 *   train:MODEL[,arrival=NS][,tier=T][,iterations=N]
 *   infer:SIZE,period=NS[,arrival=NS][,tier=T][,deadline=NS][,requests=N]
 * with T one of bulk|standard|urgent (or 0|1|2). Training jobs run
 * @p default_iterations unless given. Numbers must be whole-string
 * numbers; a malformed entry throws ConfigError naming it.
 */
std::vector<JobSpec> parseJobSpecs(const std::string& specs,
                                   int default_iterations);

/** Everything one job did during a cluster run. */
struct JobStats
{
    /** Job id (index in the cluster's spec list). */
    int job = 0;

    std::string name;
    JobKind kind = JobKind::Training;

    /** Arrival and completion times; jct = finished - arrival. */
    TimeNs arrival = 0.0;
    TimeNs finished = -1.0;
    TimeNs jct() const { return finished - arrival; }

    // --- training ---

    /** Completed training iterations. */
    int iterations = 0;

    /** Summed decomposition over the job's iterations. */
    workload::IterationBreakdown totals;

    /** Mean iteration duration. */
    TimeNs mean_iteration = 0.0;

    /**
     * Share of the job's time that was exposed communication
     * ((exposed MP + exposed DP) / total); negative for non-training
     * jobs.
     */
    double exposed_share = -1.0;

    // --- periodic inference ---

    /** Requests issued / completed. */
    int requests_issued = 0;
    int requests_completed = 0;

    /** Mean request completion latency. */
    TimeNs mean_latency = 0.0;

    /** Requests that met / missed their deadline. */
    int deadline_hits = 0;
    int deadline_misses = 0;

    /** Hit fraction; negative when the job carries no deadline. */
    double deadline_hit_rate = -1.0;

    // --- wire-level (from CommRuntime::jobReports()) ---

    /** Bytes this job progressed across every dimension. */
    Bytes progressed = 0.0;

    /** Job share of machine bandwidth in comm-active windows. */
    double utilization = 0.0;

    /** Collectives the job issued / completed. */
    int collectives_issued = 0;
    int collectives_completed = 0;

    // --- telemetry tails ---

    /**
     * Unit-time tail (ns) from the job's telemetry histogram: p99 and
     * worst case over iteration durations (training) or request
     * latencies (inference). Negative when the job completed no units
     * (or, for lockstep training rows, when per-step durations are
     * not individually tracked).
     */
    double unit_p99 = -1.0;
    double unit_max = -1.0;
};

} // namespace themis::cluster

#endif // THEMIS_CLUSTER_JOB_HPP
