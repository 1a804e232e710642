/**
 * @file
 * CommRuntime: the public entry point of the communication simulator.
 *
 * Owns one DimensionEngine per topology dimension, a scheduler per
 * collective scope, and the statistics instrumentation (utilization
 * windows per the Fig 4 definition, per-dimension activity for Fig 9).
 * The workload layer — or a test — issues CollectiveRequests and
 * runs the shared event queue; callbacks fire on completion.
 */

#ifndef THEMIS_RUNTIME_COMM_RUNTIME_HPP
#define THEMIS_RUNTIME_COMM_RUNTIME_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/hash.hpp"
#include "core/plan_cache.hpp"
#include "core/priority_policy.hpp"
#include "core/scheduler.hpp"
#include "runtime/collective_session.hpp"
#include "runtime/fault_driver.hpp"
#include "sim/fault_timeline.hpp"
#include "stats/activity_timeline.hpp"
#include "stats/telemetry/telemetry.hpp"
#include "stats/trace_writer.hpp"
#include "stats/utilization_tracker.hpp"
#include "topology/topology.hpp"

namespace themis::runtime {

/**
 * Fault-aware adaptive re-planning knobs. When enabled (and a
 * FaultTimeline is armed), every capacity-changing event the
 * FaultDriver applies — degrade window edge, permanent straggler,
 * per-link outage edge — makes the runtime snapshot the per-dim
 * planning factors, derive a capacity-epoch fingerprint, and rebuild
 * its scope schedulers against the degraded bandwidths: newly issued
 * collectives plan for the fabric as it actually is, while in-flight
 * collectives finish under the plan they started with. Fault-free
 * runs (empty timeline, or enabled with no events) are bit-identical
 * to the non-adaptive engine.
 */
struct AdaptationConfig
{
    /** Master switch; off reproduces the static-plan engine. */
    bool enabled = false;

    /**
     * Minimum relative change of a dimension's planning factor
     * (|new - planned| / planned) before a re-plan fires. Filters
     * capacity wiggle that would churn plans for no makespan gain;
     * 0 re-plans on every capacity-changing event.
     */
    double replan_threshold = 0.05;
};

/** Full configuration of the communication runtime (Table 3 rows). */
struct RuntimeConfig
{
    /** Inter-dimension scheduling policy. */
    SchedulerKind scheduler = SchedulerKind::Themis;

    /**
     * Themis tunables, fixed at the paper's defaults (ignored for the
     * baseline scheduler). Readable for code that builds plan keys or
     * schedulers from a RuntimeConfig; assigning it does not compile.
     */
    static constexpr ThemisConfig themis{};

    /** Intra-dimension ordering (paper: baseline uses FIFO). */
    IntraDimPolicy intra_policy = IntraDimPolicy::Scf;

    /** Default chunks per collective when the request says 0. */
    int default_chunks = 64;

    /**
     * Parallel-admission tunables, fixed at their defaults: only
     * DimensionEngine's own tests vary them, through its constructor.
     * Readable for code that builds engines alongside a runtime;
     * assigning it does not compile.
     */
    static constexpr AdmissionConfig admission{};

    /**
     * Fix and enforce per-dimension chunk-op start orders
     * (Sec 4.6.2): each dimension starts a collective's ops in the
     * order the collective would take running alone on a fresh
     * fabric. A collective issued at t = 0 onto an idle, fault-free
     * fabric *is* that run, so its engines observe the order as it
     * happens (and the plan cache stores it at completion); any
     * other issue derives the order by a shadow simulation
     * (loneRunStartOrders()) first, and so does a later issue that
     * overlaps an observed collective, which then follows the derived
     * order from its observed prefix on. A lone collective runs exactly as without
     * enforcement; overlapping collectives do not, because each one
     * keeps its lone order instead of interleaving by policy.
     */
    bool enforce_consistent_order = false;

    /**
     * Shared plan-memoization cache (core/plan_cache.hpp); nullptr
     * disables memoization. Not owned — the caller keeps it alive for
     * the runtime's lifetime and may share one instance across the
     * runtimes of a whole sweep (it is thread-safe). Results are
     * bit-identical with and without a cache.
     */
    PlanCache* plan_cache = nullptr;

    /**
     * Maps collective priority tiers (CollectiveRequest::priority_tier)
     * to wire-level flow classes. The default uniform policy collapses
     * every tier onto one unit-weight class, reproducing the
     * egalitarian pre-priority dataplane bit-for-bit; a tiered policy
     * gives urgent collectives ready-set precedence and a larger
     * weighted-GPS share on every shared channel.
     */
    PriorityPolicy priority{};

    /**
     * Retired baselines: the linear engine scan, the egalitarian
     * channel, scalar-only admission and the tier-blind headroom.
     * The one engine and channel reproduce each of them bit for bit,
     * and tests pin the results they recorded. The names remain,
     * always false, only so that code reading them still compiles;
     * assigning one does not compile.
     */
    static constexpr bool legacy_engine_scan = false;
    static constexpr bool legacy_egalitarian_channel = false;
    static constexpr bool legacy_scalar_admission = false;
    static constexpr bool legacy_tier_blind_headroom = false;

    /**
     * Fault/heterogeneity scenario to apply (capacity degradations,
     * stragglers, link flaps with transfer failure + retry). Not
     * owned — the caller keeps the timeline alive for the runtime's
     * lifetime. nullptr (the default) and an *empty* timeline both
     * run the fault-free fast path bit-identically; arming alone
     * changes no timing.
     */
    const sim::FaultTimeline* faults = nullptr;

    /** Retry/backoff tunables for flapped transfers. */
    RetryConfig retry{};

    /** Fault-aware adaptive re-planning (needs `faults`). */
    AdaptationConfig adaptation{};

    /**
     * Telemetry sink (metrics registry + flight recorder + optional
     * trace). Not owned — the caller keeps it alive for the runtime's
     * lifetime, one instance per simulation thread (the registry is
     * not thread-safe). nullptr (the default) disables all publishing
     * at one branch per site; every publisher is a pure observer, so
     * telemetry-on runs are bit-identical to telemetry-off runs.
     */
    stats::telemetry::Telemetry* telemetry = nullptr;
};

/** Table 3 convenience constructors. */
RuntimeConfig baselineConfig();
RuntimeConfig themisFifoConfig();
RuntimeConfig themisScfConfig();

/** The communication simulator facade; see file comment. */
class CommRuntime
{
  public:
    /** Completion callback of one collective. */
    using Callback = std::function<void()>;

    /** Bookkeeping record of one issued collective. */
    struct Record
    {
        int id = 0;
        CollectiveType type = CollectiveType::AllReduce;
        Bytes size = 0.0;
        std::vector<ScopeDim> scope;
        TimeNs issued = 0.0;
        TimeNs completed = -1.0;

        /** Request's priority tag. */
        int priority_tier = 1;

        /** Flow class the priority policy assigned (carries the job). */
        FlowClass flow;

        /** Cluster job that issued the collective (0 = default). */
        int job = 0;

        bool done() const { return completed >= 0.0; }
        TimeNs duration() const { return completed - issued; }
    };

    /** Per-flow-class usage summary (see classReports()). */
    struct ClassReport
    {
        /** Flow class index (PriorityPolicy tier). */
        int tier = 0;

        /** GPS weight the policy assigns this class. */
        double weight = 1.0;

        /** Collectives issued / completed in this class. */
        int issued = 0;
        int completed = 0;

        /** Mean completion time of the finished collectives. */
        TimeNs mean_duration = 0.0;

        /** Bytes progressed by this class across all dimensions. */
        Bytes progressed = 0.0;

        /**
         * Class bandwidth utilization during communication-active
         * windows: class bytes / (total BW x active time).
         */
        double utilization = 0.0;
    };

    /** Per-job usage summary (see jobReports()). */
    struct JobReport
    {
        /** Cluster job index. */
        int job = 0;

        /** Collectives issued / completed by this job. */
        int issued = 0;
        int completed = 0;

        /** Mean completion time of the finished collectives. */
        TimeNs mean_duration = 0.0;

        /**
         * Bytes the job progressed across all dimensions (wire-level
         * accounting from the shared channels, so conservation can be
         * asserted per tenant, not just in aggregate).
         */
        Bytes progressed = 0.0;

        /**
         * Job share of machine bandwidth during communication-active
         * windows: job bytes / (total BW x active time).
         */
        double utilization = 0.0;

        /**
         * Bytes the job progressed during communication-active
         * windows (the utilization numerator). Kept separately so a
         * report captured at job departure can be re-normalized
         * against the final active time (utilizationOf()) instead of
         * freezing a mid-run utilization share.
         */
        Bytes window_bytes = 0.0;
    };

    /**
     * @param queue shared event queue (must outlive the runtime)
     * @param topo  platform topology (copied)
     * @param config scheduling/runtime configuration
     */
    CommRuntime(sim::EventQueue& queue, Topology topo,
                RuntimeConfig config = {});

    CommRuntime(const CommRuntime&) = delete;
    CommRuntime& operator=(const CommRuntime&) = delete;

    /**
     * Issue a collective at the current simulation time.
     * @return the collective's runtime id.
     */
    int issue(const CollectiveRequest& request, Callback on_done = {});

    /** Number of issued-but-unfinished collectives. */
    int outstanding() const { return outstanding_; }

    /** Records of all issued collectives, in issue order. */
    const std::vector<Record>& records() const { return records_; }

    /** Record by collective id. */
    const Record& record(int id) const;

    /** The simulated platform. */
    const Topology& topology() const { return topo_; }

    /** Per-dimension engine (stats/diagnostics). */
    DimensionEngine& engine(int global_dim);

    /** Utilization during comm-active windows (Fig 4 definition). */
    const stats::UtilizationTracker& utilization() const
    {
        return *utilization_;
    }

    /**
     * Per-flow-class usage over everything issued so far (one entry
     * per class the priority policy produced, ascending tier).
     * Utilization columns cover closed communication-active windows;
     * progressed bytes cover all time up to the last channel sync
     * (the call syncs every channel).
     */
    std::vector<ClassReport> classReports();

    /**
     * Per-job usage over everything issued so far (one entry per
     * *live* — not retired — job, ascending job index). Same window
     * semantics as classReports(). A single-workload runtime returns
     * one row (job 0 is live from construction). Entries carry their
     * job id; with retirement the list is not index-addressable.
     */
    std::vector<JobReport> jobReports();

    /**
     * Capture @p job's final usage report, then drop every piece of
     * its per-job accounting: its (job, tier) classes on every shared
     * channel, its utilization-window accounts, and its row in
     * jobReports(). This is what keeps a long-lived multi-tenant
     * runtime O(active jobs) instead of O(all-ever-seen) — call it
     * once the job's last collective has completed (asserts the job
     * has no transfers in flight).
     *
     * The retired classes' progressed/window bytes fold into per-tier
     * aggregates so classReports() tier rows remain conservation-
     * complete across the whole run. jobsObserved() still counts the
     * retired job; its Records stay in records() history.
     */
    JobReport retireJob(int job);

    /** Jobs currently live (issued at least once or job 0, not
     *  retired) — the accounting-size bound retireJob maintains. */
    std::size_t liveJobCount() const { return live_jobs_.size(); }

    /**
     * Number of distinct cluster jobs this runtime has ever seen
     * (max job index + 1; at least 1). Unlike records(), this count
     * survives iteration-epoch resets — the convergence runner uses
     * it to refuse single-loop replay on a runtime other jobs drive.
     */
    int jobsObserved() const { return max_job_seen_ + 1; }

    /**
     * The fault driver applying RuntimeConfig::faults, or nullptr on
     * a fault-free runtime. The convergence replayer uses it to find
     * quiescent phases of the timeline.
     */
    FaultDriver* faultDriver() { return fault_driver_.get(); }
    const FaultDriver* faultDriver() const
    {
        return fault_driver_.get();
    }

    /**
     * Times the adaptation layer re-planned (snapshotted degraded
     * bandwidths and rebuilt the scope schedulers). 0 on fault-free
     * or non-adaptive runs.
     */
    std::uint64_t replanCount() const { return replan_count_; }

    /**
     * Capacity-epoch fingerprint the adaptation layer currently plans
     * under: 0 on a clean fabric (all planning factors 1.0), else a
     * hash of the per-dim factors. Mixed into every PlanKey, so
     * degraded plans cache separately from clean ones.
     */
    std::uint64_t capacityFingerprint() const
    {
        return capacity_fingerprint_;
    }

    /**
     * Structured report of the first transfer that exhausted its
     * retry budget, or nullptr if none has (the corresponding
     * RetryExhaustedError is in flight when this is non-null —
     * callers typically read it from the catch site).
     */
    const FatalRetryReport* fatalRetry() const
    {
        return has_fatal_retry_ ? &fatal_retry_ : nullptr;
    }

    /** Per-dimension activity intervals (Fig 9). */
    stats::ActivityTimeline& activity() { return activity_; }

    /** The telemetry sink this runtime publishes into (may be null). */
    stats::telemetry::Telemetry* telemetry() const
    {
        return config_.telemetry;
    }

    /**
     * A replayed (not simulated) convergence round of duration @p d
     * passed: advance the fault driver's absolute base exactly as the
     * simulated path would have, and advance the telemetry/trace time
     * bases so the run timeline stays monotonic across the skip.
     */
    void noteReplayedEpoch(TimeNs d);

    /**
     * Snapshot per-dimension engine/channel observables into the
     * telemetry registry as gauges (`engine.dim<k>.*`). Idempotent;
     * no-op without a telemetry sink. finalizeStats() calls this, and
     * callers that bypass finalizeStats may call it directly before
     * serializing a report.
     */
    void publishTelemetry();

    /**
     * Stream every completed chunk operation into @p trace (one
     * timeline row per dimension; labels like "RS c3.s1 (2.0 MB)").
     * The writer must outlive the runtime.
     */
    void attachTrace(stats::TraceWriter& trace);

    /**
     * Finish statistics at the current simulation time (closes open
     * activity intervals). Call after the event queue drains.
     */
    void finalizeStats();

    /**
     * Everything one iteration epoch produced, measured as exact
     * per-epoch deltas (the epoch reset zeroes every accumulator, so
     * these values are bit-stable across identical iterations — no
     * large-accumulator rounding wobble).
     *
     * The fingerprint folds together the event trace (every chunk-op
     * start/finish with epoch-relative timestamps, per dimension),
     * the plan-cache keys and issue times of every collective, the
     * per-dimension and per-class progressed-byte totals, the
     * utilization window time, and the engines' anti-starvation
     * streaks — two consecutive epochs with identical fingerprints
     * (and identical stats) are the steady-state criterion the
     * convergence replay engine uses.
     */
    struct EpochStats
    {
        std::uint64_t fingerprint = 0;

        /** Simulated epoch duration (epoch clock starts at zero). */
        TimeNs duration = 0.0;

        /** Communication-active window time within the epoch. */
        TimeNs active_time = 0.0;

        /** Collectives issued during the epoch. */
        int collectives = 0;

        /** Chunk ops completed across all engines. */
        std::uint64_t ops = 0;

        /** Bytes progressed per dimension during the epoch. */
        std::vector<Bytes> dim_bytes;

        /** Bytes progressed per flow class (summed over dims). */
        std::vector<Bytes> class_bytes;

        /** Bit-exact equality over every field (doubles compared by
         *  bit pattern). */
        bool identicalTo(const EpochStats& o) const;
    };

    /**
     * Open an iteration epoch: requires a fully quiescent runtime (no
     * outstanding collectives, drained event queue). Rebases the
     * event-queue clock and every channel clock to zero, zeroes the
     * per-epoch statistics accumulators (utilization windows,
     * progressed bytes, activity timeline), rewinds the session pool
     * so this epoch reuses the previous epoch's session objects, and
     * arms per-op fingerprinting.
     *
     * Epoch mode hands stats ownership to the caller: utilization(),
     * classReports() and records() then describe the current epoch
     * only — records (and their ids) restart at zero each epoch along
     * with the clock, so arbitrarily long runs hold one iteration's
     * worth of history.
     */
    void beginIterationEpoch();

    /** Close the epoch and return its stats; see EpochStats. */
    EpochStats finishIterationEpoch();

    /** True between beginIterationEpoch() and finishIterationEpoch(). */
    bool inIterationEpoch() const { return epoch_active_; }

    /**
     * Session objects ever constructed (the pool's high-water mark:
     * flat across steady-state epochs, proving session reuse).
     */
    std::size_t sessionSlotCount() const { return sessions_.size(); }

    /** The event queue driving this runtime. */
    sim::EventQueue& queue() { return queue_ref_; }

    /** The latency model for @p scope (shared with schedulers). */
    const LatencyModel& modelForScope(const std::vector<ScopeDim>& scope);

  private:
    struct ScopeState
    {
        std::unique_ptr<LatencyModel> model;
        std::unique_ptr<Scheduler> scheduler;
    };

    ScopeState& scopeState(const std::vector<ScopeDim>& scope);
    std::vector<ScopeDim>
    normalizeScope(const std::vector<ScopeDim>& scope) const;
    void onCollectiveDone(int id);

    /** FaultDriver capacity hook: re-plan when dim @p dim's planning
     *  factor drifted past the threshold. */
    void onCapacityChange(int dim);
    /** Snapshot planning factors, refresh the capacity fingerprint,
     *  and retire every scope so the next issue re-plans. */
    void replan();

    /**
     * Derive (or fetch, when RuntimeConfig::plan_cache is set) the
     * chunk schedules of one request; @p key is its plan-cache key.
     */
    CollectiveSession::SchedulePtr
    planFor(ScopeState& state, const PlanKey& key, CollectiveType type,
            Bytes size, int chunks, const FlowClass& flow);
    /**
     * Install collective @p id's enforced per-dimension orders
     * (Sec 4.6.2) on @p engines: a cached plan, an observation when
     * the fabric is exactly where a shadow simulation would start
     * (see pristine()), else a shadow simulation's.
     */
    void enforceOrders(int id, const PlanKey& key,
                       const CollectiveSession::SchedulePtr& schedules,
                       const LatencyModel& model,
                       const std::vector<ScopeDim>& scope,
                       const FlowClass& flow,
                       const std::vector<DimensionEngine*>& engines);

    /**
     * True when a collective issued now on @p engines runs exactly as
     * its shadow simulation would: no fault driver, nothing in flight,
     * the clock at zero, and every engine idle with no anti-starvation
     * debt on a channel at its virtual origin and configured capacity.
     */
    bool pristine(const std::vector<DimensionEngine*>& engines) const;

    /**
     * Fix the observed collective's orders before a second issue can
     * perturb it: shadow-simulate them, and have its engines adopt
     * them past the starts already observed.
     */
    void materializeObserved();

    /** Store @p orders under @p key in the plan cache, if any. */
    PlanCache::OrderPtr keepOrders(const OrderKey& key,
                                   std::vector<std::vector<OpKey>> orders);

    /**
     * The (global index, config) pairs of @p scope as the fabric its
     * enforced orders will run on: planned (possibly degraded)
     * bandwidths, the input of a shadow loneRunStartOrders() run.
     */
    std::vector<std::pair<int, DimensionConfig>>
    plannedDims(const std::vector<ScopeDim>& scope) const;

    sim::EventQueue& queue_ref_;
    Topology topo_;
    RuntimeConfig config_;

    std::vector<std::unique_ptr<DimensionEngine>> engines_;
    std::map<std::vector<ScopeDim>, ScopeState> scopes_;
    /**
     * Session pool: slots up to sessions_live_ belong to the current
     * epoch (or to the whole run when epochs are unused); an epoch
     * reset rewinds the watermark so finished sessions are recycled
     * in place instead of re-heap-allocated per collective.
     */
    std::vector<std::unique_ptr<CollectiveSession>> sessions_;
    std::size_t sessions_live_ = 0;
    /** Scratch engine list reused across issue() calls. */
    std::vector<DimensionEngine*> engine_scratch_;
    std::vector<Record> records_;
    std::map<int, Callback> callbacks_;

    /**
     * The enforced collective whose engines observe its start orders
     * instead of following shadow-simulated ones (id -1: none). At
     * most one: it was issued alone, and any later issue while it
     * runs materializes its orders first.
     */
    struct Observation
    {
        int id = -1;
        OrderKey key;
        CollectiveSession::SchedulePtr schedules;
        const LatencyModel* model = nullptr;
    };
    Observation observed_;

    int outstanding_ = 0;
    stats::ActivityTimeline activity_;
    std::unique_ptr<stats::UtilizationTracker> utilization_;
    std::unique_ptr<FaultDriver> fault_driver_;

    // Telemetry (all pure observers; null when publishing is off).
    stats::telemetry::Telemetry* telem_ = nullptr;
    stats::TraceWriter* trace_ = nullptr;
    /** Hot-path instrument handles, resolved once in the ctor. */
    stats::telemetry::Counter* m_issued_ = nullptr;
    stats::telemetry::Counter* m_completed_ = nullptr;
    stats::telemetry::Histogram* m_collective_ns_ = nullptr;
    stats::telemetry::Counter* m_epochs_ = nullptr;
    stats::telemetry::Histogram* m_epoch_ns_ = nullptr;
    stats::telemetry::Counter* m_chunk_ops_ = nullptr;
    stats::telemetry::Counter* m_replans_ = nullptr;
    stats::telemetry::Counter* m_retries_ = nullptr;
    stats::telemetry::Histogram* m_backoff_ns_ = nullptr;
    stats::telemetry::Histogram* m_lost_bytes_ = nullptr;
    stats::telemetry::Counter* m_fatal_ = nullptr;
    stats::telemetry::Counter* m_replayed_ = nullptr;

    // Fault-adaptation state (see AdaptationConfig).
    /** Per-dim factors the current plans were derived against. */
    std::vector<double> planned_factors_;
    std::uint64_t capacity_fingerprint_ = 0;
    std::uint64_t replan_count_ = 0;
    /**
     * Scope graveyard: states retired by replan() while collectives
     * were in flight. Sessions hold raw pointers into their scope's
     * LatencyModel, so a retired state must outlive every collective
     * issued under it; drained once the fabric is quiescent.
     */
    std::vector<ScopeState> retired_scopes_;

    /** First retry-budget exhaustion, kept for post-mortem display. */
    FatalRetryReport fatal_retry_{};
    bool has_fatal_retry_ = false;

    // Iteration-epoch state.
    bool epoch_active_ = false;
    Fnv1a epoch_hash_;
    std::vector<std::uint64_t> epoch_completed_base_;

    /** Largest job index ever issued (persists across epochs). */
    int max_job_seen_ = 0;

    /**
     * Jobs with live accounting: seeded with job 0 (the default job
     * of single-workload runtimes), grown by issue(), shrunk by
     * retireJob(). Bounded by concurrent tenancy, not churn.
     */
    std::set<int> live_jobs_{0};

    /**
     * Channel-accounting totals of retired jobs, folded per tier at
     * retirement so classReports() stays conservation-complete after
     * the per-job maps forget a tenant. Fixed-size — this is the O(1)
     * residue of unbounded job churn.
     */
    struct RetiredTierAcct
    {
        Bytes progressed = 0.0;
        Bytes window_bytes = 0.0;
    };
    std::array<RetiredTierAcct, kNumPriorityTiers> retired_tiers_{};
};

/**
 * Sanity cap on cluster job indices per runtime. Jobs stride the
 * shared channels' per-class accounting space (accountingClass()),
 * but that accounting is map-based and stays O(active jobs) when the
 * caller retires departed tenants (retireJob()), so the cap only
 * rejects wild indices — churning many thousands of short jobs
 * through one runtime is a supported scenario.
 */
constexpr int kMaxJobsPerRuntime = 65536;

} // namespace themis::runtime

#endif // THEMIS_RUNTIME_COMM_RUNTIME_HPP
