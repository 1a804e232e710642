/**
 * @file
 * Per-dimension execution engine.
 *
 * Owns one SharedChannel (the dimension's aggregate bandwidth) and
 * the chunk operations queued or running on it. Responsibilities:
 *
 *  - intra-dimension ordering: FIFO or Smallest-Chunk-First
 *    (paper Sec 4.3), or an *enforced* per-collective order: the
 *    start order of the collective's lone run (Sec 4.6.2,
 *    loneRunStartOrders()). Flow-class tiers rank above the policy:
 *    among eligible ops, higher tiers select first, with an
 *    anti-starvation age bound (below);
 *  - admission: one big chunk at a time saturates the bandwidth, but
 *    small operations (transfer time below their fixed latency) run
 *    in parallel so their latency gaps overlap — the paper's second
 *    provision in Sec 4.3;
 *  - step execution: each algorithm step waits its latency (no
 *    bandwidth held) and then transfers its bytes through the shared
 *    channel (processor sharing across concurrent ops).
 *
 * Storage: each op lives in one slot of the engine's op slab from
 * enqueue to finish — queued, running, and backing off between retry
 * attempts alike. The slab is fixed pages of slots that never
 * relocate, recycled through a free list, so steady-state op churn
 * allocates nothing. Latency timers and channel callbacks name an op
 * by a generation-tagged slot handle (like EventQueue::EventId), and
 * a slot's generation bumps on every release.
 *
 * Selection is bucketed: queued ops that are *eligible* (their
 * collective has no enforced order, or they are exactly its next
 * expected op) sit in one bucket per selection key — (tier, service
 * time) under SCF, the tier alone under FIFO — and the few buckets
 * are sorted by key, higher tier first. Within a key the policy
 * orders by arrival, so each bucket is a FIFO of (arrival sequence
 * number, slot) entries: the next op is the first bucket's head and
 * the oldest eligible op is the least head. Enforced-order releases
 * carry an older sequence number and take a sorted insert. Ops of an
 * enforced collective that are not yet expected are parked per
 * collective and promoted when the order cursor reaches them. An
 * *observed* collective parks nothing: its ops select by policy, and
 * each start appends to the order it records.
 *
 * Refills are *batched* on the common path: when the ready set spans
 * one flow tier, no enforced order is installed and no
 * anti-starvation debt is pending, the selection order is exactly the
 * buckets' order and no start can reshape it — so the engine
 * evaluates the admission headroom checks over the ready prefix in
 * one streamed pass with the aggregates (running
 * transfer-time sum, running max delay, running active count) hoisted
 * into locals and a branch-light admit formula, instead of
 * re-querying the active aggregates per start. The general
 * one-op-at-a-time loop serves enforced orders, mixed tiers and
 * pending bypasses; both loops apply the same weighted admission rule
 * (AdmissionConfig::latency_headroom), so they admit identical
 * prefixes.
 *
 * Anti-starvation: tier precedence alone would let a sustained
 * high-tier stream park a low-tier op forever. The engine counts
 * consecutive starts that jumped over an older, lower-tier waiting
 * op; once the streak reaches AdmissionConfig::max_priority_bypass,
 * the oldest waiting op is selected next regardless of tier. Lower
 * tiers are therefore delayed, never starved.
 */

#ifndef THEMIS_RUNTIME_DIMENSION_ENGINE_HPP
#define THEMIS_RUNTIME_DIMENSION_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/intra_dim_policy.hpp"
#include "core/op_order.hpp"
#include "runtime/chunk_op.hpp"
#include "sim/event_queue.hpp"
#include "sim/shared_channel.hpp"
#include "stats/telemetry/metrics.hpp"

namespace themis::stats {
class TraceWriter;
} // namespace themis::stats

namespace themis::sim {

/**
 * Channel sharing discipline, kept only as a parameter type of
 * DimensionEngine's compatibility constructor. Every channel is
 * weighted GPS; Egalitarian (the retired equal-share formulation,
 * which weighted GPS reproduces bit for bit under unit weights) is
 * rejected there.
 */
enum class ChannelFairness {
    Weighted,
    Egalitarian,
};

} // namespace themis::sim

namespace themis::runtime {

/** Parallel-admission tunables (paper Sec 4.3 second provision). */
struct AdmissionConfig
{
    /** Hard cap on concurrently executing ops per dimension. */
    int max_parallel_ops = 64;

    /**
     * Admit another op while the active set's summed transfer time is
     * below latency_headroom x (the largest active fixed delay): the
     * batch's serialization work does not yet dwarf the latency it
     * must hide, so bandwidth would idle without more chunks. Large
     * chunks (transfer >> fixed delay) therefore run alone, while
     * small latency-bound chunks stack until the dimension saturates
     * — the paper's "multiple chunks per dimension should be run in
     * parallel to fully saturate". 9x headroom targets ~90% busy in
     * the worst (lock-step) case.
     *
     * The service demand is *weighted*: each active op's transfer
     * time counts scaled by its GPS weight relative to the
     * candidate's, i.e. admit while
     *   sum_i(transfer_i * w_i) < headroom * max_delay * w_candidate.
     * Under weighted GPS the active set's work drains past a
     * candidate of weight w_c at w_c's share, so a bulk backlog looks
     * small to an urgent candidate (admit) and an urgent burst looks
     * large to a bulk candidate (hold back). With uniform weights
     * every w is 1.0 and the rule reduces, bit for bit, to the plain
     * sum of active transfer times.
     */
    double latency_headroom = 9.0;

    /**
     * Anti-starvation bound: after this many consecutive op starts
     * that bypassed an older, lower-tier waiting op, the oldest
     * waiting op starts next regardless of tier. Irrelevant under a
     * uniform priority policy (no op ever outranks another). 64
     * bounds low-tier waiting at roughly one collective's worth of
     * chunk ops while keeping forced inversions rare enough not to
     * perturb the urgent stream (a forced bulk transfer parks itself
     * in the shared channel for its full duration).
     */
    int max_priority_bypass = 64;
};

/**
 * Retry/backoff tunables for flapped transfers (fault engine). A
 * failed chunk op re-enters the ready set after exponential backoff:
 * attempt k (1-based) waits min(backoff_base_ns * 2^(k-1),
 * backoff_cap_ns) before requeueing — optionally spread by seeded
 * deterministic jitter — and exceeding max_attempts throws
 * RetryExhaustedError (the scenario out-flaps the retry budget).
 */
struct RetryConfig
{
    TimeNs backoff_base_ns = 1e4; ///< first-retry delay (10 us)
    TimeNs backoff_cap_ns = 1e6;  ///< backoff ceiling (1 ms)
    int max_attempts = 16;        ///< fatal beyond this many failures

    /**
     * Backoff jitter spread in [0, 1): each retry's delay is scaled
     * by a deterministic factor in [1 - jitter/2, 1 + jitter/2) drawn
     * by hashing (jitter_seed, dim, op identity, attempt). A link
     * flap fails every in-flight transfer at one instant; without
     * jitter they all back off to the same tick and re-collide
     * (a synchronized retry storm). 0 disables jitter entirely and
     * reproduces the unjittered timings bit for bit.
     */
    double jitter = 0.0;

    /** Seed for the jitter hash; same seed -> same retry timings. */
    std::uint64_t jitter_seed = 0x7e315c0dULL;
};

/**
 * Structured diagnostic of a transfer that ran out of retry budget:
 * which dimension and op gave up, after how many attempts, and the
 * dimension's cumulative re-sent bytes at that point.
 */
struct FatalRetryReport
{
    int dim = -1;        ///< global dimension index
    OpTag op{};          ///< the op that exhausted its budget
    int attempts = 0;    ///< failed attempts (== max_attempts + 1)
    Bytes lost_bytes = 0.0; ///< dim's cumulative re-sent bytes
};

/**
 * Thrown when a transfer exceeds RetryConfig::max_attempts. Derives
 * from ConfigError so existing catch sites keep working; carries the
 * FatalRetryReport so the CLI can print a readable diagnostic and
 * exit non-zero instead of surfacing a raw exception.
 */
class RetryExhaustedError : public ConfigError
{
  public:
    RetryExhaustedError(const std::string& what, FatalRetryReport report)
        : ConfigError(what), report_(report)
    {
    }

    const FatalRetryReport& report() const { return report_; }

  private:
    FatalRetryReport report_;
};

/** Executes chunk ops on one network dimension; see file comment. */
class DimensionEngine
{
  public:
    /** Presence callback: (global dim, has-ops, time). */
    using PresenceListener = std::function<void(int, bool, TimeNs)>;

    /** Start callback: fired whenever an op begins executing. */
    using StartListener = std::function<void(const OpTag&)>;

    /** Finish callback: (op, start time) fired at op completion. */
    using FinishListener =
        std::function<void(const ChunkOp&, TimeNs started)>;

    /**
     * Retry callback: (global dim, lost bytes, backoff delay) per
     * failed attempt. The delay is the exponential-backoff wait the
     * attempt will requeue after (computed even for the attempt that
     * exhausts the budget, where no requeue follows).
     */
    using RetryListener = std::function<void(int, Bytes, TimeNs)>;

    /** Fired once, just before RetryExhaustedError is thrown. */
    using FatalRetryListener =
        std::function<void(const FatalRetryReport&)>;

    /**
     * @param queue       event queue driving the simulation
     * @param config      this dimension's network parameters
     * @param global_dim  index of this dimension in the full topology
     * @param policy      intra-dimension ordering policy
     * @param admission   parallel-admission tunables
     * @throws ConfigError if @p config or @p admission is invalid
     */
    DimensionEngine(sim::EventQueue& queue, DimensionConfig config,
                    int global_dim, IntraDimPolicy policy,
                    AdmissionConfig admission);

    /**
     * Compatibility overload for callers written against the retired
     * baselines (linear-scan selection, egalitarian channel,
     * scalar-only admission, tier-blind headroom). Delegates to the
     * constructor above and throws ConfigError unless every retired
     * argument is off: false, or ChannelFairness::Weighted.
     */
    DimensionEngine(sim::EventQueue& queue, DimensionConfig config,
                    int global_dim, IntraDimPolicy policy,
                    AdmissionConfig admission, bool legacy_scan,
                    sim::ChannelFairness fairness, bool scalar_admission,
                    bool tier_blind_headroom);

    DimensionEngine(const DimensionEngine&) = delete;
    DimensionEngine& operator=(const DimensionEngine&) = delete;

    /**
     * Queue @p op, moved once into its slab slot; it starts when
     * ordering and admission allow.
     */
    void enqueue(ChunkOp&& op);

    /**
     * Enforce a start order for the ops of @p collective_id on this
     * dimension (a lone-run start order, Sec 4.6.2). Ops of that
     * collective then start exactly in this order; ops of other
     * collectives interleave by policy.
     *
     * Normally installed before the collective's session starts.
     * Replacing an existing order mid-flight is supported only if the
     * new order lists exclusively not-yet-started ops (the cursor
     * restarts at the new order's head; an already-started op named
     * there would be waited for forever). Replacing an observed order
     * (observeOrder()) adopts it instead: @p order must begin with
     * the starts observed so far, and the cursor continues past them.
     */
    void setEnforcedOrder(int collective_id, std::vector<OpKey> order);

    /**
     * Record the order in which the ops of @p collective_id start on
     * this dimension instead of enforcing one: its ops select by
     * policy, and each first start appends to the observed order.
     * setEnforcedOrder() later turns the observation into an enforced
     * order; takeObservedOrder() hands it over once the collective
     * is done.
     */
    void observeOrder(int collective_id);

    /** Remove @p collective_id's observing entry and return the
     *  starts it recorded. */
    std::vector<OpKey> takeObservedOrder(int collective_id);

    /** Drop the enforced order of @p collective_id (when it ends). */
    void clearEnforcedOrder(int collective_id);

    /** Observe queue+active presence transitions (for Fig 9). */
    void setPresenceListener(PresenceListener listener);

    /** Observe op starts (shadow-simulation order capture). */
    void setStartListener(StartListener listener);

    /** Observe op completions with their start times (tracing). */
    void setFinishListener(FinishListener listener);

    /**
     * Emit one fabric-row span per completed chunk op into @p trace
     * (null detaches). A direct pointer, not a FinishListener: this
     * fires on every op and the std::function dispatch alone is
     * measurable against the <=10% telemetry overhead budget.
     */
    void attachTrace(stats::TraceWriter* trace);

    /**
     * Enable the fault path: transfers begun on the channel carry a
     * failure handler, and failed ops re-enter the ready set after
     * exponential backoff per @p retry (ConfigError if @p retry is
     * invalid). Arming changes no timing while no fault fires —
     * fault-free runs stay bit-identical.
     */
    void armFaults(const RetryConfig& retry);

    /** Observe failed attempts (per-dimension retry accounting). */
    void setRetryListener(RetryListener listener);

    /** Observe retry-budget exhaustion (structured failure report). */
    void setFatalRetryListener(FatalRetryListener listener);

    /**
     * Flap control (FaultDriver): @p down=true fails every transfer
     * in flight on the channel (each op backs off and retries) and
     * holds new starts; @p down=false releases the hold and refills.
     * Requires armFaults(). Idempotent per state.
     */
    void setLinkDown(bool down);

    /** True while the link is flapped down. */
    bool linkDown() const { return link_down_; }

    /**
     * Partial-link failure (FaultDriver): fail every transfer in
     * flight on the channel once (each backs off and retries) WITHOUT
     * holding new starts — the dimension's surviving links keep
     * serving at whatever capacity the driver set. Requires
     * armFaults(). Used when some but not all links of the dim go
     * down; a full outage uses setLinkDown(true) instead.
     */
    void failInFlight();

    /** Failed attempts so far (cumulative). */
    std::uint64_t retryCount() const { return retry_count_; }

    /**
     * Wire bytes moved by failed attempts (cumulative) — work that
     * will be re-sent. progressedBytes() of the channel equals the
     * useful schedule bytes plus exactly this amount.
     */
    Bytes lostBytes() const { return lost_bytes_; }

    /** The underlying bandwidth resource (stats access). */
    sim::SharedChannel& channel() { return channel_; }
    const sim::SharedChannel& channel() const { return channel_; }

    /** Dimension network parameters. */
    const DimensionConfig& config() const { return config_; }

    /** Index in the full topology. */
    int globalDim() const { return global_dim_; }

    /** Currently queued (not yet started) op count. */
    std::size_t queuedCount() const { return queued_; }

    /** Currently executing op count. */
    std::size_t activeCount() const { return active_; }

    /** Total ops completed by this engine. */
    std::uint64_t completedCount() const { return completed_; }

    /**
     * Arm per-op event tracing into @p sink: every op start and
     * finish mixes (dimension, op identity, timestamp) into the
     * hash, in execution order. The caller's epoch reset restarts
     * collective ids and the clock, so the mixed values are
     * epoch-relative by construction. Disarmed engines pay a single
     * null check per op.
     */
    void armFingerprint(Fnv1a* sink) { fingerprint_ = sink; }

    /** Stop tracing into the fingerprint sink. */
    void disarmFingerprint() { fingerprint_ = nullptr; }

    /**
     * Iteration-epoch reset: requires an idle engine (no queued or
     * active ops) and an already-rebased event queue; rebases and
     * zeroes the shared channel (SharedChannel::epochReset()).
     */
    void beginIterationEpoch();

    /**
     * Anti-starvation streak carried across ops. Exposed so epoch
     * fingerprints can cover this one piece of cross-iteration
     * hidden scheduling state.
     */
    int bypassStreak() const { return bypass_streak_; }

    /** Op slots created so far (the slab's high-water mark). */
    std::size_t opSlotCount() const { return slot_end_; }

    /**
     * Publish this engine's cumulative observables as gauges under
     * `<prefix>.` dotted names (telemetry snapshot; pure observer).
     */
    void publishMetrics(stats::telemetry::MetricsRegistry& registry,
                        const std::string& prefix) const;

  private:
    /**
     * One op's storage from enqueue to finish; see file comment.
     * Free slots chain through `next_free`.
     */
    struct OpSlot
    {
        ChunkOp op;
        std::uint64_t arrival_seq = 0;
        TimeNs started_at = 0.0;
        std::uint32_t next_step = 0;
        std::uint32_t generation = 0;
        std::uint32_t next_free = 0;
    };

    /** Slot index in the high 32 bits, its generation in the low 32. */
    using OpHandle = std::uint64_t;

    /** A ready op: its arrival sequence number and its slot. */
    struct ReadyOp
    {
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Eligible ops sharing one selection key; see file comment. */
    struct Bucket
    {
        int tier = 0;
        TimeNs service_time = 0.0; ///< 0 under FIFO (tier-only key)
        /** ops[head..] are the ready ops, by ascending seq. */
        std::vector<ReadyOp> ops;
        std::size_t head = 0;

        const ReadyOp& front() const { return ops[head]; }
        auto live() { return ops.begin() + static_cast<long>(head); }
    };

    struct EnforcedOrder
    {
        /** Observing (observeOrder()): `order` is the starts so far,
         *  appended as they happen, and nothing is parked. */
        bool observing = false;
        std::vector<OpKey> order;
        std::size_t next = 0;
        /** Parked (not yet expected) ops: OpKey -> slot. */
        std::map<std::pair<int, int>, std::uint32_t> parked;
    };

    static constexpr std::uint32_t kPageShift = 6;
    static constexpr std::uint32_t kPageSlots = 1u << kPageShift;
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    OpSlot&
    slotAt(std::uint32_t s)
    {
        return pages_[s >> kPageShift][s & (kPageSlots - 1)];
    }
    /** Store @p op in a free slot (a new page if none is free). */
    std::uint32_t acquireSlot(ChunkOp&& op);
    /** Return slot @p s to the free list; its handles go stale. */
    void releaseSlot(std::uint32_t s);
    OpHandle
    handleOf(std::uint32_t s)
    {
        return static_cast<OpHandle>(s) << 32 | slotAt(s).generation;
    }
    /** The slot @p h names; asserts that the handle is not stale. */
    OpSlot& liveSlot(OpHandle h);

    /** @p op's key's bucket; inserted in key order if absent. */
    std::vector<Bucket>::iterator bucketFor(const ChunkOp& op);
    /** Insert slot @p s into its key's bucket at its arrival position. */
    void readyInsert(std::uint32_t s);
    /** Remove slot @p s from its bucket (parking an already-ready op). */
    void readyErase(std::uint32_t s);
    /** Pop buckets_[b]'s head; an emptied bucket goes to spare_. */
    void readyPop(std::size_t b);

    void tryStart();
    /** One-op-at-a-time refill over the bucketed ready set (general
     *  path: enforced orders, mixed tiers, anti-starvation). */
    void tryStartScalar();
    /** Batched refill: admission headroom checks streamed over the
     *  ready prefix in one pass with register-resident aggregates
     *  (single-tier, order-free fast path). */
    void tryStartBatch();
    bool admissionAllows(const ChunkOp& candidate) const;
    /** Promote @p eo's newly expected op from parked to ready. */
    void promoteExpected(EnforcedOrder& eo);
    /** Start the op in slot @p s (already out of the ready set). */
    void startOp(std::uint32_t s);
    void advance(OpHandle h);
    void finish(OpHandle h);
    /** Count @p op into (out of) the running ops and their
     *  admission aggregates. */
    void addActive(const ChunkOp& op);
    void removeActive(const ChunkOp& op);
    /** Fault path: take @p h's op out of the active set, account
     *  @p lost re-sent bytes, and schedule its backoff requeue. */
    void failOp(OpHandle h, Bytes lost);

    /** Capped exponential backoff (plus jitter) for @p op's attempt. */
    TimeNs retryBackoffDelay(const ChunkOp& op) const;
    /** Backoff expiry: the op re-enters the ready set directly (an
     *  enforced order's cursor has already passed a started op). */
    void requeueRetry(OpHandle h);
    void notifyPresence();

    sim::EventQueue& queue_ref_;
    DimensionConfig config_;
    int global_dim_;
    IntraDimPolicy policy_;
    AdmissionConfig admission_;
    sim::SharedChannel channel_;

    /** The op slab: pages of kPageSlots slots, slots [0, slot_end_)
     *  in use or on the free list headed by free_slot_. */
    std::vector<std::unique_ptr<OpSlot[]>> pages_;
    std::uint32_t slot_end_ = 0;
    std::uint32_t free_slot_ = kNoSlot;
    /** Queued ops (eligible and parked) and running ops; an op
     *  backing off before a retry is neither. */
    std::size_t queued_ = 0;
    std::size_t active_ = 0;
    /** The eligible ops, bucketed by selection key in key order. A
     *  bucket that empties leaves its storage in spare_ for the next
     *  new key, so steady-state refills allocate nothing. */
    std::vector<Bucket> buckets_;
    std::vector<std::vector<ReadyOp>> spare_;
    /** Consecutive starts that bypassed an older lower-tier op. */
    int bypass_streak_ = 0;
    /** Aggregates over the running ops, maintained incrementally so
     *  the admission check is O(1): the weight-scaled transfer-time
     *  sum (sum of transfer_i * w_i), and the fixed delays as
     *  ascending (delay, count) pairs — a dimension has few distinct
     *  delays, and the largest is the back. */
    TimeNs active_weighted_sum_ = 0.0;
    std::vector<std::pair<TimeNs, std::uint32_t>> active_delays_;
    std::uint64_t arrival_counter_ = 0;
    std::uint64_t completed_ = 0;

    /** Iteration-trace sink; null when disarmed. */
    Fnv1a* fingerprint_ = nullptr;

    /** Fault path state; see armFaults()/setLinkDown(). */
    bool faults_armed_ = false;
    RetryConfig retry_;
    RetryListener retry_listener_;
    FatalRetryListener fatal_retry_listener_;
    bool link_down_ = false;
    std::uint64_t retry_count_ = 0;
    Bytes lost_bytes_ = 0.0;

    std::map<int, EnforcedOrder> enforced_;

    PresenceListener presence_;
    StartListener start_listener_;
    FinishListener finish_listener_;
    /** Per-op span sink (attachTrace); null when tracing is off. */
    stats::TraceWriter* trace_ = nullptr;
    bool last_presence_ = false;
};

} // namespace themis::runtime

#endif // THEMIS_RUNTIME_DIMENSION_ENGINE_HPP
