/**
 * @file
 * Memoization of scheduler output across collectives and sweep cells.
 *
 * A chunk-schedule plan is a pure function of (scheduler + its
 * configuration, collective type, size, chunk count, latency model):
 * the Themis scheduler resets its load tracker per collective
 * (Algorithm 1), so two identical requests always yield bit-identical
 * `ChunkSchedule`s. Training loops re-issue identical collectives per
 * layer and per iteration, and design-space sweeps re-issue them per
 * cell, so the runtime re-derived the same plans thousands of times.
 * This cache keys plans by exactly the inputs above — the latency
 * model is represented by a fingerprint hash of every dimension's
 * parameters (LatencyModel::fingerprint()), which makes keys sound
 * across topologies, scopes and sweep axes that do not affect the
 * plan.
 *
 * Enforced per-dimension start orders (Sec 4.6.2) are memoized too:
 * they are a pure function of the plan plus the intra-dimension
 * policy (every runtime engine admits by the default
 * AdmissionConfig). The runtime stores either the orders it observed
 * on a lone run or those of a shadow simulation (a full simulation of
 * the collective), and a hit spares it both.
 *
 * Chunk-op *step plans* are memoized as well: the lumped
 * (fixed delay, wire bytes) aggregate of one phase of one chunk on
 * one dimension is a pure function of (phase, entering bytes,
 * dimension parameters), and sessions re-derive it per stage per
 * iteration. Keys use LatencyModel::dimFingerprint(), so the memo is
 * shared across scopes and sweep cells that touch the same physical
 * dimension.
 *
 * The cache is thread-safe and read-mostly: one instance is shared
 * across sweep workers (std::shared_mutex; lookups take the shared
 * lock). Values are immutable shared_ptrs, so a worker can keep using
 * a plan while others insert.
 */

#ifndef THEMIS_CORE_PLAN_CACHE_HPP
#define THEMIS_CORE_PLAN_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "core/chunk.hpp"
#include "core/intra_dim_policy.hpp"
#include "core/op_order.hpp"
#include "core/scheduler.hpp"

namespace themis {

/** Everything a chunk-schedule plan depends on. */
struct PlanKey
{
    SchedulerKind scheduler = SchedulerKind::Baseline;

    /** Scheduler tunables; normalized to defaults for schedulers that
     *  ignore them so equivalent requests share one entry. */
    ThemisConfig themis{};

    CollectiveType type = CollectiveType::AllReduce;
    Bytes size = 0.0;
    int chunks = 0;

    /** LatencyModel::fingerprint() of the collective's scope. */
    std::uint64_t model_fingerprint = 0;

    /**
     * Priority component: the urgent threshold-bypass bit derived
     * from the request's flow tier, plus PriorityPolicy::fingerprint()
     * of the active policy. Only the priority-aware Themis variant
     * reads priorities when planning, so make() normalizes both to
     * zero for every other scheduler, and normalizes the tier to the
     * bypass bit for ThemisPriority (equivalent requests share one
     * entry).
     */
    int flow_tier = 0;
    std::uint64_t priority_fingerprint = 0;

    /**
     * Capacity-epoch fingerprint of the runtime's fault-adaptation
     * state (CommRuntime::capacityFingerprint()): 0 on a clean fabric,
     * a hash of the per-dim planning factors once adaptation has
     * re-planned against degraded bandwidth. Keeps degraded plans
     * cached separately from clean ones even if a scaled model's
     * fingerprint were to collide with another clean model sharing
     * the cache.
     */
    std::uint64_t capacity_fingerprint = 0;

    /** Build a key, normalizing scheduler-ignored fields. */
    static PlanKey make(SchedulerKind scheduler,
                        const ThemisConfig& themis, CollectiveType type,
                        Bytes size, int chunks,
                        std::uint64_t model_fingerprint,
                        int flow_tier = 0,
                        std::uint64_t priority_fingerprint = 0,
                        std::uint64_t capacity_fingerprint = 0);

    bool operator==(const PlanKey& o) const;
};

/**
 * 64-bit FNV-1a hash of a PlanKey (the cache's own key hash). Also
 * mixed into iteration fingerprints: the key captures everything a
 * collective's plan depends on, so hashing the keys an iteration
 * issued is the plan-level component of steady-state detection.
 */
std::uint64_t planKeyHash(const PlanKey& key);

/** Everything an enforced-order plan depends on beyond the PlanKey. */
struct OrderKey
{
    PlanKey plan;
    IntraDimPolicy intra_policy = IntraDimPolicy::Fifo;

    bool operator==(const OrderKey& o) const;
};

/** Everything one chunk-op step plan depends on. */
struct StepKey
{
    Phase phase = Phase::ReduceScatter;

    /** Per-NPU data size entering the stage (bit-pattern compared). */
    Bytes entering = 0.0;

    /** LatencyModel::dimFingerprint() of the stage's dimension. */
    std::uint64_t dim_fingerprint = 0;

    bool operator==(const StepKey& o) const;
};

/** Memoized lumped step aggregates (runtime/chunk_op.cpp derivation). */
struct StepSummary
{
    /** Sum of step latencies (A). */
    TimeNs fixed_delay = 0.0;

    /** Total wire volume (N). */
    Bytes total_bytes = 0.0;
};

/** Shared, read-mostly plan memoization; see file comment. */
class PlanCache
{
  public:
    using PlanPtr = std::shared_ptr<const std::vector<ChunkSchedule>>;
    using OrderPtr =
        std::shared_ptr<const std::vector<std::vector<OpKey>>>;

    /** Cache effectiveness counters (monotonic, thread-safe). */
    struct Stats
    {
        std::uint64_t plan_hits = 0;
        std::uint64_t plan_misses = 0;
        std::uint64_t order_hits = 0;
        std::uint64_t order_misses = 0;
        std::uint64_t step_hits = 0;
        std::uint64_t step_misses = 0;
    };

    PlanCache() = default;
    PlanCache(const PlanCache&) = delete;
    PlanCache& operator=(const PlanCache&) = delete;

    /** Cached plan for @p key, or nullptr (counts a hit/miss). */
    PlanPtr findPlan(const PlanKey& key) const;

    /**
     * Store @p plan under @p key and return the cached value. If a
     * concurrent worker won the race, its (identical) plan wins and
     * @p plan is discarded.
     */
    PlanPtr storePlan(const PlanKey& key,
                      std::vector<ChunkSchedule> plan);

    /** Cached enforced orders for @p key, or nullptr. */
    OrderPtr findOrders(const OrderKey& key) const;

    /** Store enforced orders; first writer wins (values identical). */
    OrderPtr storeOrders(const OrderKey& key,
                         std::vector<std::vector<OpKey>> orders);

    /**
     * Cached step plan for @p key; false leaves @p out untouched
     * (counts a hit/miss).
     */
    bool findStep(const StepKey& key, StepSummary& out) const;

    /** Store a step plan; first writer wins (values identical). */
    void storeStep(const StepKey& key, const StepSummary& summary);

    /** Distinct plans currently cached. */
    std::size_t planCount() const;

    /** Distinct order plans currently cached. */
    std::size_t orderCount() const;

    /** Distinct step plans currently cached. */
    std::size_t stepCount() const;

    Stats stats() const;

  private:
    struct PlanKeyHash
    {
        std::size_t operator()(const PlanKey& k) const;
    };

    struct OrderKeyHash
    {
        std::size_t operator()(const OrderKey& k) const;
    };

    struct StepKeyHash
    {
        std::size_t operator()(const StepKey& k) const;
    };

    mutable std::shared_mutex mutex_;
    std::unordered_map<PlanKey, PlanPtr, PlanKeyHash> plans_;
    std::unordered_map<OrderKey, OrderPtr, OrderKeyHash> orders_;
    std::unordered_map<StepKey, StepSummary, StepKeyHash> steps_;
    mutable std::atomic<std::uint64_t> plan_hits_{0};
    mutable std::atomic<std::uint64_t> plan_misses_{0};
    mutable std::atomic<std::uint64_t> order_hits_{0};
    mutable std::atomic<std::uint64_t> order_misses_{0};
    mutable std::atomic<std::uint64_t> step_hits_{0};
    mutable std::atomic<std::uint64_t> step_misses_{0};
};

} // namespace themis

#endif // THEMIS_CORE_PLAN_CACHE_HPP
