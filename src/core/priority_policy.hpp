/**
 * @file
 * Priority classes: mapping collectives onto wire-level flow classes.
 *
 * Themis's scheduling decisions (Sec 4.3/4.6) treat every concurrent
 * chunk as an equal peer, yet chunks from different collectives have
 * very different urgency: a blocking tensor/pipeline-parallel
 * all-reduce stalls the training loop the instant it is issued, while
 * a data-parallel gradient all-reduce only gates the iteration end
 * and can soak up leftover bandwidth. Related systems schedule exactly
 * this distinction (CASSINI interleaves competing jobs' communication
 * phases; Metronome schedules periodic traffic with explicit priority
 * awareness).
 *
 * The workload layer tags each collective with a PriorityTier; a
 * PriorityPolicy maps tiers onto FlowClasses — a scheduling class for
 * the dimension engines' ready sets plus a weighted-GPS weight for
 * the shared channels. The default policy is *uniform*: every tier
 * collapses onto one class of weight 1, reproducing the egalitarian
 * pre-priority dataplane bit-for-bit. Priorities are therefore
 * strictly opt-in per runtime configuration.
 */

#ifndef THEMIS_CORE_PRIORITY_POLICY_HPP
#define THEMIS_CORE_PRIORITY_POLICY_HPP

#include <array>
#include <cstdint>
#include <string>

namespace themis {

/** Urgency tag of a collective's traffic (higher = more urgent). */
enum class PriorityTier : int {
    Bulk = 0,     ///< background traffic (DP gradient all-reduce)
    Standard = 1, ///< default / unclassified traffic
    Urgent = 2,   ///< latency-critical TP/pipeline collectives
};

/** Number of distinct priority tiers. */
constexpr int kNumPriorityTiers = 3;

/** Tier name ("bulk"/"standard"/"urgent") for reports. */
std::string priorityTierName(int tier);

/**
 * Wire-level class of one collective's chunk operations, assigned by
 * a PriorityPolicy:
 *
 *  - @p tier keys the dimension engines' ready sets (higher tiers
 *    select first within the intra-dimension policy) and indexes the
 *    shared channels' per-class accounting;
 *  - @p weight is the weighted-GPS share every transfer of the
 *    collective receives on a shared channel;
 *  - @p job identifies the cluster job that issued the collective
 *    (0 when a single workload owns the runtime). Jobs never change
 *    scheduling — only the tier and weight do — but they partition
 *    the wire-level accounting so a multi-job run can prove per-job
 *    byte conservation and report fabric share per tenant.
 */
struct FlowClass
{
    int tier = 0;
    double weight = 1.0;
    int job = 0;

    bool
    operator==(const FlowClass& o) const
    {
        return tier == o.tier && weight == o.weight && job == o.job;
    }
};

/**
 * Channel accounting class of a flow: jobs stride the tier space so
 * one shared channel tracks progressed bytes per (job, tier) pair
 * with the existing per-class machinery. Job 0 maps tiers onto
 * themselves, so single-workload runs are untouched.
 */
inline int
accountingClass(const FlowClass& flow)
{
    return flow.job * kNumPriorityTiers + flow.tier;
}

/** Job index encoded in a channel accounting class. */
inline int
accountingJob(int cls)
{
    return cls / kNumPriorityTiers;
}

/** Priority tier encoded in a channel accounting class. */
inline int
accountingTier(int cls)
{
    return cls % kNumPriorityTiers;
}

/** Maps collective priority tiers to flow classes; see file comment. */
class PriorityPolicy
{
  public:
    /** Uniform (default): every tier -> class 0, weight 1. */
    PriorityPolicy() = default;

    /** Explicitly-named uniform policy. */
    static PriorityPolicy uniform();

    /**
     * Geometric weight ladder: tier t keeps its identity as the flow
     * class and receives weight ratio^t (ratio >= 1). tiered(1.0)
     * still separates classes for stats/ready-set purposes but all
     * weights are 1.
     */
    static PriorityPolicy tiered(double ratio);

    /** Explicit per-tier weights (all > 0); tiers keep identity. */
    static PriorityPolicy
    custom(const std::array<double, kNumPriorityTiers>& weights);

    /** Flow class for a request tagged @p tier (clamped to range). */
    FlowClass flowFor(int tier) const;
    FlowClass flowFor(PriorityTier tier) const
    {
        return flowFor(static_cast<int>(tier));
    }

    /** True for the uniform (priority-off) policy. */
    bool isUniform() const { return uniform_; }

    /**
     * Hash of the complete tier->class mapping; the priority
     * component of plan-cache keys (core/plan_cache.hpp). Uniform
     * policies share one fingerprint.
     */
    std::uint64_t fingerprint() const;

    /** One-line description for reports. */
    std::string describe() const;

  private:
    bool uniform_ = true;
    std::array<double, kNumPriorityTiers> weights_{1.0, 1.0, 1.0};
};

} // namespace themis

#endif // THEMIS_CORE_PRIORITY_POLICY_HPP
