/**
 * @file
 * The Latency Model component of Themis (paper Fig 6).
 *
 * Predicts chunk-operation runtimes on every network dimension from
 * the dimension's topology-aware algorithm (Table 1) and the cost
 * model A_K + N_K * B_K (Sec 4.4). The scheduler balances loads with
 * these predictions; the dimension engines run each chunk op as the
 * same A_K + N_K * B_K, in the collective's lone run that fixes the
 * chunk-op start orders (Sec 4.6.2) as well as in the real run. A_K
 * and B_K derive from the system specification, so every NPU
 * reproduces identical predictions — the basis of inter-dimension
 * schedule consistency (Sec 4.6.1).
 */

#ifndef THEMIS_CORE_LATENCY_MODEL_HPP
#define THEMIS_CORE_LATENCY_MODEL_HPP

#include <cstdint>
#include <vector>

#include "collective/cost_model.hpp"
#include "common/error.hpp"
#include "core/chunk.hpp"
#include "topology/topology.hpp"

namespace themis {

/**
 * Latency predictions over the dimensions a collective spans.
 * Constructed per collective scope; indices are local (0-based).
 */
class LatencyModel
{
  public:
    /** @param dims participating dimensions, in dim order. */
    explicit LatencyModel(std::vector<DimensionConfig> dims);

    /** Build from a whole topology (all dimensions participate). */
    static LatencyModel fromTopology(const Topology& topo);

    /**
     * Build for a scope (empty = all dimensions, fully). Partial
     * participation overrides the peer-group size while keeping the
     * dimension's bandwidth and latency.
     */
    static LatencyModel fromScope(const Topology& topo,
                                  const std::vector<ScopeDim>& scope);

    /** Number of participating dimensions. */
    int numDims() const { return static_cast<int>(dims_.size()); }

    /** Participating dimension config by local index. */
    const DimensionConfig& dim(int d) const;

    /** All participating dimension configs. */
    const std::vector<DimensionConfig>& dims() const { return dims_; }

    /** Peer-group sizes by local index. */
    const std::vector<int>& dimSizes() const { return sizes_; }

    /**
     * Copy of this model with each dimension's link bandwidth
     * multiplied by @p factors[d] (one positive factor per local
     * dimension). Fault adaptation plans against the degraded fabric
     * by scaling the clean scope model; fingerprints are recomputed,
     * so degraded predictions never alias clean cache entries.
     */
    LatencyModel scaledBy(const std::vector<double>& factors) const;

    /** Serialization-only time N*B of one op (paper lines 28-29). */
    TimeNs transferTime(Phase phase, Bytes entering, int d) const;

    /** Full idle-dimension op time A + N*B. */
    TimeNs opTime(Phase phase, Bytes entering, int d) const;

    /** Fixed delay A_K of a whole collective type on dimension d. */
    TimeNs collectiveFixedDelay(CollectiveType type, int d) const;

    /**
     * Per-dimension N*B loads contributed by a chunk of initial size
     * @p size traversing @p stages (sizes evolve per the size algebra).
     * Result has one entry per participating dimension.
     */
    std::vector<TimeNs>
    stageLoads(Bytes size, const std::vector<StageAssignment>& stages)
        const;

    /**
     * Hash of every parameter a scheduler's predictions depend on
     * (per dimension: wiring kind, effective peer-group size, link
     * bandwidth, links per NPU, step latency, offload flag — exact
     * bit patterns, in dimension order). Two models with equal
     * fingerprints produce identical predictions, making this the
     * topology component of plan-cache keys (core/plan_cache.hpp).
     * Computed once at construction.
     */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /**
     * Per-dimension fingerprint: the hash of exactly dimension @p d's
     * parameters (the lanes the whole-model fingerprint mixes for
     * that dimension). Keys the step-plan memo (core/plan_cache.hpp),
     * which caches per-dimension chunk-op step aggregates across
     * scopes that share a dimension. Computed once at construction.
     */
    std::uint64_t dimFingerprint(int d) const;

  private:
    std::vector<DimensionConfig> dims_;
    std::vector<int> sizes_;
    std::uint64_t fingerprint_ = 0;
    std::vector<std::uint64_t> dim_fingerprints_;
};

inline const DimensionConfig&
LatencyModel::dim(int d) const
{
    THEMIS_ASSERT(d >= 0 && d < numDims(), "bad local dimension " << d);
    return dims_[static_cast<std::size_t>(d)];
}

inline std::uint64_t
LatencyModel::dimFingerprint(int d) const
{
    THEMIS_ASSERT(d >= 0 && d < numDims(), "bad dimension " << d);
    return dim_fingerprints_[static_cast<std::size_t>(d)];
}

} // namespace themis

#endif // THEMIS_CORE_LATENCY_MODEL_HPP
