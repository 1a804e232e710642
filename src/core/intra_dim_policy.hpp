/**
 * @file
 * Intra-dimension chunk ordering policies (paper Sec 4.3).
 *
 * When several chunk operations are queued at one dimension, the
 * policy decides which starts next:
 *
 *  - FIFO: arrival order. Sufficient for baseline scheduling, where
 *    every chunk has the same schedule and hence identical sizes.
 *  - SCF (Smallest-Chunk-First): smaller operations finish sooner and
 *    feed downstream dimensions faster, reducing dimension starvation
 *    under Themis's heterogeneous per-chunk schedules.
 */

#ifndef THEMIS_CORE_INTRA_DIM_POLICY_HPP
#define THEMIS_CORE_INTRA_DIM_POLICY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace themis {

/** Intra-dimension scheduling policy. */
enum class IntraDimPolicy {
    Fifo,
    Scf,
};

/** Policy name ("FIFO"/"SCF"). */
std::string intraDimPolicyName(IntraDimPolicy policy);

/** What the policy sees about one queued chunk operation. */
struct QueuedOpView
{
    /** Monotonic arrival sequence number at this dimension. */
    std::uint64_t arrival_seq = 0;

    /**
     * Predicted service demand of the operation (A + N*B). This is
     * the SCF key: "processing smaller chunks takes a shorter time
     * and allows the chunk to be fed to other dimensions faster"
     * (Sec 4.3) — an All-Gather stage moves (P-1)x its resident
     * shard, so resident size alone would mis-rank RS vs AG ops.
     */
    TimeNs service_time = 0.0;

    /** Chunk id, used as the final deterministic tie-breaker. */
    int chunk_id = 0;
};

/**
 * Index (into @p queue) of the operation the policy starts next.
 * Deterministic: ties break by arrival order, then chunk id.
 * @pre queue is non-empty.
 */
std::size_t pickNextOp(IntraDimPolicy policy,
                       const std::vector<QueuedOpView>& queue);

} // namespace themis

#endif // THEMIS_CORE_INTRA_DIM_POLICY_HPP
