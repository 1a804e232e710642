/**
 * @file
 * Chunk-operation start orders (paper Sec 4.6).
 *
 * All NPUs must execute the same order of chunk operations per
 * dimension or collectives can deadlock (Sec 4.6.2): runtime jitter
 * may make chunks available in different orders on different NPUs.
 * Themis therefore *pre-simulates* the collective to fix each
 * dimension's op start order, and at runtime every NPU enforces that
 * order even when a chunk happens to be ready early. The
 * pre-simulation is runtime::loneRunStartOrders(): the real dimension
 * engines running the collective alone, a pure function of the
 * (replicated) schedules and system specification, so every NPU
 * derives the identical order.
 */

#ifndef THEMIS_CORE_OP_ORDER_HPP
#define THEMIS_CORE_OP_ORDER_HPP

#include <vector>

#include "core/chunk.hpp"

namespace themis {

/** Identity of one chunk operation inside one collective. */
struct OpKey
{
    int chunk_id = 0;
    int stage_index = 0;

    bool
    operator==(const OpKey& o) const
    {
        return chunk_id == o.chunk_id && stage_index == o.stage_index;
    }
};

/**
 * Deadlock-freedom check: the per-dimension enforced @p orders
 * (orders[d] = the sequence in which dimension d starts its ops) plus
 * each chunk's stage order must form an acyclic dependency graph (an
 * op waits for its chunk predecessor and for its dimension
 * predecessor). Returns true when a valid global execution order
 * exists.
 */
bool planIsDeadlockFree(const std::vector<ChunkSchedule>& schedules,
                        const std::vector<std::vector<OpKey>>& orders);

} // namespace themis

#endif // THEMIS_CORE_OP_ORDER_HPP
