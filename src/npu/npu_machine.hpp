/**
 * @file
 * Per-NPU message-passing backend.
 *
 * The main runtime computes timing at logical-dimension granularity,
 * which is exact for the paper's symmetric, contention-free platforms.
 * This backend drops that assumption: it simulates *every NPU*, each
 * with its own per-dimension egress link and chunk-operation queue,
 * and gates every operation on the matching sends of its peer group —
 * a chunk op only completes once the data its peers contribute has
 * actually left their links.
 *
 * Purposes:
 *  - cross-validation: on an unskewed platform every NPU behaves
 *    identically and the makespan must equal the dimension-granular
 *    runtime exactly (asserted in tests);
 *  - the paper's Sec 4.6.2 consistency problem, made concrete:
 *    injecting per-NPU runtime skew lets NPUs pick different chunk
 *    orders, which can deadlock (ops waiting on peers that are stuck
 *    behind them); enforcing the per-dimension start orders of the
 *    collective's lone run (runtime::loneRunStartOrders(), the same
 *    pre-simulation the runtime enforces) restores progress at a
 *    bounded cost, and without skew reproduces the free-running
 *    makespan exactly.
 */

#ifndef THEMIS_NPU_NPU_MACHINE_HPP
#define THEMIS_NPU_NPU_MACHINE_HPP

#include <map>
#include <memory>
#include <vector>

#include "collective/dataplane/logical_machine.hpp"
#include "core/intra_dim_policy.hpp"
#include "runtime/chunk_op.hpp"
#include "runtime/dimension_engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/shared_channel.hpp"
#include "topology/topology.hpp"

namespace themis::npu {

/** Configuration of a per-NPU simulation run. */
struct NpuSimConfig
{
    /** Intra-dimension ordering on every NPU's queues. */
    IntraDimPolicy policy = IntraDimPolicy::Scf;

    /**
     * Maximum extra per-op start delay injected per NPU (deterministic
     * from `seed`); zero disables skew. Models the "runtime variation"
     * of Sec 4.6.2 (packet drops, endpoint congestion).
     */
    TimeNs max_skew_ns = 0.0;

    /** Seed for the skew injection. */
    std::uint64_t seed = 1;

    /**
     * Per-dimension enforced start orders (Sec 4.6.2, from
     * runtime::loneRunStartOrders()), identical on every NPU; empty =
     * free-running policy order.
     */
    std::vector<std::vector<OpKey>> enforced_order;
};

/** Result of one per-NPU collective simulation. */
struct NpuRunResult
{
    /** True when every chunk finished on every NPU. */
    bool completed = false;

    /** Simulated completion time of the slowest NPU. */
    TimeNs makespan = 0.0;

    /** Number of chunk operations that never finished (deadlock). */
    std::size_t stuck_ops = 0;

    /** Bytes sent per NPU per dimension. */
    std::vector<std::vector<Bytes>> egress_bytes;
};

/**
 * Simulate the execution of @p schedules (one set, replicated on
 * every NPU, as the paper requires) on @p topo with per-NPU fidelity.
 *
 * Every NPU owns one egress SharedChannel per dimension and runs the
 * chunk stages in schedule order; an operation holds an engine slot
 * from start until both its own send has drained *and* every peer's
 * matching send has drained (ring: predecessor; halving-doubling: all
 * partners; direct/offload: the whole group).
 */
NpuRunResult simulatePerNpu(const Topology& topo,
                            CollectiveType type,
                            const std::vector<ChunkSchedule>& schedules,
                            const NpuSimConfig& config = {});

} // namespace themis::npu

#endif // THEMIS_NPU_NPU_MACHINE_HPP
