/**
 * @file
 * Chunk-schedule consistency (paper Sec 4.6).
 *
 * All NPUs must execute the same order of chunk operations per
 * dimension or collectives can deadlock (Sec 4.6.2): runtime jitter
 * may make chunks available in different orders on different NPUs.
 * Themis therefore *pre-simulates* the execution with the latency
 * model — a fast, deterministic, detail-free simulation — to fix the
 * per-dimension order of chunk operations; at runtime every NPU
 * enforces that order even when a chunk happens to be ready early.
 *
 * The planner reproduces that pre-simulation: serial service per
 * dimension, op duration A + N*B, intra-dimension policy applied to
 * whatever is queued. Its output is the enforced order of the per-NPU
 * backend (npu/); because the planner is a pure function of the
 * (replicated) schedule and latency model, every NPU derives the
 * identical order — restoring deadlock freedom. CommRuntime instead
 * takes its enforced orders from its own engines running the
 * collective alone: it observes them on the real run when that run
 * starts on a pristine fabric, and shadow-simulates it otherwise.
 */

#ifndef THEMIS_CORE_CONSISTENCY_PLANNER_HPP
#define THEMIS_CORE_CONSISTENCY_PLANNER_HPP

#include <vector>

#include "core/chunk.hpp"
#include "core/intra_dim_policy.hpp"
#include "core/latency_model.hpp"

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

/** Per-dimension total orders of chunk operations. */
struct ConsistencyPlan
{
    /** order[d] = sequence in which dimension d must start its ops. */
    std::vector<std::vector<OpKey>> order;

    /** Estimated makespan of the pre-simulation (diagnostic only). */
    TimeNs estimated_makespan = 0.0;
};

/** Deterministic pre-simulation; see file comment. */
class ConsistencyPlanner
{
  public:
    /**
     * @param model  latency model over the collective's dimensions
     * @param policy intra-dimension policy applied when several ops
     *               are queued at a dimension
     */
    ConsistencyPlanner(const LatencyModel& model, IntraDimPolicy policy);

    /** Compute per-dimension start orders for @p schedules. */
    ConsistencyPlan plan(const std::vector<ChunkSchedule>& schedules)
        const;

  private:
    const LatencyModel& model_;
    IntraDimPolicy policy_;
};

/**
 * Deadlock-freedom check: the per-dimension enforced orders plus each
 * chunk's stage order must form an acyclic dependency graph (an op
 * waits for its chunk predecessor and for its dimension predecessor).
 * Returns true when a valid global execution order exists.
 */
bool planIsDeadlockFree(const std::vector<ChunkSchedule>& schedules,
                        const ConsistencyPlan& plan);

} // namespace themis

#endif // THEMIS_CORE_CONSISTENCY_PLANNER_HPP
