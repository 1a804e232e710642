/**
 * @file
 * Runtime representation of one chunk operation: one phase (RS/AG/A2A)
 * of one chunk executing on one network dimension. Sessions create
 * ops; dimension engines execute them step by step on the event queue
 * and invoke the completion callback.
 *
 * Every op carries its collective's FlowClass (priority tier + GPS
 * weight), which the engines thread down to the shared channels —
 * priority is a first-class attribute from workload to wire.
 */

#ifndef THEMIS_RUNTIME_CHUNK_OP_HPP
#define THEMIS_RUNTIME_CHUNK_OP_HPP

#include <cstddef>
#include <cstdint>
#include <functional>

#include "collective/algorithms.hpp"
#include "common/error.hpp"
#include "core/chunk.hpp"
#include "core/plan_cache.hpp"
#include "core/priority_policy.hpp"

namespace themis::runtime {

/** Globally unique identity of a chunk operation. */
struct OpTag
{
    int collective_id = 0;
    int chunk_id = 0;
    int stage_index = 0;

    bool
    operator==(const OpTag& o) const
    {
        return collective_id == o.collective_id &&
               chunk_id == o.chunk_id && stage_index == o.stage_index;
    }

    bool
    operator<(const OpTag& o) const
    {
        if (collective_id != o.collective_id)
            return collective_id < o.collective_id;
        if (chunk_id != o.chunk_id)
            return chunk_id < o.chunk_id;
        return stage_index < o.stage_index;
    }
};

/**
 * Inline step storage. The cost model lumps every op into a single
 * (fixed delay, wire bytes) step (Sec 4.4), so the list holds exactly
 * one step in place — no allocation, and no spare entries inflating
 * every op — while keeping the engine's generic step iteration.
 */
class StepList
{
  public:
    static constexpr std::size_t kCapacity = 1;

    void
    push_back(const StepPlan& step)
    {
        THEMIS_ASSERT(count_ < kCapacity, "chunk op step overflow");
        items_[count_++] = step;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    const StepPlan&
    operator[](std::size_t i) const
    {
        return items_[i];
    }

  private:
    StepPlan items_[kCapacity];
    std::size_t count_ = 0;
};

/** A schedulable chunk operation; see file comment. */
struct ChunkOp
{
    OpTag tag;
    Phase phase = Phase::ReduceScatter;

    /** Dimension index within the collective's scope. */
    int local_dim = 0;

    /** Dimension index within the full topology. */
    int global_dim = 0;

    /** Per-NPU data size entering this stage. */
    Bytes entering = 0.0;

    /** Flow class of the parent collective (tier + GPS weight). */
    FlowClass flow;

    /** Algorithm step plan (latency + bytes per step). */
    StepList steps;

    /** Sum of step transfer times at full bandwidth (N*B). */
    TimeNs transfer_time = 0.0;

    /** Sum of step latencies (A). */
    TimeNs fixed_delay = 0.0;

    /**
     * Failed execution attempts so far (link flaps). 0 on the first
     * start; each retry re-runs the op from step 0 after backoff.
     */
    int attempt = 0;

    /** Invoked by the engine when the op finishes. */
    std::function<void(const ChunkOp&)> on_complete;
};

/**
 * The lumped step aggregates of @p phase on dimension @p dim for
 * @p entering bytes per NPU (Sec 4.4: one fixed delay A_K, then one
 * transfer of the full wire volume N_K). When @p step_cache is
 * non-null they are memoized under (phase, entering,
 * @p dim_fingerprint) — pass LatencyModel::dimFingerprint() of the
 * stage's dimension.
 */
StepSummary stepSummaryFor(Phase phase, Bytes entering,
                           const DimensionConfig& dim,
                           PlanCache* step_cache = nullptr,
                           std::uint64_t dim_fingerprint = 0);

/**
 * Fill the fresh @p op for @p phase of chunk @p tag on dimension
 * @p dim from its step aggregates @p summary. This is the one op
 * builder; taking the summary lets a caller resolve it once per
 * stage. @p flow is the parent collective's flow class.
 */
inline void
buildChunkOp(ChunkOp& op, const OpTag& tag, Phase phase, int local_dim,
             int global_dim, Bytes entering, const DimensionConfig& dim,
             const StepSummary& summary,
             const std::function<void(const ChunkOp&)>& on_complete,
             const FlowClass& flow)
{
    THEMIS_ASSERT(on_complete, "chunk op needs a completion callback");
    op.tag = tag;
    op.phase = phase;
    op.local_dim = local_dim;
    op.global_dim = global_dim;
    op.entering = entering;
    op.flow = flow;
    op.fixed_delay = summary.fixed_delay;
    op.transfer_time = summary.total_bytes / dim.bandwidth();
    op.steps.push_back(StepPlan{summary.fixed_delay,
                                summary.total_bytes});
    op.on_complete = on_complete;
}

/**
 * Build a ChunkOp for @p phase of chunk @p tag on dimension @p dim:
 * stepSummaryFor() then buildChunkOp().
 */
ChunkOp makeChunkOp(const OpTag& tag, Phase phase, int local_dim,
                    int global_dim, Bytes entering,
                    const DimensionConfig& dim,
                    std::function<void(const ChunkOp&)> on_complete,
                    FlowClass flow = {}, PlanCache* step_cache = nullptr,
                    std::uint64_t dim_fingerprint = 0);

} // namespace themis::runtime

#endif // THEMIS_RUNTIME_CHUNK_OP_HPP
