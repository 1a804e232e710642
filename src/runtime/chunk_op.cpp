#include "runtime/chunk_op.hpp"

namespace themis::runtime {

StepSummary
stepSummaryFor(Phase phase, Bytes entering, const DimensionConfig& dim,
               PlanCache* step_cache, std::uint64_t dim_fingerprint)
{
    // Execution granularity follows the paper's cost model
    // (Sec 4.4): one fixed delay A_K = steps * step_latency, then one
    // bandwidth-occupying transfer of the full wire volume N_K. The
    // per-step plan is summed into that lump; concurrent chunks hide
    // each other's fixed delays through the shared channel. The lump
    // is a pure function of (phase, entering, dimension), so repeated
    // iterations fetch it from the step memo instead of re-deriving
    // the algorithm's step vector.
    StepSummary summary;
    const StepKey key{phase, entering, dim_fingerprint};
    if (step_cache != nullptr && step_cache->findStep(key, summary))
        return summary;
    for (const auto& s : algorithmFor(dim).plan(phase, entering, dim)) {
        summary.fixed_delay += s.latency;
        summary.total_bytes += s.bytes;
    }
    if (step_cache != nullptr)
        step_cache->storeStep(key, summary);
    return summary;
}

ChunkOp
makeChunkOp(const OpTag& tag, Phase phase, int local_dim, int global_dim,
            Bytes entering, const DimensionConfig& dim,
            std::function<void(const ChunkOp&)> on_complete,
            FlowClass flow, PlanCache* step_cache,
            std::uint64_t dim_fingerprint)
{
    ChunkOp op;
    buildChunkOp(op, tag, phase, local_dim, global_dim, entering, dim,
                 stepSummaryFor(phase, entering, dim, step_cache,
                                dim_fingerprint),
                 on_complete, flow);
    return op;
}

} // namespace themis::runtime
