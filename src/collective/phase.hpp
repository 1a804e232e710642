/**
 * @file
 * Collective communication patterns and their size algebra (paper
 * Sec 2.1 and Sec 2.3).
 *
 * A collective *type* is what the workload requests (All-Reduce,
 * Reduce-Scatter, All-Gather, All-to-All). A *phase* is what one chunk
 * executes on one network dimension; All-Reduce decomposes into a
 * Reduce-Scatter phase sequence followed by an All-Gather phase
 * sequence.
 *
 * Size convention (paper Sec 2.3): the size of a chunk at a stage is
 * the data residing on each NPU *before* the stage begins. RS on a
 * dimension of size P shrinks it by P; AG grows it by P; All-to-All
 * keeps it.
 */

#ifndef THEMIS_COLLECTIVE_PHASE_HPP
#define THEMIS_COLLECTIVE_PHASE_HPP

#include <string>

#include "common/error.hpp"
#include "common/units.hpp"

namespace themis {

/** Per-dimension chunk operation kind. */
enum class Phase {
    ReduceScatter,
    AllGather,
    AllToAll,
};

/** Workload-visible collective pattern. */
enum class CollectiveType {
    AllReduce,
    ReduceScatter,
    AllGather,
    AllToAll,
};

/** Short phase name ("RS"/"AG"/"A2A"). */
std::string phaseName(Phase p);

/** Allocation-free phaseName for per-chunk-op hot paths (tracing). */
const char* phaseTag(Phase p);

/** Collective type name ("All-Reduce", ...). */
std::string collectiveTypeName(CollectiveType t);

/**
 * Per-NPU data size after executing @p phase on a dimension of size
 * @p peers, given the entering size.
 */
inline Bytes
sizeAfterPhase(Phase phase, Bytes entering, int peers)
{
    THEMIS_ASSERT(peers >= 2, "phase on degenerate dimension " << peers);
    THEMIS_ASSERT(entering >= 0.0, "negative size " << entering);
    switch (phase) {
      case Phase::ReduceScatter:
        return entering / peers;
      case Phase::AllGather:
        return entering * peers;
      case Phase::AllToAll:
        return entering;
    }
    THEMIS_PANIC("unknown Phase");
}

/**
 * Bytes each NPU sends on the wire to execute @p phase on a dimension
 * of @p peers, given the entering size (paper Sec 4.4 footnote: ring
 * RS/AG moves (P-1)/P of the resident data; for AG the resident data
 * is the shard, so the wire volume is entering*(P-1)).
 */
Bytes wireBytes(Phase phase, Bytes entering, int peers);

/**
 * Number of per-dimension stages a chunk of collective @p t traverses
 * on a D-dimensional network: 2*D for All-Reduce, D otherwise.
 */
int stagesForType(CollectiveType t, int num_dims);

} // namespace themis

#endif // THEMIS_COLLECTIVE_PHASE_HPP
