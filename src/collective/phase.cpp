#include "collective/phase.hpp"

#include "common/error.hpp"

namespace themis {

const char*
phaseTag(Phase p)
{
    switch (p) {
      case Phase::ReduceScatter: return "RS";
      case Phase::AllGather:     return "AG";
      case Phase::AllToAll:      return "A2A";
    }
    THEMIS_PANIC("unknown Phase " << static_cast<int>(p));
}

std::string
phaseName(Phase p)
{
    return phaseTag(p);
}

std::string
collectiveTypeName(CollectiveType t)
{
    switch (t) {
      case CollectiveType::AllReduce:     return "All-Reduce";
      case CollectiveType::ReduceScatter: return "Reduce-Scatter";
      case CollectiveType::AllGather:     return "All-Gather";
      case CollectiveType::AllToAll:      return "All-to-All";
    }
    THEMIS_PANIC("unknown CollectiveType " << static_cast<int>(t));
}

Bytes
wireBytes(Phase phase, Bytes entering, int peers)
{
    THEMIS_ASSERT(peers >= 2, "phase on degenerate dimension " << peers);
    const double p = static_cast<double>(peers);
    switch (phase) {
      case Phase::ReduceScatter:
        return entering * (p - 1.0) / p;
      case Phase::AllGather:
        return entering * (p - 1.0);
      case Phase::AllToAll:
        return entering * (p - 1.0) / p;
    }
    THEMIS_PANIC("unknown Phase");
}

int
stagesForType(CollectiveType t, int num_dims)
{
    return t == CollectiveType::AllReduce ? 2 * num_dims : num_dims;
}

} // namespace themis
