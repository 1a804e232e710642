#include "core/intra_dim_policy.hpp"

#include "common/error.hpp"

namespace themis {

std::string
intraDimPolicyName(IntraDimPolicy policy)
{
    switch (policy) {
      case IntraDimPolicy::Fifo: return "FIFO";
      case IntraDimPolicy::Scf:  return "SCF";
    }
    THEMIS_PANIC("unknown IntraDimPolicy " << static_cast<int>(policy));
}

std::size_t
pickNextOp(IntraDimPolicy policy, const std::vector<QueuedOpView>& queue)
{
    THEMIS_ASSERT(!queue.empty(), "picking from an empty queue");
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue.size(); ++i) {
        const auto& a = queue[i];
        const auto& b = queue[best];
        bool better = false;
        switch (policy) {
          case IntraDimPolicy::Fifo:
            better = a.arrival_seq < b.arrival_seq;
            break;
          case IntraDimPolicy::Scf:
            if (a.service_time != b.service_time) {
                better = a.service_time < b.service_time;
            } else if (a.arrival_seq != b.arrival_seq) {
                better = a.arrival_seq < b.arrival_seq;
            } else {
                better = a.chunk_id < b.chunk_id;
            }
            break;
        }
        if (better)
            best = i;
    }
    return best;
}

} // namespace themis
