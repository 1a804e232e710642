#include "core/op_order.hpp"

#include <map>
#include <queue>

namespace themis {

bool
planIsDeadlockFree(const std::vector<ChunkSchedule>& schedules,
                   const std::vector<std::vector<OpKey>>& orders)
{
    // Build the dependency graph: node = (chunk, stage). Edges:
    //  - chunk order: (c, s) -> (c, s+1)
    //  - dimension order: consecutive ops in each enforced order.
    // Deadlock-free == acyclic == Kahn's algorithm consumes all nodes.
    std::map<std::pair<int, int>, int> indegree;
    std::map<std::pair<int, int>, std::vector<std::pair<int, int>>> out;

    auto node = [](const OpKey& k) {
        return std::make_pair(k.chunk_id, k.stage_index);
    };

    for (const auto& sched : schedules) {
        for (std::size_t s = 0; s < sched.stages.size(); ++s) {
            indegree.emplace(
                std::make_pair(sched.chunk_id, static_cast<int>(s)), 0);
        }
        for (std::size_t s = 0; s + 1 < sched.stages.size(); ++s) {
            auto a = std::make_pair(sched.chunk_id, static_cast<int>(s));
            auto b =
                std::make_pair(sched.chunk_id, static_cast<int>(s) + 1);
            out[a].push_back(b);
            ++indegree[b];
        }
    }
    for (const auto& order : orders) {
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
            auto a = node(order[i]);
            auto b = node(order[i + 1]);
            out[a].push_back(b);
            ++indegree[b];
        }
    }

    std::queue<std::pair<int, int>> ready;
    for (const auto& [n, deg] : indegree) {
        if (deg == 0)
            ready.push(n);
    }
    std::size_t visited = 0;
    while (!ready.empty()) {
        const auto n = ready.front();
        ready.pop();
        ++visited;
        for (const auto& m : out[n]) {
            if (--indegree[m] == 0)
                ready.push(m);
        }
    }
    return visited == indegree.size();
}

} // namespace themis
