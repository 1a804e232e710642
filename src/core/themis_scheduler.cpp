#include "core/themis_scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace themis {

namespace {

/**
 * Dimension indices sorted by load. Ascending ties break toward the
 * lower index (matching the baseline RS order); descending ties break
 * toward the higher index (matching the baseline AG order), so a
 * fully balanced tracker reproduces the baseline schedule exactly.
 */
std::vector<int>
sortedByLoad(const std::vector<TimeNs>& loads, bool ascending)
{
    std::vector<int> idx(loads.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
        const TimeNs la = loads[static_cast<std::size_t>(a)];
        const TimeNs lb = loads[static_cast<std::size_t>(b)];
        if (la != lb)
            return ascending ? la < lb : la > lb;
        return ascending ? a < b : a > b;
    });
    return idx;
}

std::vector<int>
identityOrder(int n)
{
    std::vector<int> idx(static_cast<std::size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    return idx;
}

} // namespace

ThemisScheduler::ThemisScheduler(const LatencyModel& model,
                                 ThemisConfig config,
                                 bool priority_aware)
    : model_(model), config_(config), priority_aware_(priority_aware),
      tracker_(model)
{}

std::vector<ChunkSchedule>
ThemisScheduler::scheduleCollective(CollectiveType type, Bytes size,
                                    int chunks)
{
    return schedule(type, size, chunks, /*use_threshold=*/true);
}

std::vector<ChunkSchedule>
ThemisScheduler::scheduleCollective(CollectiveType type, Bytes size,
                                    int chunks, const FlowClass& flow)
{
    // Urgent flows bypass the robustness threshold (Algorithm 1
    // line 19): the fallback exists to avoid oversubscribing
    // low-bandwidth dimensions when the gap is negligible, but an
    // urgent collective's own completion time dominates that concern.
    const bool bypass =
        priority_aware_ &&
        flow.tier >= static_cast<int>(PriorityTier::Urgent);
    return schedule(type, size, chunks, !bypass);
}

const std::vector<TimeNs>&
ThemisScheduler::trackedLoads() const
{
    return tracker_.loads();
}

TimeNs
ThemisScheduler::threshold(CollectiveType type, Bytes chunk_size) const
{
    // "The estimated runtime when running an RS/AG of size
    // chunkSize/16 on the dimension with the lowest current load"
    // (paper Sec 5.3).
    const Phase probe = type == CollectiveType::AllGather
                            ? Phase::AllGather
                            : Phase::ReduceScatter;
    const int d = tracker_.minLoadDim();
    return model_.opTime(probe, chunk_size / 16.0, d);
}

std::vector<int>
ThemisScheduler::scheduleChunkPass(CollectiveType type, Bytes chunk_size,
                                   bool use_threshold)
{
    // Lines 18-27 of Algorithm 1.
    const auto& loads = tracker_.loads();
    std::vector<int> order;
    const bool balanced =
        use_threshold &&
        (tracker_.maxLoad() - tracker_.minLoad() <
         threshold(type, chunk_size));
    if (type == CollectiveType::AllToAll) {
        // Order-invariant volume; keep the baseline order.
        order = identityOrder(model_.numDims());
    } else if (balanced) {
        // Lines 19-20: revert to the baseline order (dim1..dimD for
        // RS, dimD..dim1 for AG).
        order = identityOrder(model_.numDims());
        if (type == CollectiveType::AllGather)
            std::reverse(order.begin(), order.end());
    } else {
        // Lines 22-26: ascending loads for RS, descending for AG.
        order = sortedByLoad(
            loads, /*ascending=*/type != CollectiveType::AllGather);
    }

    // Lines 28-30: predict the pass's loads and update the tracker.
    std::vector<StageAssignment> pass;
    if (type == CollectiveType::AllGather) {
        pass = makeStages(CollectiveType::AllGather, {}, order);
    } else if (type == CollectiveType::AllToAll) {
        pass = makeStages(CollectiveType::AllToAll, order, {});
    } else {
        // RS pass (also used while scheduling an All-Reduce chunk).
        pass = makeStages(CollectiveType::ReduceScatter, order, {});
    }
    tracker_.add(model_.stageLoads(chunk_size, pass));
    return order;
}

std::vector<ChunkSchedule>
ThemisScheduler::schedule(CollectiveType type, Bytes size, int chunks,
                          bool use_threshold)
{
    // Algorithm 1, SCHEDULE_COLLECTIVE (line 2 resets the tracker).
    tracker_.reset(type, config_.init_loads_with_fixed_delay);
    const auto chunk_sizes = splitCollective(size, chunks);

    std::vector<ChunkSchedule> out;
    out.reserve(chunk_sizes.size());
    for (std::size_t i = 0; i < chunk_sizes.size(); ++i) {
        ChunkSchedule sched;
        sched.chunk_id = static_cast<int>(i);
        sched.size = chunk_sizes[i];
        if (type == CollectiveType::AllReduce) {
            // Lines 7-9: schedule the RS pass, mirror it for AG.
            const auto rs =
                scheduleChunkPass(CollectiveType::ReduceScatter,
                                  chunk_sizes[i], use_threshold);
            const std::vector<int> ag(rs.rbegin(), rs.rend());
            sched.stages = makeStages(type, rs, ag);
        } else {
            const auto order =
                scheduleChunkPass(type, chunk_sizes[i], use_threshold);
            if (type == CollectiveType::AllGather)
                sched.stages = makeStages(type, {}, order);
            else
                sched.stages = makeStages(type, order, {});
        }
        out.push_back(std::move(sched));
    }
    return out;
}

} // namespace themis
