/**
 * @file
 * The Themis scheduler — Algorithm 1 of the paper.
 *
 * Greedy per-chunk balancing: each new chunk is routed through the
 * dimensions sorted by current tracked load (ascending for RS so the
 * biggest, first-stage volume lands on the lightest dimension;
 * descending for AG, whose volume grows towards the *last* stage).
 * The tracker resets at every collective (line 2). For All-Reduce the
 * AG pass mirrors the RS pass (line 8) and is not tracked. A
 * robustness threshold (line 19, a chunkSize/16 probe) falls back to
 * the baseline order while the load gap is negligible, preventing
 * oversubscription of low-bandwidth dimensions.
 *
 * All-to-All is order-invariant (its per-dimension volume does not
 * depend on stage position), so A2A requests keep the baseline order.
 */

#ifndef THEMIS_CORE_THEMIS_SCHEDULER_HPP
#define THEMIS_CORE_THEMIS_SCHEDULER_HPP

#include "core/dim_load_tracker.hpp"
#include "core/scheduler.hpp"
#include "core/splitter.hpp"

namespace themis {

/** Greedy load-balancing chunk scheduler; see file comment. */
class ThemisScheduler final : public Scheduler
{
  public:
    /**
     * @param model  latency model over the collective's dimensions
     *               (must outlive the scheduler)
     * @param config A_K seeding of the tracker (paper default on)
     * @param priority_aware read the request's flow class: urgent
     *               tiers bypass the robustness threshold
     *               (SchedulerKind::ThemisPriority)
     */
    ThemisScheduler(const LatencyModel& model, ThemisConfig config = {},
                    bool priority_aware = false);

    std::string
    name() const override
    {
        return priority_aware_ ? "Themis+Priority" : "Themis";
    }

    std::vector<ChunkSchedule> scheduleCollective(CollectiveType type,
                                                  Bytes size,
                                                  int chunks) override;

    std::vector<ChunkSchedule>
    scheduleCollective(CollectiveType type, Bytes size, int chunks,
                       const FlowClass& flow) override;

    /** Tracked loads after the last scheduleCollective() call. */
    const std::vector<TimeNs>& trackedLoads() const;

  private:
    /**
     * Algorithm 1's SCHEDULE_COLLECTIVE. @p use_threshold is off only
     * for urgent flows under the priority-aware variant.
     */
    std::vector<ChunkSchedule> schedule(CollectiveType type, Bytes size,
                                        int chunks, bool use_threshold);

    /**
     * Schedule one chunk's RS-or-AG pass (the paper's
     * SCHEDULER.SCHEDULE): returns the dimension order and updates the
     * tracker with the pass's loads.
     */
    std::vector<int> scheduleChunkPass(CollectiveType type,
                                       Bytes chunk_size,
                                       bool use_threshold);

    /** Threshold of Algorithm 1 line 19 for the current chunk size. */
    TimeNs threshold(CollectiveType type, Bytes chunk_size) const;

    const LatencyModel& model_;
    ThemisConfig config_;
    bool priority_aware_;
    DimLoadTracker tracker_;
};

} // namespace themis

#endif // THEMIS_CORE_THEMIS_SCHEDULER_HPP
