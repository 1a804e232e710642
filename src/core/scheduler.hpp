/**
 * @file
 * Collective scheduler interface and factory (paper Table 3).
 *
 * A scheduler maps one collective request onto per-chunk schedules
 * (which dimension order each chunk traverses). The two shipped
 * policies are the baseline multi-rail hierarchical order (Sec 2.3)
 * and Themis (Algorithm 1). Intra-dimension ordering (FIFO vs SCF) is
 * a separate runtime policy; see core/intra_dim_policy.hpp.
 */

#ifndef THEMIS_CORE_SCHEDULER_HPP
#define THEMIS_CORE_SCHEDULER_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/chunk.hpp"
#include "core/latency_model.hpp"
#include "core/priority_policy.hpp"

namespace themis {

/** Inter-dimension scheduling policies (Table 3 rows). */
enum class SchedulerKind {
    Baseline, ///< fixed dim1..dimD hierarchical order
    Themis,   ///< dynamic per-chunk greedy balancing (Algorithm 1)
    /**
     * Themis that also reads the request's flow class: urgent-tier
     * collectives bypass the robustness threshold (Algorithm 1
     * line 19) so even small load gaps are balanced away — their
     * completion time matters more than oversubscription robustness.
     * Under a uniform PriorityPolicy this is exactly Themis.
     */
    ThemisPriority,
};

/** Scheduler name for reports. */
std::string schedulerKindName(SchedulerKind kind);

/**
 * Inter-dimension chunk scheduler. Stateful across calls only if the
 * implementation opts in (the paper's Themis resets per collective).
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /**
     * Schedule every chunk of one collective (the paper's
     * SCHEDULE_COLLECTIVE): returns Schedule[i] = stage order of
     * chunk i. @p size is the total per-NPU collective size; it is
     * split into @p chunks equal chunks.
     */
    virtual std::vector<ChunkSchedule>
    scheduleCollective(CollectiveType type, Bytes size, int chunks) = 0;

    /**
     * Flow-class-aware overload: the runtime always calls this form.
     * The default implementation ignores @p flow, so priority-unaware
     * schedulers plan identically for every class.
     */
    virtual std::vector<ChunkSchedule>
    scheduleCollective(CollectiveType type, Bytes size, int chunks,
                       const FlowClass& flow)
    {
        (void)flow;
        return scheduleCollective(type, size, chunks);
    }
};

/**
 * Tunables of the Themis scheduler. Algorithm 1 itself is fixed: the
 * tracker resets per collective, the threshold probe is chunkSize/16
 * and the mirrored AG pass is not tracked.
 */
struct ThemisConfig
{
    /**
     * Seed tracker loads with A_K (Sec 4.4). The paper's default; the
     * LP oracle turns it off so the greedy balances the N*B loads its
     * dual bound is stated on.
     */
    bool init_loads_with_fixed_delay = true;
};

/** Create a scheduler of @p kind over @p model (must outlive it). */
std::unique_ptr<Scheduler> makeScheduler(SchedulerKind kind,
                                         const LatencyModel& model,
                                         const ThemisConfig& config = {});

} // namespace themis

#endif // THEMIS_CORE_SCHEDULER_HPP
