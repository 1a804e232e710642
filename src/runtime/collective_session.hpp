/**
 * @file
 * One in-flight collective: drives its chunks through their scheduled
 * stages across the dimension engines and reports completion.
 */

#ifndef THEMIS_RUNTIME_COLLECTIVE_SESSION_HPP
#define THEMIS_RUNTIME_COLLECTIVE_SESSION_HPP

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/chunk.hpp"
#include "core/latency_model.hpp"
#include "runtime/dimension_engine.hpp"

namespace themis::runtime {

/** Executes the chunk schedules of one collective; see file comment. */
class CollectiveSession
{
  public:
    /** Invoked once when every chunk finished its last stage. */
    using CompletionCallback = std::function<void(CollectiveSession&)>;

    /** Immutable chunk schedules, shareable via the plan cache. */
    using SchedulePtr =
        std::shared_ptr<const std::vector<ChunkSchedule>>;

    /**
     * @param id        runtime-unique collective id
     * @param type      collective pattern (for reporting)
     * @param schedules per-chunk stage orders (scheduler output;
     *                  possibly shared with other sessions through the
     *                  plan cache — never mutated)
     * @param engines   engine per *local* dimension of the scope
     * @param model     scope latency model; its dimension configs
     *                  carry the effective peer-group sizes (possibly
     *                  sub-groups of the physical dimensions)
     * @param queue     event queue (for timestamps)
     * @param on_done   completion callback
     * @param flow      flow class every chunk op of this collective
     *                  carries (priority tier + GPS weight)
     * @param step_cache optional step-plan memo shared with the plan
     *                  cache (not owned; may be null)
     */
    CollectiveSession(int id, CollectiveType type, SchedulePtr schedules,
                      std::vector<DimensionEngine*> engines,
                      const LatencyModel& model, sim::EventQueue& queue,
                      CompletionCallback on_done, FlowClass flow = {},
                      PlanCache* step_cache = nullptr);

    /** Convenience overload wrapping freshly derived schedules. */
    CollectiveSession(int id, CollectiveType type,
                      std::vector<ChunkSchedule> schedules,
                      std::vector<DimensionEngine*> engines,
                      const LatencyModel& model, sim::EventQueue& queue,
                      CompletionCallback on_done, FlowClass flow = {},
                      PlanCache* step_cache = nullptr);

    CollectiveSession(const CollectiveSession&) = delete;
    CollectiveSession& operator=(const CollectiveSession&) = delete;

    /**
     * Re-arm this session object for a new collective, reusing its
     * engine-vector capacity (the runtime's iteration-epoch session
     * pool recycles sessions this way, so steady-state iterations
     * construct no sessions at all). Requires the previous
     * collective to have completed (asserts). The event queue binding
     * is fixed for the object's lifetime.
     */
    void reset(int id, CollectiveType type, SchedulePtr schedules,
               const std::vector<DimensionEngine*>& engines,
               const LatencyModel& model, CompletionCallback on_done,
               FlowClass flow = {}, PlanCache* step_cache = nullptr);

    /** Submit stage 0 of every chunk. Records the issue time. */
    void start();

    /** Runtime-unique id. */
    int id() const { return id_; }

    /** Collective pattern. */
    CollectiveType type() const { return type_; }

    /** True once every chunk completed all stages. */
    bool done() const { return completed_chunks_ == schedules_->size(); }

    /** Simulation time of start(). */
    TimeNs startTime() const { return start_time_; }

    /** Simulation time the last stage completed. */
    TimeNs endTime() const { return end_time_; }

    /** The chunk schedules being executed. */
    const std::vector<ChunkSchedule>& schedules() const
    {
        return *schedules_;
    }

    /** Flow class of this collective's chunk operations. */
    const FlowClass& flow() const { return flow_; }

  private:
    inline void submitStage(std::size_t chunk_idx, int stage_index,
                            Bytes entering);
    /** Step aggregates of (phase, entering, local dim), resolved
     *  once per collective through steps_. */
    inline const StepSummary& stepFor(Phase phase, Bytes entering,
                                      int local_dim);
    inline void onOpComplete(const ChunkOp& op);
    /** Shared schedule/engine/model consistency checks. */
    void validate() const;

    int id_;
    CollectiveType type_;
    SchedulePtr schedules_;
    std::vector<DimensionEngine*> engines_;
    const LatencyModel* model_;
    sim::EventQueue& queue_;
    CompletionCallback on_done_;
    FlowClass flow_;
    PlanCache* step_cache_;
    /**
     * This collective's resolved step aggregates: every op of a stage
     * shares its key, so the plan cache sees one lookup per distinct
     * key instead of one per op. A handful of entries; cleared by
     * reset().
     */
    std::vector<std::pair<StepKey, StepSummary>> steps_;

    std::size_t completed_chunks_ = 0;
    TimeNs start_time_ = 0.0;
    TimeNs end_time_ = 0.0;
    bool started_ = false;
};

/**
 * The Sec 4.6.2 pre-simulation: run @p schedules alone on fresh
 * engines with the runtime's (default) admission, one per
 * (global index, config) pair of @p dims (the scope's local
 * dimensions, in order; degraded configs for a degraded fabric), and
 * return each local dimension's op start order. The engines are the
 * real ones, so enforcing these orders on a lone run reproduces it
 * exactly; the result is a pure function of the arguments, so every
 * NPU derives the same orders.
 */
std::vector<std::vector<OpKey>>
loneRunStartOrders(CollectiveType type,
                   const std::vector<ChunkSchedule>& schedules,
                   const std::vector<std::pair<int, DimensionConfig>>& dims,
                   const LatencyModel& model, IntraDimPolicy policy,
                   const FlowClass& flow = {},
                   PlanCache* step_cache = nullptr);

} // namespace themis::runtime

#endif // THEMIS_RUNTIME_COLLECTIVE_SESSION_HPP
