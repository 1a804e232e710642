#include "runtime/collective_session.hpp"

#include "common/error.hpp"

namespace themis::runtime {

CollectiveSession::CollectiveSession(int id, CollectiveType type,
                                     std::vector<ChunkSchedule> schedules,
                                     std::vector<DimensionEngine*> engines,
                                     const LatencyModel& model,
                                     sim::EventQueue& queue,
                                     CompletionCallback on_done,
                                     FlowClass flow,
                                     PlanCache* step_cache)
    : CollectiveSession(
          id, type,
          std::make_shared<const std::vector<ChunkSchedule>>(
              std::move(schedules)),
          std::move(engines), model, queue, std::move(on_done), flow,
          step_cache)
{
}

CollectiveSession::CollectiveSession(int id, CollectiveType type,
                                     SchedulePtr schedules,
                                     std::vector<DimensionEngine*> engines,
                                     const LatencyModel& model,
                                     sim::EventQueue& queue,
                                     CompletionCallback on_done,
                                     FlowClass flow,
                                     PlanCache* step_cache)
    : id_(id), type_(type), schedules_(std::move(schedules)),
      engines_(std::move(engines)), model_(&model), queue_(queue),
      on_done_(std::move(on_done)), flow_(flow),
      step_cache_(step_cache)
{
    validate();
}

void
CollectiveSession::reset(int id, CollectiveType type,
                         SchedulePtr schedules,
                         const std::vector<DimensionEngine*>& engines,
                         const LatencyModel& model,
                         CompletionCallback on_done, FlowClass flow,
                         PlanCache* step_cache)
{
    THEMIS_ASSERT(!started_ || done(),
                  "recycling a session whose collective is in flight");
    id_ = id;
    type_ = type;
    schedules_ = std::move(schedules);
    engines_ = engines; // copy into the retained capacity
    model_ = &model;
    on_done_ = std::move(on_done);
    flow_ = flow;
    step_cache_ = step_cache;
    steps_.clear();
    completed_chunks_ = 0;
    start_time_ = 0.0;
    end_time_ = 0.0;
    started_ = false;
    validate();
}

void
CollectiveSession::validate() const
{
    THEMIS_ASSERT(schedules_ != nullptr, "null schedule plan");
    THEMIS_ASSERT(!schedules_->empty(), "collective with no chunks");
    THEMIS_ASSERT(!engines_.empty(), "collective with no dimensions");
    THEMIS_ASSERT(model_->numDims() ==
                      static_cast<int>(engines_.size()),
                  "model/engine rank mismatch");
    for (auto* e : engines_)
        THEMIS_ASSERT(e != nullptr, "null dimension engine");
    for (const auto& sched : *schedules_) {
        THEMIS_ASSERT(!sched.stages.empty(), "chunk with no stages");
        for (const auto& st : sched.stages) {
            THEMIS_ASSERT(st.dim >= 0 &&
                              st.dim < static_cast<int>(engines_.size()),
                          "stage references local dim " << st.dim
                              << " outside scope");
        }
    }
}

void
CollectiveSession::start()
{
    THEMIS_ASSERT(!started_, "session started twice");
    started_ = true;
    start_time_ = queue_.now();
    for (std::size_t i = 0; i < schedules_->size(); ++i)
        submitStage(i, 0, (*schedules_)[i].size);
}

inline void
CollectiveSession::submitStage(std::size_t chunk_idx, int stage_index,
                               Bytes entering)
{
    const ChunkSchedule& sched = (*schedules_)[chunk_idx];
    const StageAssignment& stage =
        sched.stages[static_cast<std::size_t>(stage_index)];
    DimensionEngine* engine =
        engines_[static_cast<std::size_t>(stage.dim)];
    ChunkOp op;
    buildChunkOp(op, OpTag{id_, sched.chunk_id, stage_index}, stage.phase,
                 stage.dim, engine->globalDim(), entering,
                 model_->dim(stage.dim),
                 stepFor(stage.phase, entering, stage.dim),
                 [this](const ChunkOp& op) { onOpComplete(op); },
                 flow_);
    engine->enqueue(std::move(op));
}

inline const StepSummary&
CollectiveSession::stepFor(Phase phase, Bytes entering, int local_dim)
{
    const StepKey key{phase, entering, model_->dimFingerprint(local_dim)};
    for (const auto& [k, summary] : steps_)
        if (k == key)
            return summary;
    steps_.emplace_back(key, stepSummaryFor(phase, entering,
                                            model_->dim(local_dim),
                                            step_cache_,
                                            key.dim_fingerprint));
    return steps_.back().second;
}

inline void
CollectiveSession::onOpComplete(const ChunkOp& op)
{
    // Find the chunk (chunk ids are dense indexes per session).
    const auto chunk_idx = static_cast<std::size_t>(op.tag.chunk_id);
    THEMIS_ASSERT(chunk_idx < schedules_->size(), "unknown chunk id");
    const ChunkSchedule& sched = (*schedules_)[chunk_idx];
    const int next = op.tag.stage_index + 1;
    const auto& stage =
        sched.stages[static_cast<std::size_t>(op.tag.stage_index)];
    const Bytes after = sizeAfterPhase(stage.phase, op.entering,
                                       model_->dim(stage.dim).size);
    if (next < static_cast<int>(sched.stages.size())) {
        submitStage(chunk_idx, next, after);
        return;
    }
    ++completed_chunks_;
    if (done()) {
        end_time_ = queue_.now();
        if (on_done_)
            on_done_(*this);
    }
}

std::vector<std::vector<OpKey>>
loneRunStartOrders(CollectiveType type,
                   const std::vector<ChunkSchedule>& schedules,
                   const std::vector<std::pair<int, DimensionConfig>>& dims,
                   const LatencyModel& model, IntraDimPolicy policy,
                   const FlowClass& flow, PlanCache* step_cache)
{
    sim::EventQueue queue;
    std::vector<std::unique_ptr<DimensionEngine>> engines;
    std::vector<DimensionEngine*> engine_ptrs;
    std::vector<std::vector<OpKey>> orders(dims.size());
    for (std::size_t local = 0; local < dims.size(); ++local) {
        engines.push_back(std::make_unique<DimensionEngine>(
            queue, dims[local].second, dims[local].first, policy,
            AdmissionConfig{}));
        auto* bucket = &orders[local];
        engines.back()->setStartListener([bucket](const OpTag& tag) {
            bucket->push_back(OpKey{tag.chunk_id, tag.stage_index});
        });
        engine_ptrs.push_back(engines.back().get());
    }
    // Alone, the flow class cannot change relative order — passing it
    // keeps the replay faithful.
    CollectiveSession session(0, type, schedules, std::move(engine_ptrs),
                              model, queue, nullptr, flow, step_cache);
    session.start();
    queue.run();
    THEMIS_ASSERT(session.done(),
                  "lone-run pre-simulation did not complete");
    return orders;
}

} // namespace themis::runtime
