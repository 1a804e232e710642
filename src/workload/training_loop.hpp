/**
 * @file
 * Training-loop co-simulation (paper Sec 5.2 / Sec 6.2).
 *
 * Walks a model's layers forward then backward on the shared event
 * queue. Compute advances simulated time through the roofline model;
 * layer communication is issued to the CommRuntime:
 *
 *  - blocking collectives (model-parallel activations/gradients)
 *    stall the loop — their wait time is *exposed MP communication*;
 *  - non-blocking collectives (DP gradients, DLRM's embedding
 *    all-to-all) overlap with the remaining compute and only gate the
 *    iteration end — the tail beyond the last compute is exposed,
 *    split into MP and DP portions.
 *
 * By construction every simulated instant of an iteration is either
 * forward compute, backward compute, exposed MP, or exposed DP time,
 * which is exactly the Fig 12 decomposition.
 */

#ifndef THEMIS_WORKLOAD_TRAINING_LOOP_HPP
#define THEMIS_WORKLOAD_TRAINING_LOOP_HPP

#include <array>
#include <optional>

#include "runtime/comm_runtime.hpp"
#include "workload/model_graph.hpp"
#include "workload/roofline.hpp"

namespace themis::workload {

/** Fig 12 per-iteration time decomposition. */
struct IterationBreakdown
{
    TimeNs fwd_compute = 0.0;
    TimeNs bwd_compute = 0.0;
    TimeNs exposed_mp = 0.0;
    TimeNs exposed_dp = 0.0;
    TimeNs total = 0.0;

    /** Sum of the four buckets (== total, up to rounding). */
    TimeNs
    bucketSum() const
    {
        return fwd_compute + bwd_compute + exposed_mp + exposed_dp;
    }

    IterationBreakdown& operator+=(const IterationBreakdown& o);
};

/**
 * Bit-pattern equality over every bucket. This is the workload-level
 * steady-state criterion of the iteration replay engine (and what
 * tests use to prove optimized/baseline sweep equivalence): two
 * iterations whose decompositions differ in even one ulp are not
 * replayable copies of each other.
 */
bool bitIdentical(const IterationBreakdown& a,
                  const IterationBreakdown& b);

/** Drives training iterations of one model on one platform. */
class TrainingLoop
{
  public:
    /** Invoked when an asynchronously begun iteration completes. */
    using IterationCallback =
        std::function<void(const IterationBreakdown&)>;

    /**
     * @param comm     communication runtime (owns the topology)
     * @param model    workload definition
     * @param roofline accelerator compute model
     */
    TrainingLoop(runtime::CommRuntime& comm, ModelGraph model,
                 RooflineConfig roofline = {});

    /**
     * Simulate one training iteration to completion (drains the event
     * queue) and return its time decomposition.
     */
    IterationBreakdown runIteration();

    /** Simulate @p n iterations; returns the summed decomposition. */
    IterationBreakdown run(int n);

    /**
     * Begin one iteration *without* running the event queue: the
     * caller drives the (possibly shared) queue and @p on_done fires
     * — at the simulated instant the iteration completes — with the
     * iteration's decomposition. This is the multi-job stepping mode:
     * several loops (and periodic jobs) progress concurrently on one
     * queue, each discovering its own completion. A single loop driven
     * this way and then drained is bit-identical to runIteration().
     */
    void beginIterationAsync(IterationCallback on_done);

    /** True while an asynchronously begun iteration is in flight. */
    bool iterationInFlight() const
    {
        return iteration_started_ && !iteration_done_;
    }

    /** Decomposition of the most recently completed iteration. */
    const IterationBreakdown& lastIteration() const { return current_; }

    /**
     * Bind this loop to cluster job @p job: every collective it
     * issues carries the job id for per-tenant wire accounting.
     * Default 0 (the single-workload identity).
     */
    void setJob(int job) { job_ = job; }

    /** Bound job id. */
    int job() const { return job_; }

    /**
     * Force every collective of this loop onto one priority tier
     * (PriorityTier values) instead of the per-domain defaults; a
     * negative value restores the defaults. A cluster uses this to
     * assign whole-job priority classes.
     */
    void setTierOverride(int tier) { tier_override_ = tier; }

    /** The workload being trained. */
    const ModelGraph& model() const { return model_; }

  private:
    enum class WaitKind { None, FwdBarrier, Blocking, FinalDrain };

    void startFwdLayer();
    void afterFwdCompute();
    void startBwdLayer();
    void afterBwdCompute();
    void issueComm(const LayerCommOp& op, bool in_fwd);
    void issueDpGrads(Bytes grad_bytes, bool zero_style);
    void onBlockingDone();
    void onNonBlockingDone(CommDomain domain, bool in_fwd);
    void finishCompute();
    void maybeFinishIteration();
    void advanceAfterComm();

    runtime::CommRuntime& comm_;
    ModelGraph model_;
    RooflineConfig roofline_;
    /** Scope per CommDomain; empty where it has no communicator. */
    std::array<std::optional<std::vector<ScopeDim>>, 3> scopes_;

    /** Cluster job binding (0 = single-workload default). */
    int job_ = 0;

    /** Whole-loop priority tier override; negative = domain defaults. */
    int tier_override_ = -1;

    // Per-iteration state.
    bool in_fwd_ = true;
    int layer_ = 0;
    WaitKind waiting_ = WaitKind::None;
    int blocking_remaining_ = 0;
    int pending_fwd_nb_ = 0;
    int pending_mp_nb_ = 0;
    int pending_dp_ = 0;
    TimeNs wait_started_ = 0.0;
    TimeNs compute_end_ = 0.0;
    TimeNs drain_mark_ = 0.0;
    TimeNs iter_start_ = 0.0;
    bool iteration_started_ = false;
    bool iteration_done_ = false;
    IterationCallback on_iteration_done_;
    IterationBreakdown current_;
};

} // namespace themis::workload

#endif // THEMIS_WORKLOAD_TRAINING_LOOP_HPP
