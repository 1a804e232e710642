#include "workload/training_loop.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace themis::workload {

IterationBreakdown&
IterationBreakdown::operator+=(const IterationBreakdown& o)
{
    fwd_compute += o.fwd_compute;
    bwd_compute += o.bwd_compute;
    exposed_mp += o.exposed_mp;
    exposed_dp += o.exposed_dp;
    total += o.total;
    return *this;
}

bool
bitIdentical(const IterationBreakdown& a, const IterationBreakdown& b)
{
    return bitEquals(a.fwd_compute, b.fwd_compute) &&
           bitEquals(a.bwd_compute, b.bwd_compute) &&
           bitEquals(a.exposed_mp, b.exposed_mp) &&
           bitEquals(a.exposed_dp, b.exposed_dp) &&
           bitEquals(a.total, b.total);
}

TrainingLoop::TrainingLoop(runtime::CommRuntime& comm, ModelGraph model,
                           RooflineConfig roofline)
    : comm_(comm), model_(std::move(model)), roofline_(roofline)
{
    THEMIS_ASSERT(!model_.layers.empty(), "model with no layers");
    const Topology& topo = comm_.topology();
    for (CommDomain d : {CommDomain::DataParallel,
                         CommDomain::ModelParallel, CommDomain::World}) {
        if (d == CommDomain::ModelParallel &&
            model_.parallel.mpDegree() == 1) {
            continue; // no MP communicator in pure data-parallel
        }
        if (d == CommDomain::DataParallel &&
            model_.parallel.ways(d, topo) == 1) {
            continue; // fully model-parallel: no DP communicator
        }
        scopes_[static_cast<std::size_t>(d)] =
            model_.parallel.scopeFor(d, topo);
    }
}

IterationBreakdown
TrainingLoop::runIteration()
{
    beginIterationAsync(nullptr);
    comm_.queue().run();
    THEMIS_ASSERT(iteration_done_,
                  "event queue drained before the iteration finished "
                  "(lost completion callback?)");
    return current_;
}

void
TrainingLoop::beginIterationAsync(IterationCallback on_done)
{
    THEMIS_ASSERT(!iterationInFlight(),
                  "iteration already in flight on this loop");
    // Reset per-iteration state.
    in_fwd_ = true;
    layer_ = 0;
    waiting_ = WaitKind::None;
    blocking_remaining_ = 0;
    pending_fwd_nb_ = 0;
    pending_mp_nb_ = 0;
    pending_dp_ = 0;
    iteration_started_ = true;
    iteration_done_ = false;
    on_iteration_done_ = std::move(on_done);
    current_ = IterationBreakdown{};
    drain_mark_ = comm_.queue().now();
    iter_start_ = comm_.queue().now();
    startFwdLayer();
}

IterationBreakdown
TrainingLoop::run(int n)
{
    THEMIS_ASSERT(n >= 1, "need at least one iteration");
    IterationBreakdown sum;
    for (int i = 0; i < n; ++i)
        sum += runIteration();
    return sum;
}

void
TrainingLoop::startFwdLayer()
{
    if (layer_ >= static_cast<int>(model_.layers.size())) {
        // Forward pass done; backward starts at the last layer.
        in_fwd_ = false;
        layer_ = static_cast<int>(model_.layers.size()) - 1;
        startBwdLayer();
        return;
    }
    const Layer& l = model_.layers[static_cast<std::size_t>(layer_)];
    if (l.wait_pending_before_fwd && pending_fwd_nb_ > 0) {
        waiting_ = WaitKind::FwdBarrier;
        wait_started_ = comm_.queue().now();
        return; // resumed by onNonBlockingDone()
    }
    const TimeNs t = computeTime(l.fwd_flops, l.fwd_mem_bytes, roofline_);
    current_.fwd_compute += t;
    comm_.queue().scheduleAfter(t, [this] { afterFwdCompute(); });
}

void
TrainingLoop::afterFwdCompute()
{
    const Layer& l = model_.layers[static_cast<std::size_t>(layer_)];
    blocking_remaining_ = 0;
    for (const auto& op : l.fwd_comm)
        issueComm(op, /*in_fwd=*/true);
    if (blocking_remaining_ > 0) {
        waiting_ = WaitKind::Blocking;
        wait_started_ = comm_.queue().now();
        return; // resumed by onBlockingDone()
    }
    ++layer_;
    startFwdLayer();
}

void
TrainingLoop::startBwdLayer()
{
    if (layer_ < 0) {
        finishCompute();
        return;
    }
    const Layer& l = model_.layers[static_cast<std::size_t>(layer_)];
    const TimeNs t_bwd =
        computeTime(l.bwd_flops, l.bwd_mem_bytes, roofline_);
    const TimeNs t_re = computeTime(l.recompute_flops, 0.0, roofline_);
    // Recompute elapses during the backward pass but is reported as
    // forward compute (paper Fig 12 note on Transformer-1T).
    current_.bwd_compute += t_bwd;
    current_.fwd_compute += t_re;
    comm_.queue().scheduleAfter(t_bwd + t_re,
                                [this] { afterBwdCompute(); });
}

void
TrainingLoop::afterBwdCompute()
{
    const Layer& l = model_.layers[static_cast<std::size_t>(layer_)];
    blocking_remaining_ = 0;
    for (const auto& op : l.bwd_comm)
        issueComm(op, /*in_fwd=*/false);
    if (!model_.fused_dp_grads)
        issueDpGrads(l.dp_grad_bytes, l.zero_style_dp);
    if (blocking_remaining_ > 0) {
        waiting_ = WaitKind::Blocking;
        wait_started_ = comm_.queue().now();
        return;
    }
    --layer_;
    startBwdLayer();
}

void
TrainingLoop::issueComm(const LayerCommOp& op, bool in_fwd)
{
    THEMIS_ASSERT(op.size > 0.0, "zero-size layer collective");
    CollectiveRequest req;
    req.type = op.type;
    req.size = op.size;
    req.chunks = 0; // runtime default CPC
    req.scope = scopes_[static_cast<std::size_t>(op.domain)].value();
    req.priority_tier =
        tier_override_ >= 0
            ? tier_override_
            : (op.priority_tier >= 0
                   ? op.priority_tier
                   : model_.parallel.priorityTierFor(op.domain));
    req.job = job_;

    if (op.blocking) {
        ++blocking_remaining_;
        comm_.issue(req, [this] { onBlockingDone(); });
    } else {
        if (in_fwd)
            ++pending_fwd_nb_;
        if (op.domain == CommDomain::DataParallel)
            ++pending_dp_;
        else
            ++pending_mp_nb_;
        const CommDomain domain = op.domain;
        comm_.issue(req, [this, domain, in_fwd] {
            onNonBlockingDone(domain, in_fwd);
        });
    }
}

void
TrainingLoop::issueDpGrads(Bytes grad_bytes, bool zero_style)
{
    if (grad_bytes <= 0.0)
        return;
    const auto& scope =
        scopes_[static_cast<std::size_t>(CommDomain::DataParallel)];
    if (!scope)
        return; // fully model-parallel workload
    auto issue_nb = [&](CollectiveType type, Bytes size) {
        CollectiveRequest req;
        req.type = type;
        req.size = size;
        req.chunks = 0;
        req.scope = *scope;
        req.priority_tier =
            tier_override_ >= 0
                ? tier_override_
                : model_.parallel.priorityTierFor(
                      CommDomain::DataParallel);
        req.job = job_;
        ++pending_dp_;
        comm_.issue(req, [this] {
            onNonBlockingDone(CommDomain::DataParallel,
                              /*in_fwd=*/false);
        });
    };
    if (zero_style) {
        // ZeRO-2: reduce-scatter gradients, then all-gather the
        // updated parameters (AG size is the gathered result).
        issue_nb(CollectiveType::ReduceScatter, grad_bytes);
        issue_nb(CollectiveType::AllGather, grad_bytes);
    } else {
        issue_nb(CollectiveType::AllReduce, grad_bytes);
    }
}

void
TrainingLoop::onBlockingDone()
{
    THEMIS_ASSERT(blocking_remaining_ > 0, "spurious blocking callback");
    if (--blocking_remaining_ > 0)
        return;
    THEMIS_ASSERT(waiting_ == WaitKind::Blocking, "not blocked");
    current_.exposed_mp += comm_.queue().now() - wait_started_;
    waiting_ = WaitKind::None;
    advanceAfterComm();
}

void
TrainingLoop::advanceAfterComm()
{
    if (in_fwd_) {
        ++layer_;
        startFwdLayer();
    } else {
        --layer_;
        startBwdLayer();
    }
}

void
TrainingLoop::onNonBlockingDone(CommDomain domain, bool in_fwd)
{
    if (waiting_ == WaitKind::FinalDrain) {
        // Attribute the drain segment ending now: any instant with an
        // outstanding DP collective counts as exposed DP, the rest of
        // the tail (overlapped MP/World traffic still in flight) as
        // exposed MP.
        const TimeNs now = comm_.queue().now();
        if (pending_dp_ > 0)
            current_.exposed_dp += now - drain_mark_;
        else
            current_.exposed_mp += now - drain_mark_;
        drain_mark_ = now;
    }
    if (in_fwd) {
        THEMIS_ASSERT(pending_fwd_nb_ > 0, "spurious fwd-comm callback");
        --pending_fwd_nb_;
    }
    if (domain == CommDomain::DataParallel) {
        THEMIS_ASSERT(pending_dp_ > 0, "spurious DP callback");
        --pending_dp_;
    } else {
        THEMIS_ASSERT(pending_mp_nb_ > 0, "spurious MP callback");
        --pending_mp_nb_;
    }
    if (waiting_ == WaitKind::FwdBarrier && pending_fwd_nb_ == 0) {
        // DLRM-style join: the wait for overlapped forward comm is
        // exposed model-parallel time.
        current_.exposed_mp += comm_.queue().now() - wait_started_;
        waiting_ = WaitKind::None;
        startFwdLayer(); // retry the barrier layer (now clear)
        return;
    }
    if (waiting_ == WaitKind::FinalDrain)
        maybeFinishIteration();
}

void
TrainingLoop::finishCompute()
{
    // Fused DP gradients: one collective over every layer's gradient
    // bytes, issued at the end of back-propagation.
    if (model_.fused_dp_grads) {
        bool zero_style = false;
        for (const auto& l : model_.layers)
            zero_style = zero_style || l.zero_style_dp;
        issueDpGrads(model_.totalDpGradBytes(), zero_style);
    }
    compute_end_ = comm_.queue().now();
    drain_mark_ = compute_end_;
    waiting_ = WaitKind::FinalDrain;
    maybeFinishIteration();
}

void
TrainingLoop::maybeFinishIteration()
{
    if (pending_dp_ > 0 || pending_mp_nb_ > 0 || pending_fwd_nb_ > 0)
        return;
    // All drain segments were attributed in onNonBlockingDone().
    waiting_ = WaitKind::None;
    iteration_done_ = true;
    // The iteration ends at the simulated instant its last collective
    // completed — which, when one loop owns the queue, is exactly the
    // time run() returns at, so the synchronous path is unchanged.
    current_.total = comm_.queue().now() - iter_start_;
    if (on_iteration_done_) {
        IterationCallback cb = std::move(on_iteration_done_);
        on_iteration_done_ = nullptr;
        cb(current_);
    }
}

} // namespace themis::workload
