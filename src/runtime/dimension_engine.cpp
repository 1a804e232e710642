#include "runtime/dimension_engine.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "stats/trace_writer.hpp"

namespace themis::runtime {

namespace {

/** Append a non-negative int's digits at @p p; returns one past the
 *  last digit. snprintf replacement for the per-chunk-op trace label
 *  (the hottest telemetry path). */
char*
appendInt(char* p, int v)
{
    if (v >= 10)
        p = appendInt(p, v / 10);
    *p++ = static_cast<char>('0' + v % 10);
    return p;
}

std::pair<int, int>
parkKey(const OpKey& key)
{
    return {key.chunk_id, key.stage_index};
}

std::pair<int, int>
parkKey(const OpTag& tag)
{
    return {tag.chunk_id, tag.stage_index};
}

/** lower_bound order of a bucket's (seq, slot) entries. */
const auto seq_before = [](const auto& ready, std::uint64_t seq) {
    return ready.seq < seq;
};

} // namespace

DimensionEngine::DimensionEngine(sim::EventQueue& queue,
                                 DimensionConfig config, int global_dim,
                                 IntraDimPolicy policy,
                                 AdmissionConfig admission)
    : queue_ref_(queue), config_(config), global_dim_(global_dim),
      policy_(policy), admission_(admission),
      channel_(queue, config.bandwidth())
{
    config_.validate();
    if (admission_.max_parallel_ops < 1)
        THEMIS_FATAL("admission max_parallel_ops must be >= 1, got "
                     << admission_.max_parallel_ops);
    if (!(admission_.latency_headroom > 0.0))
        THEMIS_FATAL("admission latency_headroom must be positive, got "
                     << admission_.latency_headroom);
    if (admission_.max_priority_bypass < 1)
        THEMIS_FATAL("admission max_priority_bypass must be >= 1, got "
                     << admission_.max_priority_bypass);
}

DimensionEngine::DimensionEngine(sim::EventQueue& queue,
                                 DimensionConfig config, int global_dim,
                                 IntraDimPolicy policy,
                                 AdmissionConfig admission,
                                 bool legacy_scan,
                                 sim::ChannelFairness fairness,
                                 bool scalar_admission,
                                 bool tier_blind_headroom)
    : DimensionEngine(queue, std::move(config), global_dim, policy,
                      admission)
{
    if (legacy_scan || fairness != sim::ChannelFairness::Weighted ||
        scalar_admission || tier_blind_headroom)
        THEMIS_FATAL("dimension " << global_dim
                                  << ": the legacy engine scan, "
                                     "egalitarian channel, scalar-only "
                                     "admission and tier-blind headroom "
                                     "baselines are retired");
}

void
DimensionEngine::beginIterationEpoch()
{
    THEMIS_ASSERT(queued_ == 0 && active_ == 0,
                  "iteration epoch reset with ops in flight on dim "
                      << global_dim_);
    channel_.epochReset();
}

inline std::uint32_t
DimensionEngine::acquireSlot(ChunkOp&& op)
{
    std::uint32_t s = free_slot_;
    if (s != kNoSlot) {
        free_slot_ = slotAt(s).next_free;
    } else {
        if ((slot_end_ & (kPageSlots - 1)) == 0)
            pages_.push_back(std::make_unique<OpSlot[]>(kPageSlots));
        s = slot_end_++;
    }
    slotAt(s).op = std::move(op);
    return s;
}

inline void
DimensionEngine::releaseSlot(std::uint32_t s)
{
    OpSlot& slot = slotAt(s);
    slot.op.on_complete = nullptr; // drop the caller's captures now
    ++slot.generation;
    slot.next_free = free_slot_;
    free_slot_ = s;
}

inline DimensionEngine::OpSlot&
DimensionEngine::liveSlot(OpHandle h)
{
    const auto s = static_cast<std::uint32_t>(h >> 32);
    THEMIS_ASSERT(s < slot_end_ && slotAt(s).generation ==
                                       static_cast<std::uint32_t>(h),
                  "stale op handle on dim " << global_dim_);
    return slotAt(s);
}

inline std::vector<DimensionEngine::Bucket>::iterator
DimensionEngine::bucketFor(const ChunkOp& op)
{
    const int tier = op.flow.tier;
    const TimeNs st = policy_ == IntraDimPolicy::Scf
                          ? op.transfer_time + op.fixed_delay
                          : 0.0;
    auto it = buckets_.begin();
    while (it != buckets_.end() &&
           (it->tier > tier ||
            (it->tier == tier && it->service_time < st)))
        ++it;
    if (it == buckets_.end() || it->tier != tier ||
        it->service_time != st) {
        it = buckets_.insert(it, Bucket{tier, st, {}, 0});
        if (!spare_.empty()) {
            it->ops = std::move(spare_.back());
            spare_.pop_back();
        }
    }
    return it;
}

inline void
DimensionEngine::readyInsert(std::uint32_t s)
{
    const OpSlot& slot = slotAt(s);
    Bucket& b = *bucketFor(slot.op);
    // Compact a full buffer whose consumed prefix is at least half of
    // it: a buffer grows only while over half of it is live.
    if (b.ops.size() == b.ops.capacity() &&
        2 * b.head >= b.ops.size()) {
        b.ops.erase(b.ops.begin(), b.live());
        b.head = 0;
    }
    // New ops and retries carry the newest sequence number; only
    // enforced-order releases put back an older one.
    const std::uint64_t seq = slot.arrival_seq;
    b.ops.insert(b.ops.empty() || b.ops.back().seq < seq
                     ? b.ops.end()
                     : std::lower_bound(b.live(), b.ops.end(), seq,
                                        seq_before),
                 ReadyOp{seq, s});
}

inline void
DimensionEngine::readyErase(std::uint32_t s)
{
    const OpSlot& slot = slotAt(s);
    const auto it = bucketFor(slot.op);
    const auto sit = std::lower_bound(it->live(), it->ops.end(),
                                      slot.arrival_seq, seq_before);
    THEMIS_ASSERT(sit != it->ops.end() && sit->slot == s,
                  "ready op missing from its bucket");
    // Rotate the op to the head (the rest keep their order) and pop.
    std::rotate(it->live(), sit, sit + 1);
    readyPop(static_cast<std::size_t>(it - buckets_.begin()));
}

inline void
DimensionEngine::readyPop(std::size_t b)
{
    Bucket& bucket = buckets_[b];
    if (++bucket.head < bucket.ops.size())
        return;
    bucket.ops.clear();
    spare_.push_back(std::move(bucket.ops));
    buckets_.erase(buckets_.begin() + static_cast<long>(b));
}

void
DimensionEngine::setEnforcedOrder(int collective_id,
                                  std::vector<OpKey> order)
{
    // Replacing an existing order first releases its parked ops back
    // into the ready set so none are stranded; the re-scan below
    // re-parks them under the new order. An observed order has
    // parked nothing: the new order continues from its starts.
    std::size_t cursor = 0;
    auto old = enforced_.find(collective_id);
    if (old != enforced_.end()) {
        if (old->second.observing) {
            const std::vector<OpKey>& seen = old->second.order;
            THEMIS_ASSERT(seen.size() <= order.size() &&
                              std::equal(seen.begin(), seen.end(),
                                         order.begin()),
                          "observed starts on dim "
                              << global_dim_
                              << " are not a prefix of the enforced "
                                 "order");
            cursor = seen.size();
        }
        for (const auto& [key, s] : old->second.parked)
            readyInsert(s);
        enforced_.erase(old);
    }
    EnforcedOrder& eo = enforced_[collective_id];
    eo.order = std::move(order);
    eo.next = cursor;
    // Ops of this collective may already be queued (normally the
    // order is installed before the session starts, so this loop sees
    // an empty set), and all of them are ready now: park every one
    // that is not the expected head.
    std::vector<std::uint32_t> to_park;
    for (const Bucket& b : buckets_)
        for (std::size_t i = b.head; i < b.ops.size(); ++i) {
            const ChunkOp& op = slotAt(b.ops[i].slot).op;
            if (op.tag.collective_id != collective_id)
                continue;
            if (op.attempt > 0)
                continue; // retry waiting out a flap; cursor passed it
            THEMIS_ASSERT(eo.next < eo.order.size(),
                          "enforced order shorter than pending op count");
            if (parkKey(op.tag) != parkKey(eo.order[eo.next]))
                to_park.push_back(b.ops[i].slot);
        }
    for (const std::uint32_t s : to_park) {
        readyErase(s);
        eo.parked.emplace(parkKey(slotAt(s).op.tag), s);
    }
    // A replacement mid-flight may have made an op startable
    // (released from the old order's parking).
    tryStart();
}

void
DimensionEngine::observeOrder(int collective_id)
{
    THEMIS_ASSERT(enforced_.find(collective_id) == enforced_.end(),
                  "collective " << collective_id
                                << " already has an order on dim "
                                << global_dim_);
    enforced_[collective_id].observing = true;
}

std::vector<OpKey>
DimensionEngine::takeObservedOrder(int collective_id)
{
    auto it = enforced_.find(collective_id);
    THEMIS_ASSERT(it != enforced_.end() && it->second.observing,
                  "collective " << collective_id
                                << " is not observed on dim "
                                << global_dim_);
    std::vector<OpKey> order = std::move(it->second.order);
    enforced_.erase(it);
    return order;
}

void
DimensionEngine::clearEnforcedOrder(int collective_id)
{
    auto it = enforced_.find(collective_id);
    if (it == enforced_.end())
        return;
    for (const auto& [key, s] : it->second.parked)
        readyInsert(s);
    const bool unparked = !it->second.parked.empty();
    enforced_.erase(it);
    if (unparked)
        tryStart();
}

void
DimensionEngine::setPresenceListener(PresenceListener listener)
{
    presence_ = std::move(listener);
}

void
DimensionEngine::setStartListener(StartListener listener)
{
    start_listener_ = std::move(listener);
}

void
DimensionEngine::setFinishListener(FinishListener listener)
{
    finish_listener_ = std::move(listener);
}

void
DimensionEngine::attachTrace(stats::TraceWriter* trace)
{
    trace_ = trace;
}

void
DimensionEngine::armFaults(const RetryConfig& retry)
{
    if (!(retry.backoff_base_ns > 0.0))
        THEMIS_FATAL("retry backoff_base_ns must be positive, got "
                     << retry.backoff_base_ns);
    if (retry.backoff_cap_ns < retry.backoff_base_ns)
        THEMIS_FATAL("retry backoff_cap_ns "
                     << retry.backoff_cap_ns << " is below base "
                     << retry.backoff_base_ns);
    if (retry.max_attempts < 1)
        THEMIS_FATAL("retry max_attempts must be >= 1, got "
                     << retry.max_attempts);
    faults_armed_ = true;
    retry_ = retry;
}

void
DimensionEngine::setRetryListener(RetryListener listener)
{
    retry_listener_ = std::move(listener);
}

void
DimensionEngine::setFatalRetryListener(FatalRetryListener listener)
{
    fatal_retry_listener_ = std::move(listener);
}

void
DimensionEngine::failInFlight()
{
    THEMIS_ASSERT(faults_armed_,
                  "failInFlight on an engine without armFaults()");
    if (link_down_)
        return; // full outage already failed (and holds) everything
    channel_.failActive();
    // Not a hold: ready ops may start immediately on the surviving
    // links' capacity (the driver has already rescaled the channel).
    tryStart();
}

void
DimensionEngine::setLinkDown(bool down)
{
    THEMIS_ASSERT(faults_armed_,
                  "setLinkDown on an engine without armFaults()");
    if (down == link_down_)
        return; // overlapping flaps are depth-counted by the driver
    link_down_ = down;
    if (down) {
        // Every transfer in flight fails; each failure handler runs
        // failOp(), which schedules the op's backoff requeue. Ops in
        // their latency phase are not on the channel — they fail at
        // the latency timer's do_transfer when it sees the link down.
        channel_.failActive();
    } else {
        tryStart();
    }
}

void
DimensionEngine::notifyPresence()
{
    const bool present = queued_ > 0 || active_ > 0;
    if (present == last_presence_)
        return;
    last_presence_ = present;
    if (presence_)
        presence_(global_dim_, present, queue_ref_.now());
}

void
DimensionEngine::enqueue(ChunkOp&& op)
{
    THEMIS_ASSERT(op.global_dim == global_dim_,
                  "op for dim " << op.global_dim << " enqueued on dim "
                                << global_dim_);
    const std::uint32_t s = acquireSlot(std::move(op));
    OpSlot& slot = slotAt(s);
    slot.arrival_seq = arrival_counter_++;
    ++queued_;
    auto eit = enforced_.find(slot.op.tag.collective_id);
    if (eit != enforced_.end() && !eit->second.observing) {
        EnforcedOrder& eo = eit->second;
        THEMIS_ASSERT(eo.next < eo.order.size(),
                      "enforced order exhausted but ops keep arriving");
        if (parkKey(slot.op.tag) != parkKey(eo.order[eo.next])) {
            // Not the expected head: park until the cursor reaches it.
            // Nothing became startable, so no tryStart().
            eo.parked.emplace(parkKey(slot.op.tag), s);
            notifyPresence();
            return;
        }
    }
    readyInsert(s);
    notifyPresence();
    tryStart();
}

inline bool
DimensionEngine::admissionAllows(const ChunkOp& candidate) const
{
    if (active_ == 0)
        return true;
    if (static_cast<int>(active_) >= admission_.max_parallel_ops)
        return false;
    const TimeNs max_delay = active_delays_.back().first;
    // Weighted service demand as the candidate sees it under GPS:
    // admit while sum_i(t_i * w_i) < headroom * max_delay * w_cand.
    // With uniform weights both sides multiply by 1.0 exactly.
    return active_weighted_sum_ <
           admission_.latency_headroom * max_delay *
               candidate.flow.weight;
}

void
DimensionEngine::promoteExpected(EnforcedOrder& eo)
{
    if (eo.next >= eo.order.size())
        return;
    auto it = eo.parked.find(parkKey(eo.order[eo.next]));
    if (it == eo.parked.end())
        return; // expected op has not arrived yet
    readyInsert(it->second);
    eo.parked.erase(it);
}

inline void
DimensionEngine::tryStart()
{
    if (link_down_)
        return; // flapped: holds until the driver raises the link
    // The batched refill handles the overwhelmingly common shape —
    // one flow tier, no enforced orders, no anti-starvation debt —
    // where selection order is exactly the buckets' order and no
    // start can reshape the candidate set. Everything else takes the
    // general one-op-at-a-time path. The two paths admit identical
    // prefixes by construction (the batch evaluates the same
    // check against the same running aggregates).
    if (buckets_.empty())
        return;
    if (!enforced_.empty() ||
        bypass_streak_ >= admission_.max_priority_bypass ||
        buckets_.front().tier != buckets_.back().tier) {
        tryStartScalar();
        return;
    }
    tryStartBatch();
}

inline void
DimensionEngine::tryStartBatch()
{
    // One streamed pass over the policy-ordered ready prefix. The
    // admission aggregates (running transfer-time sum, running max
    // delay, running active count) are hoisted into locals, so every
    // candidate costs exactly one branch-light admit evaluation —
    // arithmetic on register-resident doubles, no per-start re-query
    // of the active aggregates — and the pass stops at the
    // first rejection, which closes the refill (nothing admitted
    // later could change the verdict: the aggregates only grow).
    // Admit rule == scalar path: the first op of an idle engine is
    // always admitted; otherwise admit while the active count is
    // under the hard cap and the weighted service demand is below
    // headroom x largest delay x the candidate's weight (see
    // AdmissionConfig::latency_headroom).
    double sum = active_weighted_sum_;
    double max_delay =
        active_delays_.empty() ? 0.0 : active_delays_.back().first;
    std::size_t active_n = active_;
    const double headroom = admission_.latency_headroom;
    const auto maxpar =
        static_cast<std::size_t>(admission_.max_parallel_ops);
    bool started = false;
    while (!buckets_.empty()) {
        const std::uint32_t s = buckets_.front().front().slot;
        const ChunkOp& op = slotAt(s).op;
        const double w = op.flow.weight;
        const double budget = headroom * max_delay * w;
        const bool admit =
            (active_n == 0) |
            ((active_n < maxpar) & (sum < budget));
        if (!admit)
            break;
        sum += op.transfer_time * w;
        max_delay = op.fixed_delay > max_delay ? op.fixed_delay
                                               : max_delay;
        ++active_n;
        readyPop(0);
        startOp(s);
        started = true;
    }
    // Same-tier starts can never bypass an older lower-tier op, so
    // the streak ends at zero exactly as the scalar path's per-start
    // updates would leave it.
    if (started)
        bypass_streak_ = 0;
}

void
DimensionEngine::tryStartScalar()
{
    while (!buckets_.empty()) {
        // Tier-then-policy head by default; the oldest waiting op
        // (the least bucket head) once the bypass streak hits the
        // anti-starvation bound.
        std::size_t chosen_b = 0, oldest_b = 0;
        for (std::size_t b = 1; b < buckets_.size(); ++b)
            if (buckets_[b].front().seq < buckets_[oldest_b].front().seq)
                oldest_b = b;
        if (bypass_streak_ >= admission_.max_priority_bypass)
            chosen_b = oldest_b;
        const std::uint32_t s = buckets_[chosen_b].front().slot;
        const ChunkOp& op = slotAt(s).op;
        if (!admissionAllows(op))
            return;
        // Only count genuine priority inversions: starting the oldest
        // op, or a newer op of the same (or lower) tier, is the
        // policy's own ordering, not a tier bypass.
        if (buckets_[chosen_b].tier > buckets_[oldest_b].tier)
            ++bypass_streak_;
        else
            bypass_streak_ = 0;
        readyPop(chosen_b);
        // Retried ops (attempt > 0) already advanced their
        // collective's enforced cursor at their first start; bumping
        // it again would skip the true next op forever.
        if (op.attempt == 0) {
            auto eit = enforced_.find(op.tag.collective_id);
            if (eit != enforced_.end()) {
                EnforcedOrder& eo = eit->second;
                if (eo.observing)
                    eo.order.push_back(
                        OpKey{op.tag.chunk_id, op.tag.stage_index});
                ++eo.next;
                promoteExpected(eo);
            }
        }
        startOp(s);
    }
}

inline void
DimensionEngine::startOp(std::uint32_t s)
{
    --queued_;
    OpSlot& slot = slotAt(s);
    const ChunkOp& op = slot.op;
    THEMIS_ASSERT(!op.steps.empty(), "op with no steps");
    if (fingerprint_ != nullptr) {
        // Event-trace component of the iteration fingerprint: op
        // starts in execution order, identified and timestamped in
        // the epoch frame (collective ids and the clock both restart
        // at the epoch reset).
        fingerprint_->mix(std::uint64_t{0x5354}); // "ST"
        fingerprint_->mix(static_cast<std::uint64_t>(global_dim_));
        fingerprint_->mix(
            static_cast<std::uint64_t>(op.tag.collective_id));
        fingerprint_->mix(static_cast<std::uint64_t>(op.tag.chunk_id));
        fingerprint_->mix(
            static_cast<std::uint64_t>(op.tag.stage_index));
        fingerprint_->mix(queue_ref_.now());
    }
    // Guarded here, not only inside logDebug: phaseName() builds a
    // string, and this runs on every op start.
    if (Logger::level() <= LogLevel::Debug)
        logDebug("dim", global_dim_ + 1, " t=", queue_ref_.now(),
                 " start chunk ", op.tag.chunk_id, " stage ",
                 op.tag.stage_index, " (", phaseName(op.phase), ", ",
                 op.entering, " B in, ", active_, " active)");
    if (start_listener_)
        start_listener_(op.tag);
    addActive(op);
    slot.next_step = 0;
    slot.started_at = queue_ref_.now();
    advance(handleOf(s));
}

inline void
DimensionEngine::addActive(const ChunkOp& op)
{
    ++active_;
    active_weighted_sum_ += op.transfer_time * op.flow.weight;
    const auto it = std::lower_bound(
        active_delays_.begin(), active_delays_.end(),
        std::pair<TimeNs, std::uint32_t>{op.fixed_delay, 0});
    if (it != active_delays_.end() && it->first == op.fixed_delay)
        ++it->second;
    else
        active_delays_.insert(it, {op.fixed_delay, 1});
}

inline void
DimensionEngine::removeActive(const ChunkOp& op)
{
    --active_;
    active_weighted_sum_ -= op.transfer_time * op.flow.weight;
    const auto it = std::lower_bound(
        active_delays_.begin(), active_delays_.end(),
        std::pair<TimeNs, std::uint32_t>{op.fixed_delay, 0});
    THEMIS_ASSERT(it != active_delays_.end() &&
                      it->first == op.fixed_delay,
                  "active delay aggregate out of sync");
    if (--it->second == 0)
        active_delays_.erase(it);
    if (active_ == 0)
        active_weighted_sum_ = 0.0; // shed fp drift at quiesce points
}

inline void
DimensionEngine::advance(OpHandle h)
{
    OpSlot& a = liveSlot(h);
    if (a.next_step >= a.op.steps.size()) {
        finish(h);
        return;
    }
    const StepPlan step = a.op.steps[a.next_step];
    const double weight = a.op.flow.weight;
    // Channel accounting is per (job, tier): job 0 — the single-
    // workload case — maps onto the plain tier indices.
    const int cls = accountingClass(a.op.flow);
    ++a.next_step;
    auto do_transfer = [this, h, step, weight, cls] {
        if (faults_armed_ && link_down_) {
            // The latency phase ended under a flapped link: the wire
            // transfer cannot start. Fail the attempt on the spot (no
            // bytes moved) and back off like a mid-flight failure.
            failOp(h, 0.0);
            return;
        }
        if (faults_armed_) {
            channel_.begin(
                step.bytes, weight, [this, h] { advance(h); }, cls,
                [this, h, step](Bytes remaining) {
                    // Bytes the failed wire step DID move get re-sent
                    // on retry; account them as lost work.
                    failOp(h, step.bytes - remaining);
                });
        } else {
            channel_.begin(step.bytes, weight,
                           [this, h] { advance(h); }, cls);
        }
    };
    // One latency timer per chunk-op step: the closure must stay in
    // the event slot, or every op pays a boxing allocation.
    static_assert(sizeof(do_transfer) <= sim::EventQueue::kInlineCapacity,
                  "latency-timer closure no longer fits an event slot");
    if (step.latency > 0.0) {
        queue_ref_.scheduleAfter(step.latency, do_transfer);
    } else {
        do_transfer();
    }
}

inline void
DimensionEngine::finish(OpHandle h)
{
    OpSlot& slot = liveSlot(h);
    const ChunkOp& op = slot.op;
    removeActive(op);
    ++completed_;
    if (fingerprint_ != nullptr) {
        fingerprint_->mix(std::uint64_t{0x464e}); // "FN"
        fingerprint_->mix(static_cast<std::uint64_t>(global_dim_));
        fingerprint_->mix(
            static_cast<std::uint64_t>(op.tag.collective_id));
        fingerprint_->mix(static_cast<std::uint64_t>(op.tag.chunk_id));
        fingerprint_->mix(
            static_cast<std::uint64_t>(op.tag.stage_index));
        fingerprint_->mix(queue_ref_.now());
    }
    if (trace_ != nullptr) {
        // Hand-rolled "RS c3.s1" label: short enough for the string's
        // SSO buffer, so the whole per-op span is allocation-free.
        char label[32];
        char* p = label;
        for (const char* t = phaseTag(op.phase); *t != '\0';)
            *p++ = *t++;
        *p++ = ' ';
        *p++ = 'c';
        p = appendInt(p, op.tag.chunk_id);
        *p++ = '.';
        *p++ = 's';
        p = appendInt(p, op.tag.stage_index);
        trace_->recordFabricOp(global_dim_, label,
                               static_cast<std::size_t>(p - label),
                               slot.started_at, queue_ref_.now());
    }
    if (finish_listener_)
        finish_listener_(op, slot.started_at);
    // Completion may enqueue the chunk's next stage on another
    // dimension (or this one, into another slot: this one is freed
    // only after the callback); notify first, then refill.
    op.on_complete(op);
    releaseSlot(static_cast<std::uint32_t>(h >> 32));
    notifyPresence();
    tryStart();
}

void
DimensionEngine::failOp(OpHandle h, Bytes lost)
{
    OpSlot& a = liveSlot(h);
    THEMIS_ASSERT(a.next_step >= 1, "failOp before any step began");
    // Earlier steps of this attempt completed in full; the whole op
    // restarts from step 0 on retry, so their bytes are re-sent too.
    for (std::size_t s = 0; s + 1 < a.next_step; ++s)
        lost += a.op.steps[s].bytes;
    // The op keeps its slot through the backoff; it counts as neither
    // queued nor active until requeueRetry().
    ChunkOp& op = a.op;
    removeActive(op);
    ++op.attempt;
    ++retry_count_;
    lost_bytes_ += lost;
    if (fingerprint_ != nullptr) {
        fingerprint_->mix(std::uint64_t{0x464c}); // "FL"
        fingerprint_->mix(static_cast<std::uint64_t>(global_dim_));
        fingerprint_->mix(
            static_cast<std::uint64_t>(op.tag.collective_id));
        fingerprint_->mix(static_cast<std::uint64_t>(op.tag.chunk_id));
        fingerprint_->mix(
            static_cast<std::uint64_t>(op.tag.stage_index));
        fingerprint_->mix(static_cast<std::uint64_t>(op.attempt));
        fingerprint_->mix(queue_ref_.now());
    }
    if (Logger::level() <= LogLevel::Debug)
        logDebug("dim", global_dim_ + 1, " t=", queue_ref_.now(),
                 " FAIL chunk ", op.tag.chunk_id, " stage ",
                 op.tag.stage_index, " attempt ", op.attempt, " (",
                 lost, " B lost)");
    const TimeNs delay = retryBackoffDelay(op);
    if (retry_listener_)
        retry_listener_(global_dim_, lost, delay);
    if (op.attempt > retry_.max_attempts) {
        FatalRetryReport report;
        report.dim = global_dim_;
        report.op = op.tag;
        report.attempts = op.attempt;
        report.lost_bytes = lost_bytes_;
        if (fatal_retry_listener_)
            fatal_retry_listener_(report);
        std::ostringstream oss;
        oss << "chunk " << op.tag.chunk_id << " stage "
            << op.tag.stage_index << " on dim " << global_dim_
            << " exceeded " << retry_.max_attempts
            << " retry attempts; raise retry max_attempts or shorten "
               "the flap windows";
        throw RetryExhaustedError(oss.str(), report);
    }
    queue_ref_.scheduleAfter(delay, [this, h] { requeueRetry(h); });
    notifyPresence();
}

TimeNs
DimensionEngine::retryBackoffDelay(const ChunkOp& op) const
{
    // Exponential backoff, capped: base * 2^(attempt-1). The loop
    // form avoids pow()/overflow and is exact in doubles.
    TimeNs delay = retry_.backoff_base_ns;
    for (int k = 1; k < op.attempt && delay < retry_.backoff_cap_ns;
         ++k)
        delay *= 2.0;
    return std::min(delay, retry_.backoff_cap_ns);
}

void
DimensionEngine::publishMetrics(
    stats::telemetry::MetricsRegistry& registry,
    const std::string& prefix) const
{
    registry.gauge(prefix + ".completed_ops")
        .set(static_cast<double>(completed_));
    registry.gauge(prefix + ".retries")
        .set(static_cast<double>(retry_count_));
    registry.gauge(prefix + ".lost_bytes").set(lost_bytes_);
    registry.gauge(prefix + ".bypass_streak")
        .set(static_cast<double>(bypass_streak_));
    channel_.publishMetrics(registry, prefix + ".channel");
}

void
DimensionEngine::requeueRetry(OpHandle h)
{
    liveSlot(h).arrival_seq = arrival_counter_++;
    ++queued_;
    readyInsert(static_cast<std::uint32_t>(h >> 32));
    notifyPresence();
    tryStart();
}

} // namespace themis::runtime
