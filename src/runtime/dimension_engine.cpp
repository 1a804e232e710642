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

} // namespace

DimensionEngine::DimensionEngine(sim::EventQueue& queue,
                                 DimensionConfig config, int global_dim,
                                 IntraDimPolicy policy,
                                 AdmissionConfig admission)
    : queue_ref_(queue), config_(config), global_dim_(global_dim),
      policy_(policy), admission_(admission),
      channel_(queue, config.bandwidth()),
      pending_(0, std::hash<std::uint64_t>{},
               std::equal_to<std::uint64_t>{},
               ArenaAllocator<std::pair<const std::uint64_t,
                                        PendingOp>>(&arena_)),
      active_(std::less<std::uint64_t>{},
              ArenaAllocator<std::pair<const std::uint64_t, ActiveOp>>(
                  &arena_)),
      active_delays_(std::less<TimeNs>{},
                     ArenaAllocator<TimeNs>(&arena_))
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
    THEMIS_ASSERT(queuedCount() == 0 && active_.empty(),
                  "iteration epoch reset with ops in flight on dim "
                      << global_dim_);
    channel_.epochReset();
}

std::vector<DimensionEngine::Bucket>::iterator
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
            it->seqs = std::move(spare_.back());
            spare_.pop_back();
        }
    }
    return it;
}

void
DimensionEngine::readyInsert(const PendingOp& p)
{
    Bucket& b = *bucketFor(p.op);
    // Compact a full buffer whose consumed prefix is at least half of
    // it: a buffer grows only while over half of it is live.
    if (b.seqs.size() == b.seqs.capacity() &&
        2 * b.head >= b.seqs.size()) {
        b.seqs.erase(b.seqs.begin(), b.live());
        b.head = 0;
    }
    // New ops and retries carry the newest sequence number; only
    // enforced-order releases put back an older one.
    b.seqs.insert(b.seqs.empty() || b.seqs.back() < p.arrival_seq
                      ? b.seqs.end()
                      : std::lower_bound(b.live(), b.seqs.end(),
                                         p.arrival_seq),
                  p.arrival_seq);
}

void
DimensionEngine::readyErase(const PendingOp& p)
{
    const auto it = bucketFor(p.op);
    const auto sit =
        std::lower_bound(it->live(), it->seqs.end(), p.arrival_seq);
    THEMIS_ASSERT(sit != it->seqs.end() && *sit == p.arrival_seq,
                  "ready op missing from its bucket");
    // Rotate the op to the head (the rest keep their order) and pop.
    std::rotate(it->live(), sit, sit + 1);
    readyPop(static_cast<std::size_t>(it - buckets_.begin()));
}

void
DimensionEngine::readyPop(std::size_t b)
{
    Bucket& bucket = buckets_[b];
    if (++bucket.head < bucket.seqs.size())
        return;
    bucket.seqs.clear();
    spare_.push_back(std::move(bucket.seqs));
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
        for (const auto& [key, seq] : old->second.parked) {
            auto pit = pending_.find(seq);
            THEMIS_ASSERT(pit != pending_.end(),
                          "parked op missing from pending store");
            readyInsert(pit->second);
        }
        enforced_.erase(old);
    }
    EnforcedOrder& eo = enforced_[collective_id];
    eo.order = std::move(order);
    eo.next = cursor;
    // Ops of this collective may already be pending (normally the
    // order is installed before the session starts, so this loop sees
    // an empty set): park every one that is not the expected head.
    for (const auto& [seq, p] : pending_) {
        if (p.op.tag.collective_id != collective_id)
            continue;
        if (p.op.attempt > 0)
            continue; // retry waiting out a flap; cursor passed it
        THEMIS_ASSERT(eo.next < eo.order.size(),
                      "enforced order shorter than pending op count");
        if (parkKey(p.op.tag) != parkKey(eo.order[eo.next])) {
            readyErase(p);
            eo.parked.emplace(parkKey(p.op.tag), seq);
        }
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
    for (const auto& [key, seq] : it->second.parked) {
        auto pit = pending_.find(seq);
        THEMIS_ASSERT(pit != pending_.end(),
                      "parked op missing from pending store");
        readyInsert(pit->second);
    }
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
    if (retry.jitter < 0.0 || retry.jitter >= 1.0)
        THEMIS_FATAL("retry jitter must be in [0, 1), got "
                     << retry.jitter);
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
    const bool present = queuedCount() > 0 || !active_.empty();
    if (present == last_presence_)
        return;
    last_presence_ = present;
    if (presence_)
        presence_(global_dim_, present, queue_ref_.now());
}

void
DimensionEngine::enqueue(ChunkOp op)
{
    THEMIS_ASSERT(op.global_dim == global_dim_,
                  "op for dim " << op.global_dim << " enqueued on dim "
                                << global_dim_);
    const std::uint64_t seq = arrival_counter_++;
    auto eit = enforced_.find(op.tag.collective_id);
    if (eit != enforced_.end() && !eit->second.observing) {
        EnforcedOrder& eo = eit->second;
        THEMIS_ASSERT(eo.next < eo.order.size(),
                      "enforced order exhausted but ops keep arriving");
        if (parkKey(op.tag) != parkKey(eo.order[eo.next])) {
            // Not the expected head: park until the cursor reaches it.
            // Nothing became startable, so no tryStart().
            eo.parked.emplace(parkKey(op.tag), seq);
            pending_.emplace(seq, PendingOp{std::move(op), seq});
            notifyPresence();
            return;
        }
    }
    auto [pit, inserted] =
        pending_.emplace(seq, PendingOp{std::move(op), seq});
    THEMIS_ASSERT(inserted, "duplicate arrival sequence");
    readyInsert(pit->second);
    notifyPresence();
    tryStart();
}

bool
DimensionEngine::admissionAllows(const ChunkOp& candidate) const
{
    if (active_.empty())
        return true;
    if (static_cast<int>(active_.size()) >= admission_.max_parallel_ops)
        return false;
    const TimeNs max_delay = *active_delays_.rbegin();
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
    auto pit = pending_.find(it->second);
    THEMIS_ASSERT(pit != pending_.end(),
                  "parked op missing from pending store");
    readyInsert(pit->second);
    eo.parked.erase(it);
}

void
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

void
DimensionEngine::tryStartBatch()
{
    // One streamed pass over the policy-ordered ready prefix. The
    // admission aggregates (running transfer-time sum, running max
    // delay, running active count) are hoisted into locals, so every
    // candidate costs exactly one branch-light admit evaluation —
    // arithmetic on register-resident doubles, no per-start re-query
    // of the active multiset or map — and the pass stops at the
    // first rejection, which closes the refill (nothing admitted
    // later could change the verdict: the aggregates only grow).
    // Admit rule == scalar path: the first op of an idle engine is
    // always admitted; otherwise admit while the active count is
    // under the hard cap and the weighted service demand is below
    // headroom x largest delay x the candidate's weight (see
    // AdmissionConfig::latency_headroom).
    double sum = active_weighted_sum_;
    double max_delay =
        active_delays_.empty() ? 0.0 : *active_delays_.rbegin();
    std::size_t active_n = active_.size();
    const double headroom = admission_.latency_headroom;
    const auto maxpar =
        static_cast<std::size_t>(admission_.max_parallel_ops);
    bool started = false;
    while (!buckets_.empty()) {
        const std::uint64_t seq = buckets_.front().front();
        const auto pit = pending_.find(seq);
        THEMIS_ASSERT(pit != pending_.end(),
                      "ready op missing from pending store");
        const double w = pit->second.op.flow.weight;
        const double budget = headroom * max_delay * w;
        const bool admit =
            (active_n == 0) |
            ((active_n < maxpar) & (sum < budget));
        if (!admit)
            break;
        sum += pit->second.op.transfer_time * w;
        max_delay = pit->second.op.fixed_delay > max_delay
                        ? pit->second.op.fixed_delay
                        : max_delay;
        ++active_n;
        readyPop(0);
        ChunkOp op = std::move(pit->second.op);
        pending_.erase(pit);
        startOp(std::move(op));
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
            if (buckets_[b].front() < buckets_[oldest_b].front())
                oldest_b = b;
        if (bypass_streak_ >= admission_.max_priority_bypass)
            chosen_b = oldest_b;
        auto pit = pending_.find(buckets_[chosen_b].front());
        THEMIS_ASSERT(pit != pending_.end(),
                      "ready op missing from pending store");
        if (!admissionAllows(pit->second.op))
            return;
        // Only count genuine priority inversions: starting the oldest
        // op, or a newer op of the same (or lower) tier, is the
        // policy's own ordering, not a tier bypass.
        if (buckets_[chosen_b].tier > buckets_[oldest_b].tier)
            ++bypass_streak_;
        else
            bypass_streak_ = 0;
        readyPop(chosen_b);
        ChunkOp op = std::move(pit->second.op);
        pending_.erase(pit);
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
        startOp(std::move(op));
    }
}

void
DimensionEngine::startOp(ChunkOp op)
{
    const std::uint64_t exec_id = next_exec_id_++;
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
                 op.entering, " B in, ", active_.size(), " active)");
    if (start_listener_)
        start_listener_(op.tag);
    active_weighted_sum_ += op.transfer_time * op.flow.weight;
    active_delays_.insert(op.fixed_delay);
    active_.emplace(exec_id,
                    ActiveOp{std::move(op), 0, queue_ref_.now()});
    advance(exec_id);
}

void
DimensionEngine::advance(std::uint64_t exec_id)
{
    auto it = active_.find(exec_id);
    THEMIS_ASSERT(it != active_.end(), "advance on unknown op");
    ActiveOp& a = it->second;
    if (a.next_step >= a.op.steps.size()) {
        finish(exec_id);
        return;
    }
    const StepPlan step = a.op.steps[a.next_step];
    const double weight = a.op.flow.weight;
    // Channel accounting is per (job, tier): job 0 — the single-
    // workload case — maps onto the plain tier indices.
    const int cls = accountingClass(a.op.flow);
    ++a.next_step;
    auto do_transfer = [this, exec_id, step, weight, cls] {
        if (faults_armed_ && link_down_) {
            // The latency phase ended under a flapped link: the wire
            // transfer cannot start. Fail the attempt on the spot (no
            // bytes moved) and back off like a mid-flight failure.
            failOp(exec_id, 0.0);
            return;
        }
        if (faults_armed_) {
            channel_.begin(
                step.bytes, weight,
                [this, exec_id] { advance(exec_id); }, cls,
                [this, exec_id, step](Bytes remaining) {
                    // Bytes the failed wire step DID move get re-sent
                    // on retry; account them as lost work.
                    failOp(exec_id, step.bytes - remaining);
                });
        } else {
            channel_.begin(step.bytes, weight,
                           [this, exec_id] { advance(exec_id); }, cls);
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

void
DimensionEngine::finish(std::uint64_t exec_id)
{
    auto it = active_.find(exec_id);
    THEMIS_ASSERT(it != active_.end(), "finish on unknown op");
    ChunkOp op = std::move(it->second.op);
    const TimeNs started_at = it->second.started_at;
    active_.erase(it);
    active_weighted_sum_ -= op.transfer_time * op.flow.weight;
    const auto delay_it = active_delays_.find(op.fixed_delay);
    THEMIS_ASSERT(delay_it != active_delays_.end(),
                  "active delay aggregate out of sync");
    active_delays_.erase(delay_it);
    if (active_.empty())
        active_weighted_sum_ = 0.0; // shed fp drift at quiesce points
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
                               started_at, queue_ref_.now());
    }
    if (finish_listener_)
        finish_listener_(op, started_at);
    // Completion may enqueue the chunk's next stage on another
    // dimension (or this one); notify first, then refill.
    op.on_complete(op);
    notifyPresence();
    tryStart();
}

void
DimensionEngine::failOp(std::uint64_t exec_id, Bytes lost)
{
    auto it = active_.find(exec_id);
    THEMIS_ASSERT(it != active_.end(), "failOp on unknown op");
    ActiveOp& a = it->second;
    THEMIS_ASSERT(a.next_step >= 1, "failOp before any step began");
    // Earlier steps of this attempt completed in full; the whole op
    // restarts from step 0 on retry, so their bytes are re-sent too.
    for (std::size_t s = 0; s + 1 < a.next_step; ++s)
        lost += a.op.steps[s].bytes;
    ChunkOp op = std::move(a.op);
    active_.erase(it);
    active_weighted_sum_ -= op.transfer_time * op.flow.weight;
    const auto delay_it = active_delays_.find(op.fixed_delay);
    THEMIS_ASSERT(delay_it != active_delays_.end(),
                  "active delay aggregate out of sync");
    active_delays_.erase(delay_it);
    if (active_.empty())
        active_weighted_sum_ = 0.0;
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
    queue_ref_.scheduleAfter(
        delay, [this, op = std::move(op)]() mutable {
            requeueRetry(std::move(op));
        });
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
    if (delay > retry_.backoff_cap_ns)
        delay = retry_.backoff_cap_ns;
    if (retry_.jitter > 0.0) {
        // Deterministic per-(op, attempt) spread so a flap's batch of
        // simultaneous failures fans out instead of re-colliding on
        // one backoff tick. Hash -> u in [0, 1) -> factor in
        // [1 - jitter/2, 1 + jitter/2).
        Fnv1a h;
        h.mix(retry_.jitter_seed);
        h.mix(static_cast<std::uint64_t>(global_dim_));
        h.mix(static_cast<std::uint64_t>(op.tag.collective_id));
        h.mix(static_cast<std::uint64_t>(op.tag.chunk_id));
        h.mix(static_cast<std::uint64_t>(op.tag.stage_index));
        h.mix(static_cast<std::uint64_t>(op.attempt));
        const double u =
            static_cast<double>(h.value() >> 11) * 0x1.0p-53;
        delay *= 1.0 + retry_.jitter * (u - 0.5);
    }
    return delay;
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
DimensionEngine::requeueRetry(ChunkOp op)
{
    const std::uint64_t seq = arrival_counter_++;
    auto [pit, inserted] =
        pending_.emplace(seq, PendingOp{std::move(op), seq});
    THEMIS_ASSERT(inserted, "duplicate arrival sequence");
    readyInsert(pit->second);
    notifyPresence();
    tryStart();
}

} // namespace themis::runtime
