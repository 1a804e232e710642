#include "sim/shared_channel.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace themis::sim {

namespace {

/** Remaining-byte tolerance: below this a transfer counts as drained. */
constexpr Bytes kDrainEps = 1e-6;

/**
 * Time sliver (ns) below which a residual transfer is force-drained:
 * when the final bytes would take less than this to move, the
 * completion timestamp can fall below the double-precision ulp of the
 * simulation clock, making the event fire with zero elapsed time.
 * One picosecond is far below any modelled latency.
 */
constexpr TimeNs kTimeSliver = 1e-3;

/**
 * Virtual-time rebase threshold. The drain test compares finish
 * points against vtime_ + kDrainEps, so kDrainEps must stay above the
 * double ulp of the virtual clock: ulp(4e9) ~ 9.5e-7 < kDrainEps <
 * ulp(8e9). Rebasing at 1e9 keeps a comfortable margin — the primary
 * eps path never degenerates, for any channel capacity — and the
 * shift is O(pending finishes) once per ~gigabyte of unit-weight
 * service, i.e. free. Long sweeps (petabytes of cumulative service
 * through one channel) stay exact, with or without weights: the
 * shift preserves every (v_end - vtime_) difference, which is the
 * only quantity the weighted drain logic consumes.
 */
constexpr double kRebaseThreshold = 1e9;

/**
 * Sanity cap on priority-class indices. Cluster jobs stride the class
 * space (accountingClass() = job * tiers + tier), and job churn keeps
 * allocating fresh indices for a runtime's whole lifetime, so the cap
 * only rejects wild values (negative wraparound, garbage), not large
 * legitimate ones — the accounting itself is a map that stays
 * O(active classes) via retireClass().
 */
constexpr int kMaxPriorityClass = (1 << 22) - 1;

} // namespace

SharedChannel::SharedChannel(EventQueue& queue, Bandwidth capacity)
    : queue_(queue), capacity_(capacity), last_update_(queue.now())
{
    THEMIS_ASSERT(capacity_ > 0.0, "channel capacity must be positive");
}

void
SharedChannel::heapPush(FinishEntry entry)
{
    finish_heap_.push_back(entry);
    std::push_heap(finish_heap_.begin(), finish_heap_.end(),
                   FinishLater{});
}

void
SharedChannel::heapPop()
{
    std::pop_heap(finish_heap_.begin(), finish_heap_.end(),
                  FinishLater{});
    finish_heap_.pop_back();
}

std::uint32_t
SharedChannel::allocSlot()
{
    if (free_head_ != kNoSlot) {
        const std::uint32_t idx = free_head_;
        free_head_ = slots_[idx].next_free;
        slots_[idx].next_free = kNoSlot;
        return idx;
    }
    THEMIS_ASSERT(slots_.size() < kNoSlot, "transfer slab exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

std::uint32_t
SharedChannel::liveSlot(TransferId id) const
{
    const std::uint64_t high = id >> 32;
    if (high == 0 || high > slots_.size())
        return kNoSlot;
    const auto idx = static_cast<std::uint32_t>(high - 1);
    const Transfer& t = slots_[idx];
    if (!t.live || t.generation != static_cast<std::uint32_t>(id))
        return kNoSlot; // drained/aborted (or slot since recycled)
    return idx;
}

int
SharedChannel::numClasses() const
{
    int max_id = -1;
    for (const auto& [cls, state] : classes_)
        max_id = std::max(max_id, cls);
    return max_id + 1;
}

std::vector<int>
SharedChannel::classIds() const
{
    std::vector<int> ids;
    ids.reserve(classes_.size());
    for (const auto& [cls, state] : classes_)
        ids.push_back(cls);
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
SharedChannel::retireClass(int cls)
{
    const auto it = classes_.find(cls);
    if (it == classes_.end())
        return;
    THEMIS_ASSERT(it->second.active == 0,
                  "retiring class " << cls << " with "
                                    << it->second.active
                                    << " transfers in flight");
    classes_.erase(it);
}

Bytes
SharedChannel::classProgressedBytes(int cls) const
{
    const auto it = classes_.find(cls);
    return it == classes_.end() ? 0.0 : it->second.progressed;
}

TimeNs
SharedChannel::classBusyTime(int cls) const
{
    const auto it = classes_.find(cls);
    return it == classes_.end() ? 0.0 : it->second.busy;
}

SharedChannel::TransferId
SharedChannel::begin(Bytes bytes, Callback on_done)
{
    return begin(bytes, 1.0, std::move(on_done), 0);
}

SharedChannel::TransferId
SharedChannel::begin(Bytes bytes, double weight, Callback on_done,
                     int priority_class, FailCallback on_fail)
{
    THEMIS_ASSERT(bytes >= 0.0, "negative transfer size " << bytes);
    THEMIS_ASSERT(on_done, "null transfer callback");
    THEMIS_ASSERT(weight > 0.0, "flow weight must be positive, got "
                                    << weight);
    THEMIS_ASSERT(priority_class >= 0 &&
                      priority_class <= kMaxPriorityClass,
                  "priority class " << priority_class
                                    << " out of range");
    advanceTo(queue_.now());
    const std::uint32_t idx = allocSlot();
    Transfer& t = slots_[idx];
    ClassState& cs = classes_[priority_class];
    t.on_done = std::move(on_done);
    t.on_fail = std::move(on_fail);
    t.weight = weight;
    t.cls_state = &cs;
    t.live = true;
    const std::uint32_t generation = t.generation;
    ++active_count_;
    // Weight scales the virtual service demand: a weight-w transfer
    // drains when the unit-weight clock has advanced bytes/w (it
    // receives w bytes per virtual byte). Unit weight — the common
    // case — skips the division; x/1.0 == x exactly, so both forms
    // give the same finish point.
    const double v_end =
        vtime_ + (weight == 1.0 ? bytes : bytes / weight);
    weight_sum_ += weight;
    cs.weight_sum += weight;
    if (cs.active == 0)
        busy_classes_.push_back(&cs);
    ++cs.active;
    heapPush(FinishEntry{v_end, next_seq_++, idx, generation});
    if (active_count_ > peak_active_)
        peak_active_ = active_count_;
    reschedule();
    return (static_cast<TransferId>(idx) + 1) << 32 | generation;
}

void
SharedChannel::release(std::uint32_t slot)
{
    Transfer& t = slots_[slot];
    ClassState& cs = *t.cls_state;
    t.on_done = nullptr;
    t.on_fail = nullptr;
    t.cls_state = nullptr;
    t.live = false;
    ++t.generation; // stale ids and heap entries now miss
    t.next_free = free_head_;
    free_head_ = slot;
    --active_count_;
    weight_sum_ -= t.weight;
    cs.weight_sum -= t.weight;
    THEMIS_ASSERT(cs.active > 0, "class active count out of sync");
    --cs.active;
    if (cs.active == 0) {
        cs.weight_sum = 0.0; // shed fp drift at class quiesce points
        // Swap-remove from the busy list; per-class accumulators are
        // independent, so the resulting order cannot affect values.
        for (std::size_t i = 0; i < busy_classes_.size(); ++i) {
            if (busy_classes_[i] == &cs) {
                busy_classes_[i] = busy_classes_.back();
                busy_classes_.pop_back();
                break;
            }
        }
    }
    if (active_count_ == 0)
        weight_sum_ = 0.0; // shed fp drift at channel quiesce points
}

void
SharedChannel::epochReset()
{
    THEMIS_ASSERT(active_count_ == 0,
                  "epoch reset with transfers in flight");
    // Any recorded completion event is stale by construction (an idle
    // channel schedules nothing), and the caller has just rebased the
    // event queue, so the id must simply be forgotten, not cancelled.
    pending_event_ = 0;
    finish_heap_.clear();
    vtime_ = 0.0;
    weight_sum_ = 0.0;
    last_update_ = queue_.now();
    progressed_bytes_ = 0.0;
    busy_time_ = 0.0;
    // Keep the tracked class set (per-class reports keep their rows
    // across iteration epochs); zero the accumulators. No transfer is
    // in flight, so the busy list is necessarily empty already.
    THEMIS_ASSERT(busy_classes_.empty(),
                  "busy class list out of sync at epoch reset");
    for (auto& [cls, cs] : classes_)
        cs = ClassState{};
}

void
SharedChannel::abort(TransferId id)
{
    advanceTo(queue_.now());
    const std::uint32_t slot = liveSlot(id);
    if (slot == kNoSlot)
        return;
    // The partial service received so far stays in progressed_bytes_;
    // only the untransferred remainder vanishes with the transfer. The
    // heap entry is discarded lazily by dropStaleTop().
    release(slot);
    reschedule();
}

void
SharedChannel::maybeRebase()
{
    if (vtime_ < kRebaseThreshold)
        return;
    rebaseNow();
}

void
SharedChannel::rebaseNow()
{
    // Uniformly shifting every finish point preserves the heap order
    // and every (v_end - vtime_) difference the drain logic consumes.
    const double base = vtime_;
    for (FinishEntry& entry : finish_heap_)
        entry.v_end -= base;
    vtime_ = 0.0;
}

void
SharedChannel::setCapacity(TimeNs t, Bandwidth bw)
{
    THEMIS_ASSERT(bw > 0.0 && std::isfinite(bw),
                  "channel capacity must be positive finite, got "
                      << bw);
    THEMIS_ASSERT(t <= queue_.now() + 1e-9,
                  "capacity step at " << t << " is in the future of "
                                      << queue_.now());
    if (bw == capacity_)
        return;
    // Settle all progress accounts under the old capacity first, then
    // anchor virtual time at zero so repeated steps cannot push the
    // drain-epsilon comparison into large-magnitude territory.
    advanceTo(t);
    rebaseNow();
    capacity_ = bw;
    // Pending completion ETA was computed at the old rate.
    reschedule();
}

std::size_t
SharedChannel::failActive()
{
    advanceTo(queue_.now());
    if (active_count_ == 0)
        return 0;
    // The finish points live only in the heap; collect the live ones
    // (skipping aborted leftovers) so each failure can report its
    // untransferred remainder.
    std::vector<std::pair<FailCallback, Bytes>> failed;
    failed.reserve(active_count_);
    std::vector<FinishEntry> live;
    live.reserve(active_count_);
    for (const FinishEntry& entry : finish_heap_)
        if (entryLive(entry))
            live.push_back(entry);
    THEMIS_ASSERT(live.size() == active_count_,
                  "finish heap lost a live transfer");
    // Fail in begin order, mirroring the drain callback order.
    std::sort(live.begin(), live.end(),
              [](const FinishEntry& a, const FinishEntry& b) {
                  return a.seq < b.seq;
              });
    for (const FinishEntry& entry : live) {
        Transfer& t = slots_[entry.slot];
        THEMIS_ASSERT(t.on_fail, "failActive: transfer #"
                                     << entry.seq
                                     << " has no fail handler");
        // Like abort(): the service received so far stays in the
        // progress accounts; only the remainder is lost.
        const double residual = (entry.v_end - vtime_) * t.weight;
        const Bytes remaining = residual > 0.0 ? residual : 0.0;
        failed.emplace_back(std::move(t.on_fail), remaining);
        release(entry.slot);
    }
    finish_heap_.clear();
    if (pending_event_ != 0) {
        queue_.cancel(pending_event_);
        pending_event_ = 0;
    }
    for (auto& [cb, remaining] : failed)
        cb(remaining);
    // Failure handlers may have begun fresh transfers (each begin()
    // reschedules); make sure survivors have a completion queued.
    if (pending_event_ == 0 && active_count_ != 0)
        reschedule();
    return failed.size();
}

void
SharedChannel::advanceTo(TimeNs t)
{
    THEMIS_ASSERT(t >= last_update_ - 1e-9,
                  "channel time going backwards: " << t << " < "
                                                   << last_update_);
    const TimeNs dt = t - last_update_;
    last_update_ = t;
    if (dt <= 0.0 || active_count_ == 0)
        return;
    // Weighted fluid service: every active transfer receives
    // capacity * w / weight_sum, so the unit-weight virtual clock
    // gains capacity / weight_sum * dt and the channel as a whole
    // moves capacity * dt bytes. Between completion events no
    // transfer can exceed its demand, so no per-transfer clamping is
    // needed (slivers are corrected exactly at drain time).
    const double rate = virtualRate();
    vtime_ += rate * dt;
    progressed_bytes_ += capacity_ * dt;
    busy_time_ += dt;
    // Per-class attribution: a class with aggregate weight W_c moves
    // capacity * W_c / weight_sum = rate * W_c bytes per ns.
    for (ClassState* cs : busy_classes_) {
        cs->progressed += rate * cs->weight_sum * dt;
        cs->busy += dt;
    }
    maybeRebase();
}

bool
SharedChannel::dropStaleTop()
{
    while (!finish_heap_.empty() && !entryLive(finish_heap_.front()))
        heapPop(); // aborted; discard lazily
    return !finish_heap_.empty();
}

void
SharedChannel::reschedule()
{
    if (!dropStaleTop()) {
        queue_.cancel(pending_event_); // no-op for id 0
        pending_event_ = 0;
        return;
    }
    // Next completion: the heap top's virtual remainder at the
    // unit-weight virtual rate (the earliest v_end drains first by
    // construction, independent of weights).
    const double min_remaining = finish_heap_.front().v_end - vtime_;
    const double rate = virtualRate();
    const TimeNs eta =
        min_remaining <= kDrainEps ? 0.0 : min_remaining / rate;
    const TimeNs when = queue_.now() + eta;
    // Every begin/abort moves the ETA, so the pending completion is
    // retimed in place; retime() orders it exactly as cancel +
    // schedule would. An event no longer stored (collected into the
    // cohort firing now), or a calendar queue, which never retimes,
    // takes the long way.
    if (queue_.retime(pending_event_, when))
        return;
    queue_.cancel(pending_event_);
    pending_event_ =
        queue_.schedule(when, [this] { onCompletionEvent(); });
}

void
SharedChannel::onCompletionEvent()
{
    pending_event_ = 0;
    advanceTo(queue_.now());
    THEMIS_ASSERT(dropStaleTop(),
                  "completion event fired with no active transfers");
    // Drain threshold in virtual time: kDrainEps normally; when
    // floating-point clock granularity swallowed the final sliver of
    // the nearest transfer (its drain time is below kTimeSliver),
    // widen to its finish point so the event still completes
    // something. The sliver test deliberately measures the virtual
    // remainder at full capacity, which is conservative under weights.
    double threshold = vtime_ + kDrainEps;
    const double top_remaining = finish_heap_.front().v_end - vtime_;
    if (top_remaining > kDrainEps &&
        top_remaining / capacity_ < kTimeSliver) {
        threshold = finish_heap_.front().v_end;
    }
    // Collect everything that drained (simultaneous completions are
    // possible), remove them from the active set *before* invoking the
    // callbacks so callbacks can begin()/abort() safely. Each drained
    // transfer's progress account is settled exactly to its demand:
    // advanceTo attributed (vtime_ - v_start) * weight to it, so the
    // weight-scaled residual (v_end - vtime_) * weight (positive for
    // a force-drained sliver, negative for ulp overshoot) closes the
    // books — conservation is exact per class and in aggregate. The
    // drain buffer is a reused member, stolen for the duration so the
    // steady state allocates nothing.
    std::vector<Drained> done = std::move(drained_);
    done.clear();
    while (dropStaleTop() && finish_heap_.front().v_end <= threshold) {
        const FinishEntry entry = finish_heap_.front();
        heapPop();
        Transfer& t = slots_[entry.slot];
        const double residual = (entry.v_end - vtime_) * t.weight;
        progressed_bytes_ += residual;
        t.cls_state->progressed += residual;
        done.push_back(Drained{entry.seq, std::move(t.on_done)});
        release(entry.slot);
    }
    THEMIS_ASSERT(!done.empty(),
                  "completion event fired with nothing drained");
    // Callbacks run in begin order, matching the historical
    // id-ordered drain scan.
    std::sort(done.begin(), done.end(),
              [](const Drained& a, const Drained& b) {
                  return a.seq < b.seq;
              });
    for (Drained& d : done)
        d.on_done();
    done.clear();
    drained_ = std::move(done);
    // Callbacks may have begun new transfers (each begin() already
    // rescheduled); make sure a completion is queued for survivors.
    if (pending_event_ == 0)
        reschedule();
}

void
SharedChannel::publishMetrics(
    stats::telemetry::MetricsRegistry& registry,
    const std::string& prefix) const
{
    registry.gauge(prefix + ".capacity_gbps").set(bwToGbps(capacity_));
    registry.gauge(prefix + ".progressed_bytes")
        .set(progressed_bytes_);
    registry.gauge(prefix + ".classes")
        .set(static_cast<double>(numClasses()));
    registry.gauge(prefix + ".peak_active")
        .set(static_cast<double>(peak_active_));
}

} // namespace themis::sim
