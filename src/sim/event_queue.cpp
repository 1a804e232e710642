#include "sim/event_queue.hpp"

#include <algorithm>

namespace themis::sim {

namespace {

/** Initial calendar geometry; re-adapted as the population grows. */
constexpr std::size_t kInitialBuckets = 64; // power of two
constexpr double kInitialWidth = 100.0;     // ns

/** Bucket-width clamp: below 1e-3 ns nothing is resolvable (the
 *  simulation's own time sliver), above 1e12 ns a single bucket spans
 *  more than any modelled horizon. */
constexpr double kMinWidth = 1e-3;
constexpr double kMaxWidth = 1e12;

/** Calendar population triggers: grow past 2 entries/bucket, shrink
 *  below 1/8 entry/bucket. Far apart so adaptation cannot thrash. */
constexpr std::size_t kGrowFactor = 2;
constexpr std::size_t kShrinkDivisor = 8;

/** Width estimation samples this many earliest entries (Brown '88
 *  samples near the head: the local event density is what the scan
 *  pays for, not the global span). */
constexpr std::size_t kWidthSample = 64;

/** At or below this population a direct scan over the occupied
 *  buckets (found through the occupancy bits) beats the windowed walk
 *  — and sidesteps the degenerate case where one far-future event
 *  makes every pop wrap the whole year. */
constexpr std::size_t kSparseScan = 4;

/** Index of the lowest set bit of @p bits (nonzero). */
std::size_t
lowestBit(std::uint64_t bits)
{
    return static_cast<std::size_t>(__builtin_ctzll(bits));
}

std::size_t
nextPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

const char*
eventFrontEndName(EventFrontEnd front_end)
{
    switch (front_end) {
      case EventFrontEnd::Calendar: return "calendar";
      case EventFrontEnd::Heap:     return "heap";
    }
    THEMIS_PANIC("unknown EventFrontEnd "
                 << static_cast<int>(front_end));
}

EventQueue::EventQueue(EventFrontEnd front_end) : front_end_(front_end)
{
    calInit();
}

void
EventQueue::calInit()
{
    buckets_.assign(kInitialBuckets, {});
    occupied_.assign(kInitialBuckets / 64, 0);
    width_ = kInitialWidth;
    cur_win_ = 0;
    cal_count_ = 0;
    peek_valid_ = false;
}

std::uint32_t
EventQueue::allocSlot()
{
    if (free_head_ != kNoSlot) {
        const std::uint32_t idx = free_head_;
        free_head_ = slots_[idx].next_free;
        slots_[idx].next_free = kNoSlot;
        return idx;
    }
    THEMIS_ASSERT(slots_.size() < kNoSlot, "event slab exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::releaseSlot(std::uint32_t idx)
{
    Slot& slot = slots_[idx];
    slot.invoke = nullptr;
    slot.relocate = nullptr;
    slot.destroy = nullptr;
    ++slot.generation; // stale ids and cohort entries now miss
    slot.next_free = free_head_;
    slot.bucket = kNoSlot;
    free_head_ = idx;
}

void
EventQueue::releaseAll()
{
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
        Slot& slot = slots_[i];
        if (slot.invoke != nullptr) {
            slot.destroy(slot.storage);
            releaseSlot(i);
        }
    }
    live_events_ = 0;
}

void
EventQueue::cancel(EventId id)
{
    if (id == 0)
        return;
    const std::uint64_t high = id >> 32;
    if (high == 0 || high > slots_.size())
        return;
    const auto idx = static_cast<std::uint32_t>(high - 1);
    const auto generation = static_cast<std::uint32_t>(id);
    Slot& slot = slots_[idx];
    if (slot.invoke == nullptr || slot.generation != generation)
        return; // already fired/cancelled (or slot since recycled)
    // The back-pointer finds the pending entry, which leaves the
    // store at once. A cohort member (collected, not yet fired) has
    // none; runCohorts skips it once its slot is released.
    if (slot.bucket != kNoSlot) {
        if (front_end_ == EventFrontEnd::Heap) {
            heapRemoveAt(slot.pos);
        } else {
            calRemoveAt(slot.bucket, slot.pos);
            peek_valid_ = false;
        }
    }
    slot.destroy(slot.storage);
    releaseSlot(idx);
    --live_events_;
}

bool
EventQueue::retime(EventId id, TimeNs when)
{
    THEMIS_ASSERT(when >= now_ - 1e-9,
                  "retiming into the past: when=" << when
                                                  << " now=" << now_);
    // Only the heap moves events in place. The calendar is kept for
    // measurement alone; a false return sends its callers down
    // cancel + schedule, which orders identically.
    if (front_end_ != EventFrontEnd::Heap)
        return false;
    const std::uint64_t high = id >> 32;
    if (high == 0 || high > slots_.size())
        return false;
    const auto idx = static_cast<std::uint32_t>(high - 1);
    Slot& slot = slots_[idx];
    if (slot.invoke == nullptr ||
        slot.generation != static_cast<std::uint32_t>(id) ||
        slot.bucket == kNoSlot)
        return false;
    // The key schedule() would give the re-scheduled event.
    heap_[slot.pos] = Entry{when < now_ ? now_ : when, next_seq_++, idx,
                            slot.generation};
    heapFix(slot.pos);
    return true;
}

std::uint64_t
EventQueue::windowOf(TimeNs when) const
{
    const double q = when / width_;
    // Times are nanoseconds and width_ >= 1e-3, so q fits u64 for any
    // horizon the simulator can represent; clamp defensively anyway.
    if (q >= 9.0e18)
        return static_cast<std::uint64_t>(9.0e18);
    return q <= 0.0 ? 0 : static_cast<std::uint64_t>(q);
}

void
EventQueue::pushEntry(const Entry& e)
{
    if (front_end_ == EventFrontEnd::Heap) {
        heapPush(e);
        return;
    }
    calPush(e);
}

void
EventQueue::heapPlace(std::size_t pos, const Entry& e)
{
    heap_[pos] = e;
    Slot& slot = slots_[e.slot];
    slot.bucket = 0;
    slot.pos = static_cast<std::uint32_t>(pos);
}

void
EventQueue::heapSiftUp(std::size_t pos, Entry e)
{
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!earlier(e, heap_[parent]))
            break;
        heapPlace(pos, heap_[parent]);
        pos = parent;
    }
    heapPlace(pos, e);
}

void
EventQueue::heapSiftDown(std::size_t pos, Entry e)
{
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t best = 2 * pos + 1;
        if (best >= n)
            break;
        if (best + 1 < n && earlier(heap_[best + 1], heap_[best]))
            ++best;
        if (!earlier(heap_[best], e))
            break;
        heapPlace(pos, heap_[best]);
        pos = best;
    }
    heapPlace(pos, e);
}

void
EventQueue::heapFix(std::size_t pos)
{
    if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / 2]))
        heapSiftUp(pos, heap_[pos]);
    else
        heapSiftDown(pos, heap_[pos]);
}

void
EventQueue::heapPush(const Entry& e)
{
    heap_.push_back(e);
    heapSiftUp(heap_.size() - 1, e);
}

void
EventQueue::heapRemoveAt(std::size_t pos)
{
    THEMIS_ASSERT(pos < heap_.size(), "heap back-pointer out of range");
    slots_[heap_[pos].slot].bucket = kNoSlot;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return;
    heap_[pos] = last;
    heapFix(pos);
}

void
EventQueue::calPlace(std::uint32_t bucket_idx, const Entry& e)
{
    auto& bucket = buckets_[bucket_idx];
    Slot& slot = slots_[e.slot];
    slot.bucket = bucket_idx;
    slot.pos = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back(e);
    occupied_[bucket_idx >> 6] |= std::uint64_t{1} << (bucket_idx & 63);
    ++cal_count_;
}

void
EventQueue::calRemoveAt(std::uint32_t bucket_idx, std::size_t pos)
{
    auto& bucket = buckets_[bucket_idx];
    THEMIS_ASSERT(pos < bucket.size(),
                  "calendar back-pointer out of range");
    slots_[bucket[pos].slot].bucket = kNoSlot;
    if (pos + 1 != bucket.size()) {
        bucket[pos] = bucket.back();
        // No stored entry outlives its slot, so the moved entry's
        // slot is live and its back-pointer is safe to fix.
        Slot& moved = slots_[bucket[pos].slot];
        moved.bucket = bucket_idx;
        moved.pos = static_cast<std::uint32_t>(pos);
    }
    bucket.pop_back();
    if (bucket.empty())
        occupied_[bucket_idx >> 6] &=
            ~(std::uint64_t{1} << (bucket_idx & 63));
    --cal_count_;
}

void
EventQueue::calPush(const Entry& e)
{
    peek_valid_ = false;
    const std::uint64_t win = windowOf(e.when);
    // A handler may schedule an event earlier than the pending set's
    // scan position (now_ can trail cur_win_ after empty-bucket
    // advances); rewind so the scan cannot miss it.
    if (win < cur_win_)
        cur_win_ = win;
    calPlace(static_cast<std::uint32_t>(win & (buckets_.size() - 1)),
             e);
    if (cal_count_ > kGrowFactor * buckets_.size())
        calAdapt();
}

bool
EventQueue::calJumpToMin()
{
    // A whole year scanned without a hit: every stored entry lives in
    // a later year (the width is too small for the current spread).
    // Find the global minimum directly, park the scan there, and
    // re-fit the geometry.
    bool found = false;
    Entry best{0.0, 0, 0, 0};
    for (const auto& bucket : buckets_) {
        for (const Entry& e : bucket) {
            if (!found || e.when < best.when ||
                (e.when == best.when && e.seq < best.seq)) {
                best = e;
                found = true;
            }
        }
    }
    if (!found)
        return false;
    cur_win_ = windowOf(best.when);
    // Re-fit the geometry when the population carries gap
    // information; a lone straggler says nothing about density.
    if (cal_count_ >= 2)
        calAdapt();
    return true;
}

void
EventQueue::calAdapt()
{
    peek_valid_ = false;
    std::vector<Entry> entries;
    entries.reserve(cal_count_);
    for (auto& bucket : buckets_) {
        entries.insert(entries.end(), bucket.begin(), bucket.end());
        bucket.clear();
    }
    std::fill(occupied_.begin(), occupied_.end(), 0);
    cal_count_ = 0;
    if (entries.empty())
        return;

    // Width from the event density near the head (Brown '88): the
    // average gap over the earliest kWidthSample entries, times a
    // spread factor so a bucket holds a few events.
    const std::size_t sample = std::min(entries.size(), kWidthSample);
    std::partial_sort(entries.begin(),
                      entries.begin() + static_cast<long>(sample),
                      entries.end(),
                      [](const Entry& a, const Entry& b) {
                          return a.when < b.when;
                      });
    const double span = entries[sample - 1].when - entries[0].when;
    if (sample > 1 && span > 0.0) {
        width_ = std::clamp(4.0 * span /
                                static_cast<double>(sample - 1),
                            kMinWidth, kMaxWidth);
    }

    const std::size_t nb = nextPow2(
        std::max<std::size_t>(kInitialBuckets, entries.size()));
    if (buckets_.size() != nb) {
        buckets_.assign(nb, {});
        occupied_.assign(nb / 64, 0);
    }
    for (const Entry& e : entries)
        calPlace(static_cast<std::uint32_t>(windowOf(e.when) &
                                            (nb - 1)),
                 e);
    // entries[0] is the earliest entry after the partial sort.
    cur_win_ = windowOf(entries[0].when);
}

std::size_t
EventQueue::calNextOccupied(std::size_t from) const
{
    const std::size_t words = occupied_.size();
    std::size_t w = from >> 6;
    // Mask off the bits below @p from in its own word; a full lap
    // revisits that word unmasked.
    std::uint64_t bits =
        occupied_[w] & (~std::uint64_t{0} << (from & 63));
    for (std::size_t n = 0; n <= words; ++n) {
        if (bits != 0)
            return (w << 6) + lowestBit(bits);
        w = w + 1 == words ? 0 : w + 1;
        bits = occupied_[w];
    }
    THEMIS_PANIC("calendar occupancy bits out of sync");
}

bool
EventQueue::calPeek(Entry& out)
{
    if (cal_count_ == 0)
        return false;
    if (peek_valid_) {
        out = buckets_[peek_bucket_][peek_pos_];
        return true;
    }
    if (buckets_.size() > kInitialBuckets &&
        cal_count_ * kShrinkDivisor < buckets_.size())
        calAdapt();
    if (cal_count_ <= kSparseScan) {
        bool found = false;
        Entry best{0.0, 0, 0, 0};
        std::uint32_t fb = 0;
        std::size_t fp = 0;
        for (std::size_t w = 0; w < occupied_.size(); ++w) {
            for (std::uint64_t bits = occupied_[w]; bits != 0;
                 bits &= bits - 1) {
                const auto b =
                    static_cast<std::uint32_t>((w << 6) + lowestBit(bits));
                const auto& bucket = buckets_[b];
                for (std::size_t i = 0; i < bucket.size(); ++i) {
                    const Entry& e = bucket[i];
                    if (!found || e.when < best.when ||
                        (e.when == best.when && e.seq < best.seq)) {
                        best = e;
                        fb = b;
                        fp = i;
                        found = true;
                    }
                }
            }
        }
        THEMIS_ASSERT(found, "calendar count out of sync");
        cur_win_ = windowOf(buckets_[fb][fp].when);
        peek_valid_ = true;
        peek_bucket_ = fb;
        peek_pos_ = fp;
        out = buckets_[fb][fp];
        return true;
    }
    std::size_t scanned = 0;
    while (true) {
        // calJumpToMin can re-bucket mid-scan; re-derive the mask.
        const std::size_t mask = buckets_.size() - 1;
        const auto& bucket = buckets_[cur_win_ & mask];
        if (bucket.empty()) {
            // Jump to the next occupied bucket, counting each skipped
            // one toward the year-wrap limit exactly as visiting it
            // would.
            const std::size_t skip =
                (calNextOccupied(cur_win_ & mask) - (cur_win_ & mask)) &
                mask;
            if (scanned + skip > buckets_.size()) {
                if (!calJumpToMin())
                    return false;
                scanned = 0; // cur_win_ now holds a live entry's window
                continue;
            }
            cur_win_ += skip;
            scanned += skip;
            continue;
        }
        bool found = false;
        std::size_t pos = 0;
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            if (windowOf(bucket[i].when) == cur_win_ &&
                (!found || bucket[i].when < bucket[pos].when ||
                 (bucket[i].when == bucket[pos].when &&
                  bucket[i].seq < bucket[pos].seq))) {
                pos = i;
                found = true;
            }
        }
        if (found) {
            peek_valid_ = true;
            peek_bucket_ = cur_win_ & mask;
            peek_pos_ = pos;
            out = bucket[pos];
            return true;
        }
        ++cur_win_;
        if (++scanned > buckets_.size()) {
            if (!calJumpToMin())
                return false;
            scanned = 0; // cur_win_ now holds a live entry's window
        }
    }
}

bool
EventQueue::peekNext(Entry& out)
{
    if (front_end_ == EventFrontEnd::Heap) {
        if (heap_.empty())
            return false;
        out = heap_.front();
        return true;
    }
    return calPeek(out);
}

void
EventQueue::collectCohortAt(TimeNs when, std::vector<Entry>& cohort)
{
    if (front_end_ == EventFrontEnd::Heap) {
        // Equal-timestamp entries pop in sequence order already.
        while (!heap_.empty() && heap_.front().when == when) {
            cohort.push_back(heap_.front());
            heapRemoveAt(0);
        }
        return;
    }
    // Same timestamp means same window means same bucket.
    peek_valid_ = false;
    const auto bucket_idx = static_cast<std::uint32_t>(
        windowOf(when) & (buckets_.size() - 1));
    auto& bucket = buckets_[bucket_idx];
    for (std::size_t i = 0; i < bucket.size();) {
        if (bucket[i].when == when) {
            cohort.push_back(bucket[i]);
            calRemoveAt(bucket_idx, i);
            continue; // another entry was swapped into position i
        }
        ++i;
    }
    std::sort(cohort.begin(), cohort.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
}

std::size_t
EventQueue::runCohorts(TimeNs until, bool bounded)
{
    std::size_t fired = 0;
    // Steal the scratch buffer so a handler that re-enters run()
    // (never done today, but harmless) gets a fresh one.
    std::vector<Entry> cohort = std::move(cohort_scratch_);
    Entry head{0.0, 0, 0, 0};
    while (peekNext(head)) {
        if (bounded && head.when > until)
            break;
        cohort.clear();
        collectCohortAt(head.when, cohort);
        now_ = head.when;
        // If a handler throws (sweep jobs legitimately propagate
        // ConfigError through run()), the not-yet-fired remainder of
        // the cohort goes back into the pending store so the queue
        // stays resumable — matching the pre-batching behavior where
        // unfired entries simply stayed queued.
        struct CohortGuard
        {
            EventQueue* queue;
            const std::vector<Entry>* cohort;
            std::size_t next = 0;
            bool armed = true;

            ~CohortGuard()
            {
                if (!armed)
                    return;
                for (std::size_t i = next; i < cohort->size(); ++i) {
                    const Entry& e = (*cohort)[i];
                    // Skip entries an earlier cohort member cancelled:
                    // re-pushing one would write back-pointers into a
                    // freed (possibly reallocated) slot.
                    if (!queue->entryStale(e))
                        queue->pushEntry(e);
                }
            }
        } cohort_guard{this, &cohort};
        for (std::size_t c = 0; c < cohort.size(); ++c) {
            const Entry& e = cohort[c];
            cohort_guard.next = c + 1;
            // Re-check liveness per event: an earlier cohort member's
            // handler may have cancelled this one.
            Slot& slot = slots_[e.slot];
            if (slot.invoke == nullptr || slot.generation != e.generation)
                continue;
            // Move the closure onto the stack before invoking: the
            // handler may schedule events, growing the slab and moving
            // the slot.
            alignas(std::max_align_t) unsigned char local[kInlineCapacity];
            auto* invoke = slot.invoke;
            auto* destroy = slot.destroy;
            slot.relocate(local, slot.storage);
            releaseSlot(e.slot);
            --live_events_;
            // Destroy the local copy even when the handler throws.
            struct Guard
            {
                void (*destroy)(void*);
                void* closure;
                ~Guard() { destroy(closure); }
            } guard{destroy, local};
            invoke(local);
            ++fired;
        }
        cohort_guard.armed = false;
    }
    cohort.clear();
    cohort_scratch_ = std::move(cohort);
    if (bounded && now_ < until)
        now_ = until;
    return fired;
}

std::size_t
EventQueue::run()
{
    return runCohorts(0.0, /*bounded=*/false);
}

std::size_t
EventQueue::runUntil(TimeNs until)
{
    return runCohorts(until, /*bounded=*/true);
}

void
EventQueue::rebaseToZero()
{
    THEMIS_ASSERT(live_events_ == 0,
                  "rebasing a queue with " << live_events_
                                           << " pending events");
    now_ = 0.0;
    // Neither front end stores an entry when the queue is empty
    // (cancel removes eagerly, firing removes on collection), so
    // rewinding the calendar's scan window suffices; the heap keeps
    // its storage for the next epoch.
    cur_win_ = 0;
    peek_valid_ = false;
}

void
EventQueue::reset()
{
    releaseAll();
    heap_.clear();
    slots_.clear();
    free_head_ = kNoSlot;
    now_ = 0.0;
    next_seq_ = 1;
    calInit();
    cohort_scratch_.clear();
}

} // namespace themis::sim
