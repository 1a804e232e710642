/**
 * @file
 * Discrete-event simulation core.
 *
 * A single-threaded event queue with deterministic ordering: events
 * firing at the same timestamp run in scheduling order (FIFO by a
 * monotonic sequence number). Handlers may schedule or cancel further
 * events freely.
 *
 * Events live in a slab of fixed-size slots recycled through a free
 * list, so steady-state scheduling performs no heap allocation:
 * handlers whose closure fits kInlineCapacity bytes are constructed
 * in place inside the slot (larger ones fall back to a heap box).
 * Event ids are generation-tagged — an id encodes (slot, generation)
 * and a slot's generation bumps on every release — so cancellation is
 * O(1) and a stale id from a previous tenant of the slot can never
 * cancel the current one.
 *
 * Two pending-set front ends sit on top of the slab:
 *
 *  - Heap (default): an indexed binary heap in one flat vector. Each
 *    slot records its entry's heap position, so cancel() removes the
 *    entry eagerly in O(log n) — no tombstone ever sits in the heap —
 *    and retime() moves a stored event in place. With a handful of
 *    events pending (the median is 1 on a full-sim training
 *    iteration) a few compares beat the calendar's bucket scan; at
 *    ~20 pending the calendar pops faster, but the heap's in-place
 *    retime still makes the simulation as a whole no slower.
 *  - Calendar: a calendar queue (R. Brown, CACM '88) — entries hash
 *    into time buckets of adaptive width, and the monotone pop
 *    pattern of a simulation advances bucket by bucket, making
 *    schedule/pop amortized O(1). Bucket count and width re-adapt to
 *    the live event population, and an occupancy bit per bucket lets
 *    a pop skip empty buckets without touching them. It remains
 *    selectable only so perfbench can keep measuring it against the
 *    heap in the same binary; it goes once the benchmark stops naming
 *    it.
 *
 * Both front ends fire events in the identical (timestamp, sequence)
 * order, so simulation results are bit-identical across them. The run
 * loops pop whole same-timestamp cohorts at once: one front-end
 * search serves every event of that timestamp.
 *
 * retime() is the cheap form of cancel() + schedule() for a handler
 * whose deadline moved (a shared channel's next completion): the
 * event keeps its slot, closure and id, and takes a fresh sequence
 * number, so it orders exactly as the re-scheduled event would. Only
 * the heap implements it; on the calendar it always declines, and
 * callers fall back to cancel() + schedule().
 */

#ifndef THEMIS_SIM_EVENT_QUEUE_HPP
#define THEMIS_SIM_EVENT_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace themis::sim {

/** Pending-event store implementation; see file comment. */
enum class EventFrontEnd {
    Calendar, ///< bucketed calendar queue (measurement baseline)
    Heap,     ///< indexed binary heap, eager cancel (default)
};

/** Front-end name for reports ("calendar"/"heap"). */
const char* eventFrontEndName(EventFrontEnd front_end);

/**
 * Deterministic discrete-event queue.
 *
 * Time never moves backwards; scheduling in the past is an internal
 * error (panics). run() executes until the queue drains.
 */
class EventQueue
{
  public:
    /**
     * Opaque handle for cancellation: (slot+1) in the high 32 bits,
     * slot generation in the low 32. Id 0 is never issued.
     */
    using EventId = std::uint64_t;

    /** Closure bytes stored in place; larger handlers are boxed. */
    static constexpr std::size_t kInlineCapacity = 48;

    explicit EventQueue(EventFrontEnd front_end = EventFrontEnd::Heap);
    ~EventQueue() { releaseAll(); }

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Active pending-set front end (fixed at construction). */
    EventFrontEnd frontEnd() const { return front_end_; }

    /** Current simulated time in nanoseconds. */
    TimeNs now() const { return now_; }

    /**
     * Schedule @p handler (any void() callable) to run at absolute
     * time @p when (>= now()).
     * @return handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(TimeNs when, F&& handler)
    {
        THEMIS_ASSERT(when >= now_ - 1e-9,
                      "scheduling into the past: when=" << when
                                                        << " now=" << now_);
        using Fn = std::decay_t<F>;
        // Nullable callables (std::function, function pointers) fail
        // fast here instead of crashing inside the run loop later.
        if constexpr (std::is_constructible_v<bool, const Fn&>)
            THEMIS_ASSERT(static_cast<bool>(handler),
                          "null event handler");
        if constexpr (sizeof(Fn) <= kInlineCapacity &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            return emplaceEvent<Fn>(when, std::forward<F>(handler));
        } else {
            // Closure too big for a slot: one boxing allocation.
            return emplaceEvent<Boxed<Fn>>(
                when, Boxed<Fn>{std::make_unique<Fn>(
                          std::forward<F>(handler))});
        }
    }

    /** Schedule @p handler @p delay nanoseconds from now (delay >= 0). */
    template <typename F>
    EventId
    scheduleAfter(TimeNs delay, F&& handler)
    {
        THEMIS_ASSERT(delay >= 0.0, "negative delay " << delay);
        return schedule(now_ + delay, std::forward<F>(handler));
    }

    /**
     * Cancel a pending event; its entry leaves the pending store at
     * once. Cancelling an already-fired or unknown id is a harmless
     * no-op (completion races are normal).
     */
    void cancel(EventId id);

    /**
     * Move the stored event @p id to absolute time @p when (>= now())
     * in place, keeping its id and closure. It takes a fresh sequence
     * number, so it fires exactly where cancel(id) followed by
     * schedule(when, same handler) would.
     * @return false, changing nothing, when the event is not stored
     *         (fired, cancelled, stale, or already collected into the
     *         same-timestamp cohort now firing) and always on the
     *         calendar front end.
     */
    bool retime(EventId id, TimeNs when);

    /** True when no live (non-cancelled) events remain. */
    bool empty() const { return live_events_ == 0; }

    /** Number of live pending events. */
    std::size_t pendingCount() const { return live_events_; }

    /**
     * Run until the queue drains.
     * @return number of handlers executed.
     */
    std::size_t run();

    /**
     * Run events with timestamp <= @p until; afterwards now() ==
     * max(now, until) even if the queue drained earlier.
     * @return number of handlers executed.
     */
    std::size_t runUntil(TimeNs until);

    /** Drop all pending events and reset the clock to zero. */
    void reset();

    /**
     * Rebase the clock of an *empty* queue back to zero (asserts
     * emptiness). Unlike reset() this keeps the slab, the calendar
     * geometry and the sequence counter, so it is O(1) and the next
     * events schedule with warm storage. Iteration-epoch replay uses
     * this so every training iteration runs in the identical time
     * frame — the precondition for bit-identical steady-state
     * trajectories regardless of how much simulated time has passed.
     */
    void rebaseToZero();

  private:
    /** Heap indirection for closures beyond kInlineCapacity. */
    template <typename Fn>
    struct Boxed
    {
        std::unique_ptr<Fn> fn;
        void operator()() { (*fn)(); }
    };

    /**
     * One pooled event. `invoke` doubles as the liveness flag; the
     * closure lives in `storage`. Freed slots chain through
     * `next_free` and bump `generation` so stale ids miss.
     */
    struct Slot
    {
        alignas(std::max_align_t) unsigned char storage[kInlineCapacity];
        void (*invoke)(void*) = nullptr;
        /** Move-construct the closure into @p dst, destroy @p src. */
        void (*relocate)(void* dst, void* src) = nullptr;
        void (*destroy)(void*) = nullptr;
        std::uint32_t generation = 0;
        std::uint32_t next_free = kNoSlot;
        /**
         * Back-pointer to this event's pending entry, so cancel() and
         * retime() find it without a search: calendar bucket and
         * position, or (bucket 0) heap index. kNoSlot bucket = not
         * stored, e.g. already collected into a firing cohort.
         */
        std::uint32_t bucket = kNoSlot;
        std::uint32_t pos = 0;
    };

    struct Entry
    {
        TimeNs when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t generation;
    };

    /** Firing order: (timestamp, sequence). */
    static bool
    earlier(const Entry& a, const Entry& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    static EventId
    makeId(std::uint32_t slot, std::uint32_t generation)
    {
        return (static_cast<EventId>(slot) + 1) << 32 | generation;
    }

    template <typename Fn, typename Arg>
    EventId
    emplaceEvent(TimeNs when, Arg&& fn)
    {
        static_assert(sizeof(Fn) <= kInlineCapacity,
                      "closure does not fit an event slot");
        const std::uint32_t idx = allocSlot();
        Slot& slot = slots_[idx];
        ::new (static_cast<void*>(slot.storage)) Fn(std::forward<Arg>(fn));
        slot.invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
        slot.relocate = [](void* dst, void* src) {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
        };
        slot.destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
        pushEntry(Entry{when < now_ ? now_ : when, next_seq_++, idx,
                        slot.generation});
        ++live_events_;
        return makeId(idx, slot.generation);
    }

    std::uint32_t allocSlot();
    void releaseSlot(std::uint32_t idx);
    void releaseAll();

    /** True when the entry's event was cancelled or already fired. */
    bool
    entryStale(const Entry& e) const
    {
        const Slot& slot = slots_[e.slot];
        return slot.invoke == nullptr || slot.generation != e.generation;
    }

    void pushEntry(const Entry& e);
    /**
     * Locate the earliest live entry without removing it; caches its
     * position so an immediately following pop is O(1).
     * @return false when no live entries remain.
     */
    bool peekNext(Entry& out);
    /**
     * Remove every live entry with timestamp exactly @p when into
     * @p cohort, ordered by sequence number. Must follow a successful
     * peekNext() that returned this timestamp.
     */
    void collectCohortAt(TimeNs when, std::vector<Entry>& cohort);
    /** Shared run loop; fires whole same-timestamp cohorts at once. */
    std::size_t runCohorts(TimeNs until, bool bounded);

    // Calendar front end.
    std::uint64_t windowOf(TimeNs when) const;
    void calPush(const Entry& e);
    /** Append @p e to @p bucket_idx, maintaining the back-pointer. */
    void calPlace(std::uint32_t bucket_idx, const Entry& e);
    /** Swap-remove position @p pos of @p bucket_idx, fixing the moved
     *  entry's back-pointer and clearing the removed one's. */
    void calRemoveAt(std::uint32_t bucket_idx, std::size_t pos);
    bool calPeek(Entry& out);
    /** Relocate cur_win_ to the global minimum; false when empty. */
    bool calJumpToMin();
    /** Re-derive bucket count and width from the live population. */
    void calAdapt();
    /**
     * First occupied bucket at or after @p from, wrapping around the
     * year (requires cal_count_ > 0).
     */
    std::size_t calNextOccupied(std::size_t from) const;
    void calInit();

    // Heap front end.
    void heapPush(const Entry& e);
    /** Remove the entry at heap index @p pos. */
    void heapRemoveAt(std::size_t pos);
    /** Store @p e at heap index @p pos, fixing its back-pointer. */
    void heapPlace(std::size_t pos, const Entry& e);
    /** Restore heap order for the entry at @p pos; moves it up or
     *  down, whichever its key needs. */
    void heapFix(std::size_t pos);
    void heapSiftUp(std::size_t pos, Entry e);
    void heapSiftDown(std::size_t pos, Entry e);

    EventFrontEnd front_end_;
    TimeNs now_ = 0.0;
    std::uint64_t next_seq_ = 1;
    std::size_t live_events_ = 0;
    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNoSlot;

    /** Min-heap on (when, seq); no cancelled entry is ever stored. */
    std::vector<Entry> heap_;

    std::vector<std::vector<Entry>> buckets_;
    /**
     * One bit per bucket, set while the bucket holds an entry: the
     * sparse peek visits only occupied buckets and the dense scan
     * jumps straight over empty ones. buckets_.size() is a power of
     * two >= 64, so the words cover it exactly.
     */
    std::vector<std::uint64_t> occupied_;
    double width_ = 100.0;
    std::uint64_t cur_win_ = 0;   ///< window index being scanned
    /** Stored (live) entries: cancel() removes calendar entries
     *  eagerly, so no bucket entry ever outlives its slot — the
     *  invariant calRemoveAt's back-pointer fix relies on. */
    std::size_t cal_count_ = 0;
    bool peek_valid_ = false;
    std::size_t peek_bucket_ = 0;
    std::size_t peek_pos_ = 0;

    std::vector<Entry> cohort_scratch_;
};

} // namespace themis::sim

#endif // THEMIS_SIM_EVENT_QUEUE_HPP
