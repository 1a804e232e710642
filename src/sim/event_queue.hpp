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
 *  - Calendar (default): a calendar queue (R. Brown, CACM '88) —
 *    entries hash into time buckets of adaptive width, and the
 *    monotone pop pattern of a simulation advances bucket by bucket,
 *    making schedule/pop amortized O(1). Bucket count and width
 *    re-adapt to the live event population, so bursty horizons and
 *    long idle gaps stay cheap, and an occupancy bit per bucket lets
 *    a pop skip empty buckets without touching them.
 *  - Heap: the classic binary heap, O(log n) per pop. Kept selectable
 *    so benches can measure the calendar front end against it in the
 *    same binary.
 *
 * Both front ends fire events in the identical (timestamp, sequence)
 * order, so simulation results are bit-identical across them. The run
 * loops pop whole same-timestamp cohorts at once: one front-end
 * search serves every event of that timestamp.
 */

#ifndef THEMIS_SIM_EVENT_QUEUE_HPP
#define THEMIS_SIM_EVENT_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace themis::sim {

/** Pending-event store implementation; see file comment. */
enum class EventFrontEnd {
    Calendar, ///< bucketed calendar queue, amortized O(1) monotone pops
    Heap,     ///< binary heap, O(log n) pops (measurement baseline)
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

    explicit EventQueue(EventFrontEnd front_end = EventFrontEnd::Calendar);
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
     * Cancel a pending event in O(1). Cancelling an already-fired or
     * unknown id is a harmless no-op (completion races are normal).
     */
    void cancel(EventId id);

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
         * Calendar back-pointer: bucket and position of this event's
         * pending entry, so cancel() removes it eagerly in O(1)
         * (kNoSlot bucket = not stored, e.g. already collected into a
         * firing cohort). Unused by the heap front end, which discards
         * cancelled entries lazily.
         */
        std::uint32_t cal_bucket = kNoSlot;
        std::uint32_t cal_pos = 0;
    };

    struct Entry
    {
        TimeNs when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t generation;
    };

    struct Later
    {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

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
    bool heapPeek(Entry& out);

    EventFrontEnd front_end_;
    TimeNs now_ = 0.0;
    std::uint64_t next_seq_ = 1;
    std::size_t live_events_ = 0;
    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNoSlot;

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;

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
