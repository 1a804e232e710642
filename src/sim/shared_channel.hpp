/**
 * @file
 * Processor-sharing bandwidth resource.
 *
 * Models one network dimension's aggregate per-NPU bandwidth as a
 * fluid server: all active transfers progress simultaneously, each
 * receiving a share of the capacity proportional to its *flow weight*
 * (ASTRA-sim's analytical backend uses the same fluid abstraction,
 * with equal shares). Latency phases of collective steps are NOT
 * modelled here — callers wait out fixed delays with plain timer
 * events and only occupy the channel for the byte-transfer part,
 * which is what lets concurrent chunks hide each other's step
 * latencies (paper Sec 4.3).
 *
 * Internally this is the standard *weighted* GPS virtual-time
 * formulation: the channel tracks the cumulative per-unit-weight
 * service V (in "virtual bytes" — bytes a weight-1 transfer active
 * since t0 would have received by now; V advances at capacity /
 * sum-of-active-weights). A transfer beginning at virtual time V with
 * B bytes and weight w finishes exactly when V reaches V + B/w, so
 * each transfer is keyed by its finish point in virtual time in a
 * min-heap. Advancing the clock updates one scalar (O(1));
 * begin/abort/completion touch only the heap (O(log n)) — nothing
 * ever iterates the active set. With every weight equal to 1 the
 * weight sum of n flows is exactly the integer n in double
 * precision, so each of n transfers runs at exactly capacity / n:
 * equal shares, with no special case.
 *
 * Because only differences (v_end - V) carry meaning, the channel
 * periodically *rebases* virtual time: once V exceeds 1e9 virtual
 * bytes it is subtracted from V and from every pending finish point,
 * keeping the drain epsilons above double-precision ulp no matter how
 * much cumulative service a long sweep accumulates. Rebasing shifts
 * finish points uniformly, so it is weight-agnostic by construction.
 *
 * Per-class accounting: every transfer carries a small non-negative
 * class index (a priority tier); the channel tracks progressed bytes
 * and busy time (>= 1 active transfer of the class) per class, which
 * is what the stats layer turns into per-class utilization columns.
 */

#ifndef THEMIS_SIM_SHARED_CHANNEL_HPP
#define THEMIS_SIM_SHARED_CHANNEL_HPP

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/small_vector.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"
#include "stats/telemetry/metrics.hpp"

namespace themis::sim {

/**
 * Fluid-model shared link implementing weighted processor sharing:
 * with active weights w_i each transfer runs at capacity * w_i /
 * sum(w_j).
 *
 * Also accumulates the statistics utilization tracking needs: total
 * and per-class progressed bytes and busy time.
 */
class SharedChannel
{
  public:
    /**
     * Handle for an in-flight transfer: (slot+1) in the high 32 bits,
     * slot generation in the low 32, like EventQueue::EventId. 0 is
     * never issued, and a stale id never reaches a slot's successor.
     */
    using TransferId = std::uint64_t;

    /** Invoked (at completion time) when a transfer's bytes drain. */
    using Callback = std::function<void()>;

    /**
     * Invoked when a transfer FAILS (link flap via failActive()); the
     * argument is the untransferred remainder in bytes. Partial
     * progress stays accounted in progressedBytes() — those wire
     * bytes really moved — and the caller is expected to retry the
     * whole transfer.
     */
    using FailCallback = std::function<void(Bytes remaining)>;

    /**
     * @param queue    event queue driving this channel
     * @param capacity aggregate bandwidth in bytes/ns (> 0)
     */
    SharedChannel(EventQueue& queue, Bandwidth capacity);

    SharedChannel(const SharedChannel&) = delete;
    SharedChannel& operator=(const SharedChannel&) = delete;

    /**
     * Begin transferring @p bytes at unit weight in class 0;
     * @p on_done fires when they drain. Zero-byte transfers complete
     * via an immediate (same-time) event.
     */
    TransferId begin(Bytes bytes, Callback on_done);

    /**
     * Begin transferring @p bytes at @p weight (> 0) in priority
     * class @p priority_class (>= 0, small).
     */
    TransferId begin(Bytes bytes, double weight, Callback on_done,
                     int priority_class = 0,
                     FailCallback on_fail = nullptr);

    /** Abort an in-flight transfer; its callback never fires. */
    void abort(TransferId id);

    /**
     * Step the channel capacity to @p bw (> 0) at time @p t (the
     * queue's current time). Progress is settled under the old
     * capacity up to @p t, then the virtual clock is rebased — the
     * same uniform finish-point shift as the periodic 1e9-vbyte
     * rebase — so drain epsilons stay anchored near zero across
     * arbitrarily many capacity steps. Finish points in virtual time
     * are capacity-independent, so exact byte conservation holds
     * across the step by construction; only completion ETAs change.
     */
    void setCapacity(TimeNs t, Bandwidth bw);

    /**
     * Fail every in-flight transfer (link flap): partial progress is
     * settled into the progress accounts, the untransferred remainder
     * is dropped, and each transfer's FailCallback fires (in begin
     * order) with that remainder. Every active transfer must have
     * been begun with a FailCallback (asserted) — flapping a link
     * whose users cannot retry is a wiring bug, not a scenario.
     * @return number of transfers failed.
     */
    std::size_t failActive();

    /** Number of currently active transfers. */
    std::size_t activeCount() const { return active_count_; }

    /** Configured capacity (bytes/ns). */
    Bandwidth capacity() const { return capacity_; }

    /**
     * True while the virtual clock sits at zero: the channel is as
     * freshly constructed or epoch-reset, so transfers begun now see
     * the same virtual-time arithmetic as on a new channel.
     */
    bool atVirtualOrigin() const { return vtime_ == 0.0; }

    /**
     * Total bytes progressed so far (including partial progress of
     * in-flight transfers), up to the last sync point. Call sync()
     * first when sampling at an arbitrary time.
     */
    Bytes progressedBytes() const { return progressed_bytes_; }

    /** Total time with at least one active transfer, up to last sync. */
    TimeNs busyTime() const { return busy_time_; }

    /**
     * One past the largest class index currently tracked (0 when no
     * class is). Retiring the top class lowers it, so dense
     * [0, numClasses()) iteration keeps working for single-workload
     * runs while long-lived multi-tenant runtimes stay bounded.
     */
    int numClasses() const;

    /** Class indices currently tracked, ascending (O(classes) sort). */
    std::vector<int> classIds() const;

    /** Number of classes currently tracked (O(active jobs) proof). */
    std::size_t trackedClassCount() const { return classes_.size(); }

    /**
     * Retire one class's accounting: its progressed/busy accumulators
     * are dropped so a runtime hosting job churn stays O(active jobs),
     * not O(all-ever-seen). Requires the class to be idle (asserts no
     * active transfer); a later begin() in the same class index simply
     * starts fresh accounts. No-op for a never-seen class.
     */
    void retireClass(int cls);

    /** Bytes progressed by class @p cls, up to last sync (0 if unseen). */
    Bytes classProgressedBytes(int cls) const;

    /** Time with >= 1 active class-@p cls transfer, up to last sync. */
    TimeNs classBusyTime(int cls) const;

    /** Largest concurrent transfer count seen so far. */
    std::size_t peakActiveCount() const { return peak_active_; }

    /** Bring progress accounting up to the queue's current time. */
    void sync() { advanceTo(queue_.now()); }

    /**
     * Iteration-epoch reset: rebase the channel clock to the queue's
     * (just-rebased) current time, zero the virtual clock and every
     * progress accumulator, and drop stale heap entries. Requires an
     * idle channel (asserts no active transfers). After this call the
     * channel's dynamic state is identical to a freshly constructed
     * one except for the transfer slab, next_seq_ and peak_active_,
     * none of which influences transfer timing — which is what makes
     * steady-state training iterations bit-identical and the
     * per-epoch progressed byte counters bit-stable across iterations.
     */
    void epochReset();

    /**
     * Publish this channel's progress accounting as gauges under
     * `<prefix>.` dotted names (telemetry snapshot; pure observer —
     * does not sync, so callers snapshot a consistent time).
     */
    void publishMetrics(stats::telemetry::MetricsRegistry& registry,
                        const std::string& prefix) const;

  private:
    /** Per-class aggregates; index = priority class. */
    struct ClassState
    {
        double weight_sum = 0.0;
        std::size_t active = 0;
        Bytes progressed = 0.0;
        TimeNs busy = 0.0;
    };

    /**
     * One pooled transfer. `live` marks an occupied slot; freed slots
     * chain through `next_free` and bump `generation`, so stale ids
     * and heap entries from a previous tenant miss. The finish point
     * lives solely in the heap's FinishEntry; the slot holds the
     * callbacks plus the flow parameters needed to settle accounts.
     * `cls_state` points into classes_ (unordered_map nodes never
     * move, and retireClass() requires an idle class).
     */
    struct Transfer
    {
        Callback on_done;
        FailCallback on_fail; ///< set when the caller can retry
        double weight = 1.0;
        ClassState* cls_state = nullptr;
        std::uint32_t generation = 0;
        std::uint32_t next_free = kNoSlot;
        bool live = false;
    };

    /**
     * Min-heap entry; ties in v_end break by seq (= begin order).
     * (slot, generation) names the transfer; a mismatched generation
     * marks an aborted (stale) entry.
     */
    struct FinishEntry
    {
        double v_end;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t generation;
    };

    struct FinishLater
    {
        bool
        operator()(const FinishEntry& a, const FinishEntry& b) const
        {
            if (a.v_end != b.v_end)
                return a.v_end > b.v_end;
            return a.seq > b.seq;
        }
    };

    /** A drained transfer's callback, keyed by begin order. */
    struct Drained
    {
        std::uint64_t seq;
        Callback on_done;
    };

    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    void advanceTo(TimeNs t);
    /**
     * Point the one pending completion event at the heap top's drain
     * time: retime it in place (EventQueue::retime), cancel it when
     * nothing is in flight, and schedule a fresh one only when
     * retime() declines.
     */
    void reschedule();
    void onCompletionEvent();
    /** True when @p e names a transfer that is still in flight. */
    bool
    entryLive(const FinishEntry& e) const
    {
        const Transfer& t = slots_[e.slot];
        return t.live && t.generation == e.generation;
    }
    /** Drop aborted entries off the heap top; true if a live one remains. */
    bool dropStaleTop();
    /** Shift vtime_ (and all finish points) back toward zero. */
    void maybeRebase();
    /** Unconditional variant, used at capacity steps. */
    void rebaseNow();
    void heapPush(FinishEntry entry);
    void heapPop();
    /** Virtual-time rate: capacity / total active weight. */
    double virtualRate() const { return capacity_ / weight_sum_; }
    /** Slot of the live transfer named by @p id, or kNoSlot. */
    std::uint32_t liveSlot(TransferId id) const;
    std::uint32_t allocSlot();
    /** Drop the callbacks, free the slot, remove its weight. */
    void release(std::uint32_t slot);

    EventQueue& queue_;
    Bandwidth capacity_;
    /** Transfer slab; steady state recycles slots, never allocates. */
    std::vector<Transfer> slots_;
    std::uint32_t free_head_ = kNoSlot;
    std::size_t active_count_ = 0;
    /**
     * Min-heap on (v_end, seq) via std::push_heap/pop_heap — a
     * contiguous buffer so virtual-time rebasing can shift every
     * pending finish point in one batch. Inline small-vector: a
     * dimension rarely carries more than a handful of concurrent
     * transfers, so rebase batches of <= 16 entries (the common
     * case by far) touch only inline storage and the channel never
     * heap-allocates for its pending set.
     */
    SmallVector<FinishEntry, 16> finish_heap_;
    double vtime_ = 0.0; // cumulative unit-weight service, virtual bytes
    /** Sum of active weights; exact (integer-valued) when weights are 1. */
    double weight_sum_ = 0.0;
    /**
     * Per-class accounts, keyed by class index. A hash map rather
     * than a dense vector: cluster jobs stride the class space
     * (accountingClass()), so after 1k short tenants churn through a
     * fabric a dense vector would hold thousands of dead entries and
     * every advanceTo() would walk them. retireClass() erases
     * departed tenants, keeping this O(active jobs).
     */
    std::unordered_map<int, ClassState> classes_;
    /**
     * Classes with >= 1 active transfer right now — the only ones
     * advanceTo() must touch. Each class's accumulators are advanced
     * independently, so the (insertion) order of this list cannot
     * affect any accounted value.
     */
    SmallVector<ClassState*, 8> busy_classes_;
    /** Reused by onCompletionEvent(): drained callbacks to invoke. */
    std::vector<Drained> drained_;
    std::uint64_t next_seq_ = 1;
    TimeNs last_update_ = 0.0;
    EventQueue::EventId pending_event_ = 0;
    Bytes progressed_bytes_ = 0.0;
    TimeNs busy_time_ = 0.0;
    std::size_t peak_active_ = 0;
};

} // namespace themis::sim

#endif // THEMIS_SIM_SHARED_CHANNEL_HPP
