/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism,
 * cancellation and bounded runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace themis::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(30.0, [&] { fired.push_back(3); });
    q.schedule(10.0, [&] { fired.push_back(1); });
    q.schedule(20.0, [&] { fired.push_back(2); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 30.0);
}

TEST(EventQueue, SameTimeFifoBySchedulingOrder)
{
    EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 10; ++i)
        q.schedule(5.0, [&fired, i] { fired.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, HandlersCanScheduleMore)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            q.scheduleAfter(10.0, chain);
    };
    q.scheduleAfter(0.0, chain);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_DOUBLE_EQ(q.now(), 40.0);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    bool fired = false;
    const auto id = q.schedule(10.0, [&] { fired = true; });
    q.cancel(id);
    EXPECT_TRUE(q.empty());
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop)
{
    EventQueue q;
    q.cancel(424242);
    SUCCEED();
}

TEST(EventQueue, CancelOneOfManyAtSameTime)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(5.0, [&] { fired.push_back(1); });
    const auto id = q.schedule(5.0, [&] { fired.push_back(2); });
    q.schedule(5.0, [&] { fired.push_back(3); });
    q.cancel(id);
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10.0, [&] { fired.push_back(1); });
    q.schedule(20.0, [&] { fired.push_back(2); });
    q.schedule(30.0, [&] { fired.push_back(3); });
    EXPECT_EQ(q.runUntil(20.0), 2u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(q.now(), 20.0);
    EXPECT_EQ(q.pendingCount(), 1u);
    q.run();
    EXPECT_EQ(fired.size(), 3u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue q;
    q.runUntil(500.0);
    EXPECT_DOUBLE_EQ(q.now(), 500.0);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue q;
    bool fired = false;
    q.schedule(10.0, [&] { fired = true; });
    q.runUntil(1.0);
    q.reset();
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100.0, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(50.0, [] {}), "past");
}

TEST(EventQueue, NegativeDelayPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.scheduleAfter(-1.0, [] {}), "negative");
}

TEST(EventQueue, ManyEventsStressDeterminism)
{
    EventQueue q;
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        q.schedule(static_cast<double>((i * 37) % 1000),
                   [&sum, i] { sum += i; });
    }
    EXPECT_EQ(q.run(), 10000u);
    EXPECT_DOUBLE_EQ(sum, 10000.0 * 9999.0 / 2.0);
}

TEST(EventQueue, StaleIdCannotCancelSlotSuccessor)
{
    // The slab recycles slots through a free list; a stale id from a
    // previous tenant must miss the current one (generation tag).
    EventQueue q;
    bool first = false, second = false;
    const auto id_first = q.schedule(10.0, [&] { first = true; });
    q.cancel(id_first); // frees the slot
    const auto id_second = q.schedule(20.0, [&] { second = true; });
    EXPECT_NE(id_first, id_second);
    q.cancel(id_first); // stale generation: must be a no-op
    EXPECT_EQ(q.pendingCount(), 1u);
    q.run();
    EXPECT_FALSE(first);
    EXPECT_TRUE(second);
}

TEST(EventQueue, FiredIdCannotCancelSlotSuccessor)
{
    EventQueue q;
    int fired = 0;
    const auto id_first = q.schedule(10.0, [&] { ++fired; });
    q.run(); // slot released by firing, not by cancel
    const auto id_second = q.schedule(20.0, [&] { ++fired; });
    EXPECT_NE(id_first, id_second);
    q.cancel(id_first);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, IdReuseAcrossManyGenerations)
{
    // Drive one slot through many alloc/cancel cycles; every issued id
    // must stay unique and cancellation must only ever hit its own
    // event.
    EventQueue q;
    std::vector<EventQueue::EventId> issued;
    for (int round = 0; round < 100; ++round) {
        bool fired = false;
        const auto id = q.schedule(10.0, [&fired] { fired = true; });
        for (const auto old : issued)
            EXPECT_NE(old, id);
        for (const auto old : issued)
            q.cancel(old); // all stale: no-ops
        EXPECT_EQ(q.pendingCount(), 1u);
        q.cancel(id);
        EXPECT_TRUE(q.empty());
        issued.push_back(id);
    }
    q.run();
}

TEST(EventQueue, LargeClosureFallsBackToBox)
{
    // Closures beyond the inline slot capacity take the boxed path;
    // behavior (ordering, cancellation) must be identical.
    EventQueue q;
    struct Big
    {
        double payload[16];
    };
    Big big{};
    big.payload[0] = 1.0;
    big.payload[15] = 2.0;
    static_assert(sizeof(Big) > EventQueue::kInlineCapacity);
    double seen = 0.0;
    q.schedule(5.0, [big, &seen] {
        seen = big.payload[0] + big.payload[15];
    });
    bool cancelled_fired = false;
    const auto id = q.schedule(
        6.0, [big, &cancelled_fired] { cancelled_fired = big.payload[0] > 0.0; });
    q.cancel(id);
    q.run();
    EXPECT_DOUBLE_EQ(seen, 3.0);
    EXPECT_FALSE(cancelled_fired);
}

TEST(EventQueue, HandlerSchedulingManyEventsKeepsClosureValid)
{
    // A handler that grows the slab (forcing slot storage to move)
    // must keep executing its own closure safely: the queue relocates
    // the closure out of the slab before invoking it.
    EventQueue q;
    std::vector<int> fired;
    q.schedule(1.0, [&] {
        for (int i = 0; i < 1000; ++i)
            q.schedule(2.0 + i, [&fired, i] { fired.push_back(i); });
        fired.push_back(-1);
    });
    q.run();
    ASSERT_EQ(fired.size(), 1001u);
    EXPECT_EQ(fired.front(), -1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(fired[static_cast<std::size_t>(i) + 1], i);
}

TEST(EventQueue, IdenticalRunsFireInIdenticalOrder)
{
    // Determinism contract: the same schedule/cancel sequence produces
    // the same firing order, run after run.
    auto drive = [] {
        EventQueue q;
        std::vector<int> order;
        std::vector<EventQueue::EventId> ids;
        for (int i = 0; i < 500; ++i) {
            ids.push_back(
                q.schedule(static_cast<double>((i * 131) % 97),
                           [&order, i] { order.push_back(i); }));
        }
        for (int i = 0; i < 500; i += 7)
            q.cancel(ids[static_cast<std::size_t>(i)]);
        q.run();
        return order;
    };
    const auto first = drive();
    const auto second = drive();
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
}

// ---------------------------------------------------------------------
// Calendar vs heap front-end equivalence. Both must fire events in the
// identical (timestamp, scheduling-order) sequence; the tests drive
// the same workload through both and compare the full firing traces.

/** (time, marker) trace of one workload under @p front_end. */
template <typename Drive>
std::vector<std::pair<TimeNs, int>>
traceOf(EventFrontEnd front_end, Drive&& drive)
{
    EventQueue q(front_end);
    std::vector<std::pair<TimeNs, int>> trace;
    drive(q, trace);
    return trace;
}

TEST(EventQueue, FrontEndsAgreeOnRandomizedWorkload)
{
    auto drive = [](EventQueue& q,
                    std::vector<std::pair<TimeNs, int>>& trace) {
        std::vector<EventQueue::EventId> ids;
        // Deterministic pseudo-random times with duplicates and wide
        // spread, plus a cancellation pattern.
        std::uint64_t state = 42;
        auto next = [&state] {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            return state >> 33;
        };
        for (int i = 0; i < 2000; ++i) {
            const double when =
                static_cast<double>(next() % 100000) * 0.5;
            ids.push_back(q.schedule(
                when, [&trace, &q, i] { trace.emplace_back(q.now(), i); }));
        }
        for (int i = 0; i < 2000; i += 3)
            q.cancel(ids[static_cast<std::size_t>(i)]);
        q.run();
    };
    const auto cal = traceOf(EventFrontEnd::Calendar, drive);
    const auto heap = traceOf(EventFrontEnd::Heap, drive);
    EXPECT_EQ(cal, heap);
    EXPECT_FALSE(cal.empty());

    // A population swinging between 1 and ~300 pending: each wave
    // fans a lone event out to 360 (every sixth cancelled) over a
    // spread that alternates by three orders of magnitude, then
    // drains back to the lone next-wave event. The calendar grows,
    // shrinks and re-fits its width every wave, so its occupancy bits
    // are rebuilt at both bucket counts and both scan paths run.
    auto swing = [](EventQueue& q,
                    std::vector<std::pair<TimeNs, int>>& trace) {
        std::uint64_t state = 7;
        auto next = [&state] {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            return state >> 33;
        };
        std::function<void(int)> wave = [&](int w) {
            trace.emplace_back(q.now(), -1 - w);
            if (w >= 8)
                return;
            const double spread = w % 2 == 0 ? 50.0 : 5.0e4;
            std::vector<EventQueue::EventId> ids;
            for (int i = 0; i < 360; ++i) {
                const int marker = w * 1000 + i;
                ids.push_back(q.scheduleAfter(
                    static_cast<double>(next() % 1000) * spread / 1000.0,
                    [&trace, &q, marker] {
                        trace.emplace_back(q.now(), marker);
                    }));
            }
            for (std::size_t i = 0; i < ids.size(); i += 6)
                q.cancel(ids[i]);
            q.scheduleAfter(2.0 * spread, [&wave, w] { wave(w + 1); });
        };
        q.schedule(0.0, [&wave] { wave(0); });
        q.run();
    };
    const auto cal_swing = traceOf(EventFrontEnd::Calendar, swing);
    const auto heap_swing = traceOf(EventFrontEnd::Heap, swing);
    EXPECT_EQ(cal_swing, heap_swing);
    EXPECT_EQ(cal_swing.size(), 9u + 8u * 300u);
}

TEST(EventQueue, FrontEndsAgreeWithHandlerRescheduling)
{
    auto drive = [](EventQueue& q,
                    std::vector<std::pair<TimeNs, int>>& trace) {
        // Handlers schedule follow-ups at the same and later times,
        // exercising mid-cohort insertion in both front ends.
        std::function<void(int)> chain = [&](int depth) {
            trace.emplace_back(q.now(), depth);
            if (depth >= 40)
                return;
            q.scheduleAfter(0.0, [&chain, depth] { chain(depth + 1); });
            q.scheduleAfter(static_cast<double>(depth * 13 % 7) * 25.0,
                            [&chain, depth] { chain(depth + 10); });
        };
        q.schedule(1.0, [&chain] { chain(0); });
        q.schedule(1.0, [&chain] { chain(1); });
        q.run();
    };
    const auto cal = traceOf(EventFrontEnd::Calendar, drive);
    const auto heap = traceOf(EventFrontEnd::Heap, drive);
    EXPECT_EQ(cal, heap);
    EXPECT_FALSE(cal.empty());
}

TEST(EventQueue, CalendarSparseFarApartEvents)
{
    // Exponentially growing gaps stress the year-wrap, jump-to-min
    // and width re-adaptation paths.
    EventQueue q(EventFrontEnd::Calendar);
    std::vector<int> order;
    double when = 1.0;
    for (int i = 0; i < 40; ++i) {
        q.schedule(when, [&order, i] { order.push_back(i); });
        when *= 2.5;
    }
    EXPECT_EQ(q.run(), 40u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CalendarDensePopulationTriggersResize)
{
    // Push far past the grow trigger, then drain; order must hold
    // through the re-bucketing.
    EventQueue q(EventFrontEnd::Calendar);
    std::vector<std::pair<TimeNs, int>> trace;
    for (int i = 0; i < 5000; ++i) {
        q.schedule(static_cast<double>((i * 911) % 1277),
                   [&trace, &q, i] { trace.emplace_back(q.now(), i); });
    }
    EXPECT_EQ(q.run(), 5000u);
    for (std::size_t i = 1; i < trace.size(); ++i) {
        EXPECT_LE(trace[i - 1].first, trace[i].first);
        if (trace[i - 1].first == trace[i].first) {
            EXPECT_LT(trace[i - 1].second, trace[i].second);
        }
    }
}

TEST(EventQueue, CohortMemberCanCancelLaterSameTimeEvent)
{
    // Same-timestamp events fire as one batched cohort; an earlier
    // member cancelling a later one must still suppress it.
    for (const auto fe : {EventFrontEnd::Calendar, EventFrontEnd::Heap}) {
        EventQueue q(fe);
        std::vector<int> fired;
        EventQueue::EventId victim = 0;
        q.schedule(5.0, [&] {
            fired.push_back(1);
            q.cancel(victim);
        });
        victim = q.schedule(5.0, [&] { fired.push_back(2); });
        q.schedule(5.0, [&] { fired.push_back(3); });
        q.run();
        EXPECT_EQ(fired, (std::vector<int>{1, 3}))
            << eventFrontEndName(fe);
    }
}

TEST(EventQueue, CohortHandlerSchedulesSameTimeEvent)
{
    // An event scheduled *at* the cohort's timestamp from inside it
    // fires after the cohort (FIFO by scheduling order) but before
    // any later-time event.
    for (const auto fe : {EventFrontEnd::Calendar, EventFrontEnd::Heap}) {
        EventQueue q(fe);
        std::vector<int> fired;
        q.schedule(5.0, [&] {
            fired.push_back(1);
            q.scheduleAfter(0.0, [&] { fired.push_back(9); });
        });
        q.schedule(5.0, [&] { fired.push_back(2); });
        q.schedule(6.0, [&] { fired.push_back(3); });
        q.run();
        EXPECT_EQ(fired, (std::vector<int>{1, 2, 9, 3}))
            << eventFrontEndName(fe);
    }
}

TEST(EventQueue, CalendarRunUntilBoundaryAndReset)
{
    EventQueue q(EventFrontEnd::Calendar);
    std::vector<int> fired;
    q.schedule(10.0, [&] { fired.push_back(1); });
    q.schedule(20.0, [&] { fired.push_back(2); });
    q.schedule(30.0, [&] { fired.push_back(3); });
    EXPECT_EQ(q.runUntil(20.0), 2u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(q.now(), 20.0);
    EXPECT_EQ(q.pendingCount(), 1u);
    q.reset();
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
    bool again = false;
    q.schedule(1.0, [&] { again = true; });
    q.run();
    EXPECT_TRUE(again);
    EXPECT_TRUE(fired.size() == 2);
}

TEST(EventQueue, ThrowingHandlerLeavesQueueResumable)
{
    // Sweep jobs propagate ConfigError through run(); the thrown
    // handler is consumed but the rest of its same-timestamp cohort
    // must stay pending so a caller can resume (or reset) the queue.
    for (const auto fe : {EventFrontEnd::Calendar, EventFrontEnd::Heap}) {
        EventQueue q(fe);
        std::vector<int> fired;
        EventQueue::EventId victim = 0;
        q.schedule(5.0, [&] {
            fired.push_back(1);
            q.cancel(victim); // cancelled mid-cohort, must stay dead
            throw std::runtime_error("boom");
        });
        q.schedule(5.0, [&] { fired.push_back(2); });
        victim = q.schedule(5.0, [&] { fired.push_back(4); });
        q.schedule(7.0, [&] { fired.push_back(3); });
        EXPECT_THROW(q.run(), std::runtime_error);
        EXPECT_EQ(q.pendingCount(), 2u) << eventFrontEndName(fe);
        q.run();
        EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}))
            << eventFrontEndName(fe);
        EXPECT_TRUE(q.empty());
    }
}

TEST(EventQueue, CalendarCancelChurnStaysConsistent)
{
    // The SharedChannel pattern: every completion cancels and
    // reschedules a pending event. Eager O(1) removal must keep the
    // store and counters consistent across thousands of churn cycles.
    EventQueue q(EventFrontEnd::Calendar);
    int fired = 0;
    EventQueue::EventId pending = 0;
    std::function<void()> step = [&] {
        ++fired;
        if (fired >= 3000)
            return;
        q.cancel(pending); // cancels an already-fired id: no-op
        pending = q.scheduleAfter(
            static_cast<double>(fired % 17) * 7.0 + 1.0, step);
        // Churn: schedule and immediately cancel a decoy.
        const auto decoy =
            q.scheduleAfter(5000.0, [] { FAIL() << "decoy fired"; });
        q.cancel(decoy);
    };
    q.schedule(0.0, step);
    q.run();
    EXPECT_EQ(fired, 3000);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingCount(), 0u);
}

// ---------------------------------------------------------------------
// Calendar cohort boundaries. The initial bucket width is 100 ns, so
// timestamps at exact multiples of 100 land precisely on a bucket
// edge: windowOf() must place them in the *following* window, and
// cancel/re-push churn during a same-timestamp cohort pop must not
// corrupt the back-pointers or the firing order.

TEST(EventQueue, CohortCancelExactlyOnBucketEdge)
{
    // The whole cohort sits on a bucket edge; the first member
    // cancels a later same-timestamp (same-edge) event and a
    // next-edge event mid-pop.
    for (const auto fe : {EventFrontEnd::Calendar, EventFrontEnd::Heap}) {
        EventQueue q(fe);
        std::vector<int> fired;
        EventQueue::EventId same_edge = 0, next_edge = 0;
        q.schedule(100.0, [&] {
            fired.push_back(1);
            q.cancel(same_edge);
            q.cancel(next_edge);
        });
        same_edge = q.schedule(100.0, [&] { fired.push_back(2); });
        q.schedule(100.0, [&] { fired.push_back(3); });
        next_edge = q.schedule(200.0, [&] { fired.push_back(4); });
        q.schedule(200.0, [&] { fired.push_back(5); });
        q.run();
        EXPECT_EQ(fired, (std::vector<int>{1, 3, 5}))
            << eventFrontEndName(fe);
        EXPECT_TRUE(q.empty());
    }
}

TEST(EventQueue, CohortRePushExactlyOnBucketEdge)
{
    // Mid-cohort, a handler cancels an edge event and immediately
    // re-pushes replacements at the same edge timestamp and at the
    // next edge — the cancel/re-push pattern of the shared channels,
    // pinned to bucket boundaries. Replacements at the cohort's own
    // timestamp fire after the current cohort (FIFO by scheduling
    // order); the next-edge replacement fires at its own time.
    auto drive = [](EventQueue& q,
                    std::vector<std::pair<TimeNs, int>>& trace) {
        EventQueue::EventId victim = 0;
        q.schedule(200.0, [&] {
            trace.emplace_back(q.now(), 1);
            q.cancel(victim);
            q.schedule(200.0,
                       [&] { trace.emplace_back(q.now(), 10); });
            q.schedule(300.0,
                       [&] { trace.emplace_back(q.now(), 11); });
        });
        victim = q.schedule(200.0,
                            [&] { trace.emplace_back(q.now(), 2); });
        q.schedule(200.0, [&] { trace.emplace_back(q.now(), 3); });
        q.schedule(300.0, [&] { trace.emplace_back(q.now(), 4); });
        q.run();
    };
    const auto cal = traceOf(EventFrontEnd::Calendar, drive);
    const auto heap = traceOf(EventFrontEnd::Heap, drive);
    EXPECT_EQ(cal, heap);
    const std::vector<std::pair<TimeNs, int>> expected{
        {200.0, 1}, {200.0, 3}, {200.0, 10}, {300.0, 4}, {300.0, 11}};
    EXPECT_EQ(cal, expected);
}

TEST(EventQueue, CohortCancelRePushChurnAcrossManyEdges)
{
    // Stress the interaction: every edge cohort cancels one of its
    // members and re-pushes onto the same edge and onto edges the
    // width-adaptation may have re-bucketed. Calendar and heap must
    // produce identical traces.
    auto drive = [](EventQueue& q,
                    std::vector<std::pair<TimeNs, int>>& trace) {
        std::vector<EventQueue::EventId> victims(64, 0);
        for (int e = 1; e <= 40; ++e) {
            const double edge = 100.0 * e;
            q.schedule(edge, [&q, &trace, &victims, e] {
                trace.emplace_back(q.now(), e);
                q.cancel(victims[static_cast<std::size_t>(e % 64)]);
                if (e % 3 == 0) {
                    // Same-edge re-push from inside the cohort.
                    q.scheduleAfter(0.0, [&q, &trace, e] {
                        trace.emplace_back(q.now(), 1000 + e);
                    });
                }
                // Re-push exactly two edges ahead.
                victims[static_cast<std::size_t>((e + 2) % 64)] =
                    q.schedule(q.now() + 200.0, [&q, &trace, e] {
                        trace.emplace_back(q.now(), 2000 + e);
                    });
            });
            q.schedule(edge, [&q, &trace, e] {
                trace.emplace_back(q.now(), 100 + e);
            });
        }
        q.run();
    };
    const auto cal = traceOf(EventFrontEnd::Calendar, drive);
    const auto heap = traceOf(EventFrontEnd::Heap, drive);
    EXPECT_EQ(cal, heap);
    EXPECT_FALSE(cal.empty());
}

TEST(EventQueue, RebaseToZeroRestartsTheClock)
{
    for (const auto fe : {EventFrontEnd::Calendar, EventFrontEnd::Heap}) {
        EventQueue q(fe);
        std::vector<std::pair<TimeNs, int>> trace;
        q.schedule(150.0, [&] { trace.emplace_back(q.now(), 1); });
        const auto cancelled =
            q.schedule(900.0, [&] { trace.emplace_back(q.now(), -1); });
        q.cancel(cancelled);
        q.run();
        q.rebaseToZero();
        EXPECT_DOUBLE_EQ(q.now(), 0.0);
        // The rebased frame replays identically: same times, FIFO
        // order preserved, stale pre-rebase entries inert.
        q.schedule(150.0, [&] { trace.emplace_back(q.now(), 2); });
        q.schedule(150.0, [&] { trace.emplace_back(q.now(), 3); });
        q.run();
        const std::vector<std::pair<TimeNs, int>> expected{
            {150.0, 1}, {150.0, 2}, {150.0, 3}};
        EXPECT_EQ(trace, expected) << eventFrontEndName(fe);
        EXPECT_TRUE(q.empty());
    }
}

} // namespace
} // namespace themis::sim
