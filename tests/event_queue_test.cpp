/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism,
 * cancellation and bounded runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace themis::sim {
namespace {

/** Every generic case runs once per pending-set front end. */
class EventQueueFrontEnds : public ::testing::TestWithParam<EventFrontEnd>
{
};

INSTANTIATE_TEST_SUITE_P(
    BothFrontEnds, EventQueueFrontEnds,
    ::testing::Values(EventFrontEnd::Heap, EventFrontEnd::Calendar),
    [](const ::testing::TestParamInfo<EventFrontEnd>& info) {
        return std::string(eventFrontEndName(info.param));
    });

TEST_P(EventQueueFrontEnds, RunsInTimeOrder)
{
    EventQueue q(GetParam());
    std::vector<int> fired;
    q.schedule(30.0, [&] { fired.push_back(3); });
    q.schedule(10.0, [&] { fired.push_back(1); });
    q.schedule(20.0, [&] { fired.push_back(2); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 30.0);
}

TEST_P(EventQueueFrontEnds, SameTimeFifoBySchedulingOrder)
{
    EventQueue q(GetParam());
    std::vector<int> fired;
    for (int i = 0; i < 10; ++i)
        q.schedule(5.0, [&fired, i] { fired.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST_P(EventQueueFrontEnds, HandlersCanScheduleMore)
{
    EventQueue q(GetParam());
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

TEST_P(EventQueueFrontEnds, CancelPreventsFiring)
{
    EventQueue q(GetParam());
    bool fired = false;
    const auto id = q.schedule(10.0, [&] { fired = true; });
    q.cancel(id);
    EXPECT_TRUE(q.empty());
    q.run();
    EXPECT_FALSE(fired);
}

TEST_P(EventQueueFrontEnds, CancelUnknownIdIsNoop)
{
    EventQueue q(GetParam());
    q.cancel(424242);
    SUCCEED();
}

TEST_P(EventQueueFrontEnds, CancelOneOfManyAtSameTime)
{
    EventQueue q(GetParam());
    std::vector<int> fired;
    q.schedule(5.0, [&] { fired.push_back(1); });
    const auto id = q.schedule(5.0, [&] { fired.push_back(2); });
    q.schedule(5.0, [&] { fired.push_back(3); });
    q.cancel(id);
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST_P(EventQueueFrontEnds, RunUntilStopsAtBoundary)
{
    EventQueue q(GetParam());
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

TEST_P(EventQueueFrontEnds, RunUntilAdvancesClockWhenIdle)
{
    EventQueue q(GetParam());
    q.runUntil(500.0);
    EXPECT_DOUBLE_EQ(q.now(), 500.0);
}

TEST_P(EventQueueFrontEnds, ResetClearsEverything)
{
    EventQueue q(GetParam());
    bool fired = false;
    q.schedule(10.0, [&] { fired = true; });
    q.runUntil(1.0);
    q.reset();
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
    q.run();
    EXPECT_FALSE(fired);
}

TEST_P(EventQueueFrontEnds, SchedulingInThePastPanics)
{
    EventQueue q(GetParam());
    q.schedule(100.0, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(50.0, [] {}), "past");
}

TEST_P(EventQueueFrontEnds, NegativeDelayPanics)
{
    EventQueue q(GetParam());
    EXPECT_DEATH(q.scheduleAfter(-1.0, [] {}), "negative");
}

TEST_P(EventQueueFrontEnds, ManyEventsStressDeterminism)
{
    EventQueue q(GetParam());
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        q.schedule(static_cast<double>((i * 37) % 1000),
                   [&sum, i] { sum += i; });
    }
    EXPECT_EQ(q.run(), 10000u);
    EXPECT_DOUBLE_EQ(sum, 10000.0 * 9999.0 / 2.0);
}

TEST_P(EventQueueFrontEnds, StaleIdCannotCancelSlotSuccessor)
{
    // The slab recycles slots through a free list; a stale id from a
    // previous tenant must miss the current one (generation tag).
    EventQueue q(GetParam());
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

TEST_P(EventQueueFrontEnds, FiredIdCannotCancelSlotSuccessor)
{
    EventQueue q(GetParam());
    int fired = 0;
    const auto id_first = q.schedule(10.0, [&] { ++fired; });
    q.run(); // slot released by firing, not by cancel
    const auto id_second = q.schedule(20.0, [&] { ++fired; });
    EXPECT_NE(id_first, id_second);
    q.cancel(id_first);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST_P(EventQueueFrontEnds, IdReuseAcrossManyGenerations)
{
    // Drive one slot through many alloc/cancel cycles; every issued id
    // must stay unique and cancellation must only ever hit its own
    // event.
    EventQueue q(GetParam());
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

TEST_P(EventQueueFrontEnds, LargeClosureFallsBackToBox)
{
    // Closures beyond the inline slot capacity take the boxed path;
    // behavior (ordering, cancellation) must be identical.
    EventQueue q(GetParam());
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

TEST_P(EventQueueFrontEnds, HandlerSchedulingManyEventsKeepsClosureValid)
{
    // A handler that grows the slab (forcing slot storage to move)
    // must keep executing its own closure safely: the queue relocates
    // the closure out of the slab before invoking it.
    EventQueue q(GetParam());
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

TEST_P(EventQueueFrontEnds, IdenticalRunsFireInIdenticalOrder)
{
    // Determinism contract: the same schedule/cancel sequence produces
    // the same firing order, run after run.
    auto drive = [fe = GetParam()] {
        EventQueue q(fe);
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

TEST_P(EventQueueFrontEnds, CohortMemberCanCancelLaterSameTimeEvent)
{
    // Same-timestamp events fire as one batched cohort; an earlier
    // member cancelling a later one must still suppress it.
    EventQueue q(GetParam());
    std::vector<int> fired;
    EventQueue::EventId victim = 0;
    q.schedule(5.0, [&] {
        fired.push_back(1);
        q.cancel(victim);
    });
    victim = q.schedule(5.0, [&] { fired.push_back(2); });
    q.schedule(5.0, [&] { fired.push_back(3); });
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST_P(EventQueueFrontEnds, CohortHandlerSchedulesSameTimeEvent)
{
    // An event scheduled *at* the cohort's timestamp from inside it
    // fires after the cohort (FIFO by scheduling order) but before
    // any later-time event.
    EventQueue q(GetParam());
    std::vector<int> fired;
    q.schedule(5.0, [&] {
        fired.push_back(1);
        q.scheduleAfter(0.0, [&] { fired.push_back(9); });
    });
    q.schedule(5.0, [&] { fired.push_back(2); });
    q.schedule(6.0, [&] { fired.push_back(3); });
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 9, 3}));
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

TEST_P(EventQueueFrontEnds, ThrowingHandlerLeavesQueueResumable)
{
    // Sweep jobs propagate ConfigError through run(); the thrown
    // handler is consumed but the rest of its same-timestamp cohort
    // must stay pending so a caller can resume (or reset) the queue.
    EventQueue q(GetParam());
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
    EXPECT_EQ(q.pendingCount(), 2u);
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

/**
 * Schedule copies of @p count (which references a token) to fire, be
 * cancelled and still be pending at destruction, and @p thrower to
 * throw, checking after each step that exactly the closures still
 * stored hold a reference: a leaked closure keeps the count high, a
 * double destruction drives it low (and trips ASan).
 */
template <typename Count, typename Thrower>
void
checkClosureLifetimes(EventFrontEnd front_end,
                      const std::shared_ptr<int>& token, Count count,
                      Thrower thrower)
{
    const long held = token.use_count(); // ours: count and thrower
    {
        EventQueue q(front_end);
        q.schedule(1.0, count);                     // fires
        q.schedule(2.0, thrower);                   // throws
        const auto cancelled = q.schedule(3.0, count);
        q.schedule(4.0, count);                     // outlives run()
        EXPECT_EQ(token.use_count(), held + 4);
        q.runUntil(1.0);
        EXPECT_EQ(token.use_count(), held + 3);
        EXPECT_THROW(q.run(), std::runtime_error);
        EXPECT_EQ(token.use_count(), held + 2);
        q.cancel(cancelled);
        EXPECT_EQ(token.use_count(), held + 1);
        EXPECT_EQ(q.pendingCount(), 1u);
    }
    EXPECT_EQ(token.use_count(), held);
}

TEST_P(EventQueueFrontEnds, ClosureDestroyedExactlyOnceOnEveryPath)
{
    auto token = std::make_shared<int>(0);
    checkClosureLifetimes(
        GetParam(), token, [token] { ++*token; },
        [token] { throw std::runtime_error("boom"); });
    // The same paths for closures too big for a slot (boxed).
    struct Pad
    {
        double bytes[8];
    };
    static_assert(sizeof(Pad) > EventQueue::kInlineCapacity);
    const Pad pad{};
    checkClosureLifetimes(
        GetParam(), token,
        [token, pad] { *token += 1 + static_cast<int>(pad.bytes[0]); },
        [token, pad] {
            (void)pad;
            throw std::runtime_error("boom");
        });
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 2);
}

TEST_P(EventQueueFrontEnds, CancelChurnStaysConsistent)
{
    // The SharedChannel pattern: every completion cancels and
    // reschedules a pending event. Eager removal must keep the store
    // and counters consistent across thousands of churn cycles.
    EventQueue q(GetParam());
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

TEST_P(EventQueueFrontEnds, CohortCancelExactlyOnBucketEdge)
{
    // The whole cohort sits on a bucket edge; the first member
    // cancels a later same-timestamp (same-edge) event and a
    // next-edge event mid-pop.
    EventQueue q(GetParam());
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
    EXPECT_EQ(fired, (std::vector<int>{1, 3, 5}));
    EXPECT_TRUE(q.empty());
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

TEST_P(EventQueueFrontEnds, RebaseToZeroRestartsTheClock)
{
    EventQueue q(GetParam());
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
    EXPECT_EQ(trace, expected);
    EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------
// retime(): an in-place cancel + schedule, on the heap front end.

TEST(EventQueue, RetimeOrdersAsRescheduled)
{
    // A retimed event takes a fresh sequence number: moved onto a
    // timestamp that already holds events, it fires after them. It
    // keeps its id, so a later cancel still reaches it.
    EventQueue q(EventFrontEnd::Heap);
    std::vector<std::pair<TimeNs, int>> trace;
    auto mark = [&q, &trace](int m) {
        return [&q, &trace, m] { trace.emplace_back(q.now(), m); };
    };
    const auto a = q.schedule(10.0, mark(1));
    q.schedule(20.0, mark(2));
    q.schedule(20.0, mark(3));
    const auto d = q.schedule(30.0, mark(4));
    const auto e = q.schedule(40.0, mark(5));
    EXPECT_TRUE(q.retime(a, 20.0)); // later, onto a tie
    EXPECT_TRUE(q.retime(e, 5.0));  // earlier
    EXPECT_TRUE(q.retime(d, 50.0));
    EXPECT_TRUE(q.retime(d, 35.0)); // twice
    EXPECT_EQ(q.pendingCount(), 5u);
    q.schedule(35.0, mark(6));
    q.cancel(a);
    q.run();
    const std::vector<std::pair<TimeNs, int>> expected{
        {5.0, 5}, {20.0, 2}, {20.0, 3}, {35.0, 4}, {35.0, 6}};
    EXPECT_EQ(trace, expected);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RetimeTraceMatchesCancelAndSchedule)
{
    // Eight timers whose deadlines handlers keep moving (the shared
    // channel's completion event, times eight), plus one-shot events,
    // on a coarse time grid so same-timestamp ties are the norm. One
    // run moves a deadline with cancel + schedule, the other with
    // retime (falling back to cancel + schedule when the event is
    // already in the firing cohort); the (time, marker) traces must
    // match exactly.
    auto drive = [](bool use_retime) {
        EventQueue q(EventFrontEnd::Heap);
        std::vector<std::pair<TimeNs, int>> trace;
        std::vector<EventQueue::EventId> timer(8, 0);
        std::uint64_t state = 2024;
        auto next = [&state] {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            return state >> 33;
        };
        std::size_t retimed = 0;
        std::function<void(int)> fire;
        auto move = [&](int k, TimeNs when) {
            auto& id = timer[static_cast<std::size_t>(k)];
            if (use_retime && id != 0 && q.retime(id, when)) {
                ++retimed;
                return;
            }
            q.cancel(id);
            id = q.schedule(when, [&fire, k] { fire(k); });
        };
        int budget = 4000;
        fire = [&](int k) {
            trace.emplace_back(q.now(), k);
            timer[static_cast<std::size_t>(k)] = 0;
            if (--budget <= 0)
                return;
            move(k, q.now() + 10.0 * static_cast<double>(1 + next() % 4));
            const int moves = static_cast<int>(next() % 4);
            for (int m = 0; m < moves; ++m)
                move(static_cast<int>(next() % 8),
                     q.now() + 10.0 * static_cast<double>(next() % 4));
            if (next() % 3 == 0) {
                const int marker = 100 + static_cast<int>(next() % 100);
                q.scheduleAfter(10.0 * static_cast<double>(next() % 3),
                                [&q, &trace, marker] {
                                    trace.emplace_back(q.now(), marker);
                                });
            }
        };
        for (int k = 0; k < 8; ++k)
            move(k, 10.0 * static_cast<double>(k % 3));
        q.run();
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(retimed > 0, use_retime);
        return trace;
    };
    const auto rescheduled = drive(false);
    const auto retimed = drive(true);
    EXPECT_EQ(retimed, rescheduled);
    EXPECT_GT(rescheduled.size(), 1000u);
}

TEST(EventQueue, RetimeOfCohortMemberReturnsFalse)
{
    // A same-timestamp event already collected into the firing cohort
    // is no longer stored: retime() refuses it and it fires as
    // scheduled.
    EventQueue q(EventFrontEnd::Heap);
    std::vector<int> fired;
    EventQueue::EventId member = 0;
    bool refused = false;
    q.schedule(5.0, [&] {
        fired.push_back(1);
        refused = !q.retime(member, 9.0);
    });
    member = q.schedule(5.0, [&] { fired.push_back(2); });
    q.schedule(7.0, [&] { fired.push_back(3); });
    q.run();
    EXPECT_TRUE(refused);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 7.0);
}

TEST(EventQueue, RetimeOfDeadIdReturnsFalse)
{
    EventQueue q(EventFrontEnd::Heap);
    int fired = 0;
    const auto done = q.schedule(1.0, [&] { ++fired; });
    q.run();
    EXPECT_FALSE(q.retime(done, 5.0)); // fired
    const auto cancelled = q.schedule(2.0, [&] { ++fired; });
    q.cancel(cancelled);
    EXPECT_FALSE(q.retime(cancelled, 5.0)); // cancelled
    // The successor in the cancelled event's slot must not move.
    const auto successor = q.schedule(3.0, [&] { ++fired; });
    EXPECT_NE(successor, cancelled);
    EXPECT_FALSE(q.retime(cancelled, 9.0)); // stale
    EXPECT_FALSE(q.retime(0, 5.0));
    EXPECT_FALSE(q.retime(424242ull << 32, 5.0));
    EXPECT_EQ(q.pendingCount(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, CalendarRetimeDeclines)
{
    // The calendar never moves an event in place; the event stays
    // where it was scheduled, for the caller to cancel + reschedule.
    EventQueue q(EventFrontEnd::Calendar);
    std::vector<int> fired;
    const auto a = q.schedule(10.0, [&] { fired.push_back(1); });
    q.schedule(20.0, [&] { fired.push_back(2); });
    EXPECT_FALSE(q.retime(a, 30.0));
    EXPECT_EQ(q.pendingCount(), 2u);
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(q.now(), 20.0);
}

} // namespace
} // namespace themis::sim
