/**
 * @file
 * Unit tests for the processor-sharing channel: serialization delay,
 * fair sharing, aborts and statistics accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hpp"
#include "sim/shared_channel.hpp"

namespace themis::sim {
namespace {

TEST(SharedChannel, SingleTransferTakesBytesOverBandwidth)
{
    EventQueue q;
    SharedChannel ch(q, 100.0); // 100 GB/s
    TimeNs done_at = -1.0;
    ch.begin(1.0e6, [&] { done_at = q.now(); }); // 1 MB
    q.run();
    EXPECT_DOUBLE_EQ(done_at, 1.0e4); // 10 us
}

TEST(SharedChannel, ZeroByteTransferCompletesImmediately)
{
    EventQueue q;
    SharedChannel ch(q, 10.0);
    bool done = false;
    ch.begin(0.0, [&] { done = true; });
    q.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(SharedChannel, TwoEqualTransfersShareBandwidth)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    TimeNs t1 = -1.0, t2 = -1.0;
    ch.begin(1.0e6, [&] { t1 = q.now(); });
    ch.begin(1.0e6, [&] { t2 = q.now(); });
    q.run();
    // Each gets 50 GB/s: both finish at 20 us.
    EXPECT_DOUBLE_EQ(t1, 2.0e4);
    EXPECT_DOUBLE_EQ(t2, 2.0e4);
}

TEST(SharedChannel, ShorterTransferFinishesFirstThenRateRises)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    TimeNs t_small = -1.0, t_big = -1.0;
    ch.begin(2.0e6, [&] { t_big = q.now(); });
    ch.begin(1.0e6, [&] { t_small = q.now(); });
    q.run();
    // Shared until the small one drains: it needs 1MB at 50 GB/s ->
    // 20 us. The big one then has 1MB left at full rate -> +10 us.
    EXPECT_DOUBLE_EQ(t_small, 2.0e4);
    EXPECT_DOUBLE_EQ(t_big, 3.0e4);
}

TEST(SharedChannel, LateArrivalSharesRemainder)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    TimeNs t1 = -1.0, t2 = -1.0;
    ch.begin(2.0e6, [&] { t1 = q.now(); });
    q.schedule(1.0e4, [&] { ch.begin(0.5e6, [&] { t2 = q.now(); }); });
    q.run();
    // First runs alone for 10 us (1MB done). Then both share: second
    // needs 0.5MB at 50 GB/s = 10 us -> t2 = 20 us; first finishes its
    // last 0.5MB partly shared, partly alone:
    //   at t2 it has 1MB - 0.5MB = 0.5MB left, full rate -> 25 us.
    EXPECT_DOUBLE_EQ(t2, 2.0e4);
    EXPECT_DOUBLE_EQ(t1, 2.5e4);
}

TEST(SharedChannel, AbortFreesBandwidth)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    TimeNs t1 = -1.0;
    bool aborted_fired = false;
    ch.begin(1.0e6, [&] { t1 = q.now(); });
    const auto id = ch.begin(1.0e6, [&] { aborted_fired = true; });
    q.schedule(1.0e4, [&] { ch.abort(id); });
    q.run();
    EXPECT_FALSE(aborted_fired);
    // Shared for 10 us (0.5MB done), then full rate for 0.5MB (5 us).
    EXPECT_DOUBLE_EQ(t1, 1.5e4);
}

TEST(SharedChannel, CallbackCanStartNextTransfer)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    TimeNs t2 = -1.0;
    ch.begin(1.0e6, [&] {
        ch.begin(1.0e6, [&] { t2 = q.now(); });
    });
    q.run();
    EXPECT_DOUBLE_EQ(t2, 2.0e4);
}

TEST(SharedChannel, ProgressedBytesAccumulate)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    ch.begin(1.0e6, [] {});
    ch.begin(2.0e6, [] {});
    q.run();
    ch.sync();
    EXPECT_NEAR(ch.progressedBytes(), 3.0e6, 1.0);
}

TEST(SharedChannel, PartialProgressVisibleAfterSync)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    ch.begin(2.0e6, [] {});
    q.runUntil(1.0e4); // halfway
    ch.sync();
    EXPECT_NEAR(ch.progressedBytes(), 1.0e6, 1.0);
}

TEST(SharedChannel, ProgressExcludesIdleGaps)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    ch.begin(1.0e6, [] {});              // busy [0, 10us]
    q.schedule(5.0e4, [&] {              // idle [10us, 50us]
        ch.begin(1.0e6, [] {});          // busy [50us, 60us]
    });
    q.run();
    ch.sync();
    // Capacity x busy time (20 us), not x elapsed time (60 us).
    EXPECT_NEAR(ch.progressedBytes(), 100.0 * 2.0e4, 1.0);
    EXPECT_NEAR(q.now(), 6.0e4, 1e-6);
}

TEST(SharedChannel, SimultaneousCompletions)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    int done = 0;
    for (int i = 0; i < 4; ++i)
        ch.begin(1.0e6, [&] { ++done; });
    q.run();
    EXPECT_EQ(done, 4);
    // Four equal transfers at quarter rate all end at 40 us.
    EXPECT_DOUBLE_EQ(q.now(), 4.0e4);
}

TEST(SharedChannel, ManyStaggeredTransfersConserveBytes)
{
    EventQueue q;
    SharedChannel ch(q, 7.5);
    double expected = 0.0;
    for (int i = 0; i < 50; ++i) {
        const double bytes = 1000.0 * (i + 1);
        expected += bytes;
        q.schedule(137.0 * i, [&ch, bytes] { ch.begin(bytes, [] {}); });
    }
    q.run();
    ch.sync();
    EXPECT_NEAR(ch.progressedBytes(), expected, 1.0);
}

TEST(SharedChannel, ConcurrentTransfersFinishAtProcessorSharingTimes)
{
    // n transfers of sizes s_k = 1000 (k + 1) all begin at t = 0. Under
    // processor sharing the k-th finishes once every survivor has moved
    // s_k bytes, so t_k = t_{k-1} + (s_k - s_{k-1}) (n - k) / capacity.
    for (const int n : {16, 1000}) {
        EventQueue q;
        const Bandwidth capacity = 100.0;
        SharedChannel ch(q, capacity);
        std::vector<TimeNs> done_at(static_cast<std::size_t>(n), -1.0);
        for (int k = 0; k < n; ++k) {
            ch.begin(1000.0 * (k + 1), [&q, &done_at, k] {
                done_at[static_cast<std::size_t>(k)] = q.now();
            });
        }
        q.run();
        EXPECT_EQ(ch.peakActiveCount(), static_cast<std::size_t>(n));
        TimeNs expected = 0.0;
        for (int k = 0; k < n; ++k) {
            expected += 1000.0 * (n - k) / capacity;
            EXPECT_NEAR(done_at[static_cast<std::size_t>(k)], expected,
                        1e-9 * expected)
                << "transfer " << k << " of " << n;
        }
        ch.sync();
        EXPECT_NEAR(ch.progressedBytes(), 500.0 * n * (n + 1.0),
                    1e-9 * 500.0 * n * (n + 1.0));
    }
}

TEST(SharedChannel, ForcedDrainConservesBytesExactly)
{
    // Two transfers whose sizes differ by a sub-sliver amount: after
    // the first drains, the second's remainder moves in under
    // kTimeSliver and takes the forced-drain path. Conservation must
    // hold exactly — the residual is credited once, never twice.
    EventQueue q;
    SharedChannel ch(q, 100.0);
    int done = 0;
    const Bytes a = 1.0e6;
    const Bytes b = 1.0e6 + 1.0e-5; // residual far below the sliver
    ch.begin(a, [&] { ++done; });
    ch.begin(b, [&] { ++done; });
    q.run();
    EXPECT_EQ(done, 2);
    ch.sync();
    EXPECT_NEAR(ch.progressedBytes(), a + b, 1e-6);
    EXPECT_EQ(ch.activeCount(), 0u);
}

TEST(SharedChannel, ConservationSumProgressedEqualsSumBegun)
{
    // Sum of progressed bytes == sum of begun bytes once everything
    // drains, across a mix of sizes chosen to exercise simultaneous
    // completions, forced drains and rate changes.
    EventQueue q;
    SharedChannel ch(q, 13.0);
    double begun = 0.0;
    int done = 0, expected_done = 0;
    for (int i = 0; i < 200; ++i) {
        const double bytes =
            (i % 7 == 0) ? 5000.0 : 997.0 * (i % 13) + 0.125 * i;
        begun += bytes;
        ++expected_done;
        q.schedule(41.0 * (i % 17),
                   [&ch, &done, bytes] { ch.begin(bytes, [&done] { ++done; }); });
    }
    q.run();
    ch.sync();
    EXPECT_EQ(done, expected_done);
    EXPECT_NEAR(ch.progressedBytes(), begun, 1e-3);
}

TEST(SharedChannel, AbortFromInsideCompletionCallback)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    SharedChannel::TransferId victim = 0;
    bool victim_fired = false;
    TimeNs t_survivor = -1.0;
    ch.begin(1.0e6, [&] { ch.abort(victim); });
    victim = ch.begin(3.0e6, [&] { victim_fired = true; });
    ch.begin(2.0e6, [&] { t_survivor = q.now(); });
    q.run();
    EXPECT_FALSE(victim_fired);
    // All three share until 1MB drains at t = 30us (rate 100/3). The
    // abort then leaves the survivor's last 1MB alone at full rate:
    // +10us.
    EXPECT_DOUBLE_EQ(t_survivor, 4.0e4);
    EXPECT_EQ(ch.activeCount(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(SharedChannel, BeginFromInsideCallbackJoinsSharing)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    TimeNs t_spawned = -1.0, t_old = -1.0;
    ch.begin(1.0e6, [&] {
        ch.begin(1.0e6, [&] { t_spawned = q.now(); });
    });
    ch.begin(3.0e6, [&] { t_old = q.now(); });
    q.run();
    // Shared halves until 20us (1MB each). Then the spawned 1MB and
    // the old transfer's remaining 2MB share: spawned +20us = 40us,
    // old then finishes its last 1MB alone at 50us.
    EXPECT_DOUBLE_EQ(t_spawned, 4.0e4);
    EXPECT_DOUBLE_EQ(t_old, 5.0e4);
}

TEST(SharedChannel, AbortAfterCompletionIsNoop)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    const auto id = ch.begin(1.0e6, [] {});
    q.run();
    ch.abort(id); // already drained: harmless
    EXPECT_EQ(ch.activeCount(), 0u);
}

TEST(SharedChannel, StaleIdCannotAbortSlotSuccessor)
{
    // Transfers live in a slab of recycled slots; the id of a drained
    // transfer must miss the transfer that reuses its slot
    // (generation tag).
    EventQueue q;
    SharedChannel ch(q, 100.0);
    SharedChannel::TransferId id_first = 0, id_successor = 0;
    TimeNs t_successor = -1.0, t_long = -1.0;
    id_first = ch.begin(1.0e6, [&] {
        id_successor = ch.begin(1.0e6, [&] { t_successor = q.now(); });
    });
    ch.begin(3.0e6, [&] { t_long = q.now(); });
    q.schedule(3.0e4, [&] {
        EXPECT_NE(id_first, id_successor);
        ch.abort(id_first); // drained: must be a no-op
        EXPECT_EQ(ch.activeCount(), 2u);
    });
    q.run();
    // Halves until the first 1MB drains at 20us. The successor's 1MB
    // and the long transfer's remaining 2MB then share: successor
    // +20us = 40us, the long one's last 1MB alone at 50us.
    EXPECT_DOUBLE_EQ(t_successor, 4.0e4);
    EXPECT_DOUBLE_EQ(t_long, 5.0e4);
}

TEST(SharedChannel, PeakActiveCountTracksHighWaterMark)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    for (int i = 0; i < 5; ++i)
        ch.begin(1.0e6 * (i + 1), [] {});
    EXPECT_EQ(ch.peakActiveCount(), 5u);
    q.run();
    EXPECT_EQ(ch.activeCount(), 0u);
    EXPECT_EQ(ch.peakActiveCount(), 5u);
}

TEST(SharedChannel, CompletionOrderIsDeterministicAndByBeginOrder)
{
    // Simultaneous completions fire their callbacks in begin order,
    // and the whole completion sequence is identical run after run.
    auto drive = [] {
        EventQueue q;
        SharedChannel ch(q, 50.0);
        std::vector<int> order;
        for (int i = 0; i < 40; ++i) {
            const double bytes = (i % 4 == 0) ? 2.0e5 : 1.0e5 * (i % 3 + 1);
            q.schedule(13.0 * (i % 5),
                       [&ch, &order, i, bytes] {
                           ch.begin(bytes, [&order, i] {
                               order.push_back(i);
                           });
                       });
        }
        q.run();
        return order;
    };
    const auto first = drive();
    const auto second = drive();
    EXPECT_EQ(first, second);
    EXPECT_EQ(first.size(), 40u);

    // Four equal transfers begun in one batch drain together, in
    // begin order.
    EventQueue q;
    SharedChannel ch(q, 100.0);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        ch.begin(1.0e6, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SharedChannel, VirtualTimeRebasePreservesConservation)
{
    // Push cumulative service past 1e15 virtual bytes (where, without
    // rebasing, a double's ulp would reach ~0.125 bytes — five orders
    // of magnitude above the drain epsilon) and verify byte
    // conservation and completion counting stay exact. A chain of
    // sequential petascale transfers crosses the 1e9 rebase threshold
    // many times over.
    EventQueue q;
    SharedChannel ch(q, 1000.0);
    constexpr Bytes kTransfer = 1.0e12;
    constexpr int kCount = 1200; // 1.2e15 cumulative virtual bytes
    int done = 0;
    std::function<void()> next = [&] {
        ++done;
        if (done < kCount)
            ch.begin(kTransfer, [&next] { next(); });
    };
    ch.begin(kTransfer, [&next] { next(); });
    q.run();
    ch.sync();
    EXPECT_EQ(done, kCount);
    EXPECT_EQ(ch.activeCount(), 0u);
    EXPECT_NEAR(ch.progressedBytes(), kTransfer * kCount, 1.0);
    // Serial service: total time is exactly total bytes / capacity.
    EXPECT_NEAR(q.now(), kTransfer * kCount / 1000.0, 1.0);
}

TEST(SharedChannel, RebaseAcrossConcurrentTransfers)
{
    // Two concurrent transfers straddling the rebase boundary: the
    // uniform shift of pending finish points must not disturb either
    // completion time or the byte accounting.
    EventQueue q;
    SharedChannel ch(q, 100.0);
    constexpr Bytes kA = 1.2e15;
    constexpr Bytes kB = 1.5e15;
    TimeNs t_a = -1.0, t_b = -1.0;
    ch.begin(kA, [&] { t_a = q.now(); });
    ch.begin(kB, [&] { t_b = q.now(); });
    q.run();
    ch.sync();
    // Equal sharing: A drains when both received kA bytes (time
    // 2*kA/cap), then B's remainder runs alone at full capacity.
    const TimeNs expect_a = 2.0 * kA / 100.0;
    const TimeNs expect_b = expect_a + (kB - kA) / 100.0;
    EXPECT_NEAR(t_a, expect_a, 1e-6 * expect_a);
    EXPECT_NEAR(t_b, expect_b, 1e-6 * expect_b);
    EXPECT_NEAR(ch.progressedBytes(), kA + kB, 1.0);
    EXPECT_EQ(ch.activeCount(), 0u);
}

TEST(SharedChannel, SetCapacityMidTransferChangesRate)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    TimeNs t1 = -1.0;
    ch.begin(2.0e6, [&] { t1 = q.now(); });
    q.schedule(1.0e4, [&] { ch.setCapacity(q.now(), 50.0); });
    q.run();
    // 10 us at 100 GB/s -> 1MB done; the remaining 1MB at 50 GB/s
    // takes 20 us more.
    EXPECT_NEAR(t1, 3.0e4, 1e-6 * 3.0e4);
    ch.sync();
    EXPECT_NEAR(ch.progressedBytes(), 2.0e6, 1.0);
    EXPECT_EQ(ch.activeCount(), 0u);
}

TEST(SharedChannel, RepeatedCapacityStepsConserveBytes)
{
    // Many capacity steps while transfers are in flight: finish
    // points are capacity-independent in virtual time, so byte
    // conservation must hold exactly no matter how often (or how
    // hard) the capacity moves.
    EventQueue q;
    SharedChannel ch(q, 100.0);
    double begun = 0.0;
    int done = 0;
    for (int i = 0; i < 40; ++i) {
        const double bytes = 3.0e5 + 1.7e4 * (i % 9);
        begun += bytes;
        q.schedule(251.0 * i,
                   [&ch, &done, bytes] { ch.begin(bytes, [&done] { ++done; }); });
    }
    for (int i = 1; i <= 25; ++i) {
        const double cap = (i % 2 == 0) ? 100.0 : 100.0 / (1 + i % 5);
        q.schedule(431.0 * i, [&ch, cap, &q] { ch.setCapacity(q.now(), cap); });
    }
    q.run();
    ch.sync();
    EXPECT_EQ(done, 40);
    EXPECT_NEAR(ch.progressedBytes(), begun, 1.0 + 1e-6 * begun);
    EXPECT_EQ(ch.activeCount(), 0u);
}

TEST(SharedChannel, EpochResetAfterCapacityStepsAndRetiredClasses)
{
    // One "iteration epoch" with per-class traffic, a mid-epoch
    // capacity step and a class retirement; after epochReset() the
    // channel must behave exactly like a fresh one, including a
    // second epoch with its own capacity steps.
    EventQueue q;
    SharedChannel ch(q, 100.0);
    ch.begin(1.0e6, 1.0, [] {}, 0);
    ch.begin(1.0e6, 1.0, [] {}, 4);
    q.schedule(5.0e3, [&] { ch.setCapacity(q.now(), 200.0); });
    q.run();
    ch.sync();
    EXPECT_NEAR(ch.progressedBytes(), 2.0e6, 1.0);
    EXPECT_NEAR(ch.classProgressedBytes(4), 1.0e6, 1.0);

    ch.retireClass(4);
    EXPECT_EQ(ch.numClasses(), 1);
    EXPECT_DOUBLE_EQ(ch.classProgressedBytes(4), 0.0);

    // Epoch boundary: the runtime rebases the queue first.
    q.rebaseToZero();
    ch.epochReset();
    EXPECT_DOUBLE_EQ(ch.progressedBytes(), 0.0);
    EXPECT_DOUBLE_EQ(ch.classProgressedBytes(0), 0.0);

    // Second epoch: the capacity carried across the reset is the
    // stepped one (200), and stepping it again mid-epoch works the
    // same as in the first epoch. A begin() in the retired class
    // simply starts fresh accounts.
    EXPECT_DOUBLE_EQ(ch.capacity(), 200.0);
    TimeNs t1 = -1.0;
    ch.begin(2.0e6, 1.0, [&] { t1 = q.now(); }, 4);
    q.schedule(5.0e3, [&] { ch.setCapacity(q.now(), 100.0); });
    q.run();
    ch.sync();
    // 5 us at 200 GB/s -> 1MB done; remaining 1MB at 100 -> +10 us.
    EXPECT_NEAR(t1, 1.5e4, 1e-6 * 1.5e4);
    EXPECT_NEAR(ch.progressedBytes(), 2.0e6, 1.0);
    EXPECT_NEAR(ch.classProgressedBytes(4), 2.0e6, 1.0);
    EXPECT_EQ(ch.numClasses(), 5);
}

TEST(SharedChannel, RetiredClassRestartsFreshAccounts)
{
    // Retiring a class frees its accounts, so the next begin() in
    // the same class index must open new ones that start from zero.
    EventQueue q;
    SharedChannel ch(q, 100.0);
    ch.begin(1.0e6, 1.0, [] {}, 3);
    q.run();
    EXPECT_DOUBLE_EQ(ch.classProgressedBytes(3), 1.0e6);
    ch.retireClass(3);
    EXPECT_EQ(ch.trackedClassCount(), 0u);
    TimeNs done_at = -1.0;
    ch.begin(5.0e5, 1.0, [&] { done_at = q.now(); }, 3);
    EXPECT_EQ(ch.trackedClassCount(), 1u);
    q.run();
    ch.sync();
    EXPECT_DOUBLE_EQ(done_at, 1.0e4 + 5.0e3);
    EXPECT_DOUBLE_EQ(ch.classProgressedBytes(3), 5.0e5);
    EXPECT_EQ(ch.classIds(), (std::vector<int>{3}));
}

TEST(SharedChannel, FailActiveReportsRemaindersInBeginOrder)
{
    EventQueue q;
    SharedChannel ch(q, 100.0);
    std::vector<double> remainders;
    bool completed = false;
    auto on_fail = [&](Bytes remaining) {
        remainders.push_back(remaining);
    };
    ch.begin(2.0e6, 1.0, [&] { completed = true; }, 0, on_fail);
    ch.begin(4.0e6, 1.0, [&] { completed = true; }, 0, on_fail);
    q.schedule(2.0e4, [&] { ch.failActive(); });
    q.run();
    EXPECT_FALSE(completed);
    EXPECT_EQ(ch.activeCount(), 0u);
    ASSERT_EQ(remainders.size(), 2u);
    // 20 us shared at 50 GB/s each: 1MB progressed per transfer.
    EXPECT_NEAR(remainders[0], 1.0e6, 1.0);
    EXPECT_NEAR(remainders[1], 3.0e6, 1.0);
    ch.sync();
    // The partial progress stays accounted.
    EXPECT_NEAR(ch.progressedBytes(), 2.0e6, 1.0);
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace themis::sim
