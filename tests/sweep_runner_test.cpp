/**
 * @file
 * Tests for the parallel sweep harness: result ordering, determinism
 * across worker counts, fresh per-job queues, and error propagation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/error.hpp"
#include "runtime/comm_runtime.hpp"
#include "sim/shared_channel.hpp"
#include "sim/sweep_runner.hpp"
#include "topology/presets.hpp"

namespace themis::sim {
namespace {

TEST(SweepRunner, ResultsComeBackInIndexOrder)
{
    const auto results = sweepIndexed(
        64,
        [](std::size_t i, EventQueue& queue) {
            double out = -1.0;
            queue.schedule(static_cast<double>(i),
                           [&out, i] { out = static_cast<double>(i * i); });
            queue.run();
            return out;
        },
        SweepOptions{4});
    ASSERT_EQ(results.size(), 64u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_DOUBLE_EQ(results[i], static_cast<double>(i * i));
}

TEST(SweepRunner, EveryJobSeesAFreshQueue)
{
    std::atomic<int> violations{0};
    const auto results = sweepIndexed(
        32,
        [&violations](std::size_t i, EventQueue& queue) {
            if (queue.now() != 0.0 || !queue.empty())
                ++violations;
            // Leave time advanced and an event pending: the harness
            // must reset before handing the queue to the next job.
            queue.schedule(100.0 + static_cast<double>(i), [] {});
            queue.runUntil(50.0);
            return static_cast<int>(i);
        },
        SweepOptions{2});
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(results.size(), 32u);
}

TEST(SweepRunner, SerialAndParallelProduceIdenticalResults)
{
    auto job = [](std::size_t i, EventQueue& queue) {
        SharedChannel ch(queue, 10.0 + static_cast<double>(i % 3));
        TimeNs done_at = -1.0;
        ch.begin(1000.0 * (static_cast<double>(i) + 1.0),
                 [&done_at, &queue] { done_at = queue.now(); });
        queue.run();
        return done_at;
    };
    const auto serial = sweepIndexed(40, job, SweepOptions{1});
    const auto parallel = sweepIndexed(40, job, SweepOptions{4});
    EXPECT_EQ(serial, parallel);
}

TEST(SweepRunner, FullRuntimeGridMatchesSerialBaseline)
{
    // The real use case: independent CommRuntime simulations across
    // workers must produce bit-identical collective times to running
    // them one by one on a private queue.
    const Topology topo = presets::make3DSwSwSwHomo();
    const std::vector<int> chunk_counts{4, 16, 64};
    auto job = [&](std::size_t i, EventQueue& queue) {
        runtime::CommRuntime comm(queue, topo,
                                  runtime::themisScfConfig());
        CollectiveRequest req;
        req.type = CollectiveType::AllReduce;
        req.size = 50.0e6;
        req.chunks = chunk_counts[i];
        const int id = comm.issue(req);
        queue.run();
        return comm.record(id).duration();
    };
    const auto parallel =
        sweepIndexed(chunk_counts.size(), job, SweepOptions{3});
    for (std::size_t i = 0; i < chunk_counts.size(); ++i) {
        EventQueue queue;
        EXPECT_DOUBLE_EQ(parallel[i], job(i, queue));
    }
}

TEST(SweepRunner, PropagatesJobExceptions)
{
    SweepRunner runner(SweepOptions{2});
    std::vector<SweepRunner::Job> jobs;
    for (int i = 0; i < 8; ++i) {
        jobs.push_back([i](EventQueue&) {
            if (i == 5)
                THEMIS_FATAL("job " << i << " exploded");
        });
    }
    EXPECT_THROW(runner.run(std::move(jobs)), ConfigError);
}

TEST(SweepRunner, EmptyJobListIsFine)
{
    SweepRunner runner;
    runner.run({});
    SUCCEED();
}

TEST(SweepRunner, SingleThreadRunsInline)
{
    SweepRunner runner(SweepOptions{1});
    EXPECT_EQ(runner.threads(), 1);
    int count = 0;
    std::vector<SweepRunner::Job> jobs;
    for (int i = 0; i < 5; ++i)
        jobs.push_back([&count](EventQueue&) { ++count; });
    runner.run(std::move(jobs));
    EXPECT_EQ(count, 5);
}

} // namespace
} // namespace themis::sim
