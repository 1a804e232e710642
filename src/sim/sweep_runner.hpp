/**
 * @file
 * Parallel sweep harness for independent simulations.
 *
 * The event queue is strictly single-threaded by design, so simulator
 * parallelism comes from running *disjoint* simulations concurrently:
 * each worker thread owns one EventQueue, pulls jobs off a shared
 * atomic counter, and resets its queue between jobs. This is what the
 * figure/bench harnesses need — a topology x model x chunk-count grid
 * is embarrassingly parallel — and it keeps every individual
 * simulation bit-deterministic regardless of worker count or job
 * interleaving (jobs write results into caller-owned, index-addressed
 * slots).
 *
 * Jobs must not share mutable state with each other (construct the
 * runtime, topology and stats inside the job), and must not change
 * process-global knobs such as the log level while a sweep runs.
 */

#ifndef THEMIS_SIM_SWEEP_RUNNER_HPP
#define THEMIS_SIM_SWEEP_RUNNER_HPP

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace themis::sim {

/** Sweep harness tunables. */
struct SweepOptions
{
    /**
     * Worker threads; 0 resolves to the THEMIS_SWEEP_THREADS
     * environment variable, then to std::thread::hardware_concurrency.
     * 1 runs every job inline on the calling thread. A set but
     * non-numeric or non-positive THEMIS_SWEEP_THREADS is rejected
     * with a ConfigError rather than silently ignored.
     */
    int threads = 0;

    /**
     * Pending-set front end of every worker-owned EventQueue. The
     * calendar is the measurement baseline; results are bit-identical
     * either way.
     */
    EventFrontEnd front_end = EventFrontEnd::Heap;
};

/** Fans independent simulation jobs across workers; see file comment. */
class SweepRunner
{
  public:
    /**
     * One independent simulation. The queue arrives freshly reset
     * (now() == 0, no pending events) and belongs to the worker.
     */
    using Job = std::function<void(EventQueue&)>;

    explicit SweepRunner(SweepOptions options = {});

    /**
     * Run all jobs to completion; blocks. The first exception thrown
     * by any job is rethrown here (remaining jobs may be skipped).
     */
    void run(std::vector<Job> jobs);

    /** Resolved worker count. */
    int threads() const { return threads_; }

  private:
    int threads_;
    EventFrontEnd front_end_;
};

/**
 * Map @p fn over indexes [0, count) in parallel and collect the
 * results in index order. @p fn is called as fn(index, queue) from
 * worker threads; its result type must be default-constructible.
 */
template <typename Fn>
auto
sweepIndexed(std::size_t count, Fn&& fn, SweepOptions options = {})
    -> std::vector<decltype(fn(std::size_t{},
                               std::declval<EventQueue&>()))>
{
    using Result = decltype(fn(std::size_t{},
                               std::declval<EventQueue&>()));
    static_assert(!std::is_same_v<Result, bool>,
                  "std::vector<bool> packs bits, so concurrent workers "
                  "would race on shared bytes; return int instead");
    std::vector<Result> results(count);
    std::vector<SweepRunner::Job> jobs;
    jobs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        jobs.push_back([i, &fn, &results](EventQueue& queue) {
            results[i] = fn(i, queue);
        });
    }
    SweepRunner(options).run(std::move(jobs));
    return results;
}

} // namespace themis::sim

#endif // THEMIS_SIM_SWEEP_RUNNER_HPP
