/**
 * @file
 * Per-layer replays: each feeds a Recording into one layer's public API
 * on a private event queue, times those calls, and checks that the
 * replay reproduced the recorded stream's totals. A replay that does
 * not reproduce them returns an invalid result, which the benchmark
 * prints as invalid instead of as a number.
 *
 * Every replay repeats until its time budget is spent (at least three
 * repetitions) and reports the median repetition.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/plan_cache.hpp"
#include "recorder.hpp"

namespace perfbench {

/** One per-layer figure, or the reason it is invalid. */
struct Measured
{
    double value = 0.0;
    bool valid = true;
    std::string why;

    /** Mark invalid with @p reason (keeps the first reason). */
    void fail(const std::string& reason);
};

/**
 * Every op's latency timer and transfer completion, scheduled at the
 * recorded times into a bare EventQueue with front end @p front_end.
 * Value: host ns per executed event. Valid when every scheduled event
 * ran and the clock ended at the last recorded finish.
 */
Measured replayEventQueue(const Recording& rec,
                          themis::sim::EventFrontEnd front_end,
                          double budget_s);

/** Channel occupancy just after every replayed transfer begin. */
struct ChannelSamples
{
    std::vector<double> active;
    std::vector<double> classes;
};

/**
 * The recorded (begin time, bytes, weight, class) transfers, begun at
 * their recorded times on standalone SharedChannels, one per
 * dimension. Value: host ns per transfer. Valid when every transfer
 * completed and the channels progressed exactly the recorded bytes.
 */
Measured replayChannel(const Recording& rec, double budget_s,
                       ChannelSamples* samples);

/**
 * The recorded ChunkOps enqueued at their recorded arrival times into
 * standalone DimensionEngines, one per dimension, with each
 * collective's recorded start order installed via setEnforcedOrder
 * where the workload enforces one. Value: host ns per op. Valid when
 * every op completed and, on enforced engines, ops started in the
 * recorded order.
 */
Measured replayEngines(const Recording& rec, double budget_s);

/**
 * The recorded collectives' schedules driven as bare
 * CollectiveSessions over standalone engines (no CommRuntime), each
 * started at its recorded issue time. Value: host ns per op. Valid
 * when every session finished with the recorded op count.
 */
Measured replaySessions(const Recording& rec, double budget_s);

/** Outcome of re-issuing the collective stream into fresh runtimes. */
struct Reissue
{
    /** Host ns inside CommRuntime::issue, per collective. */
    Measured issue_ns;

    /** The rest of EventQueue::run, per chunk op. */
    Measured drain_ns_per_op;

    /** Host ns of one stream (issue + drain), averaged over streams. */
    double stream_ns = 0.0;

    /** The plan cache of the last repetition (holds every plan). */
    std::unique_ptr<themis::PlanCache> cache;
};

/**
 * Re-issue every recorded collective at its recorded time into a
 * fresh CommRuntime per stream. Valid when each stream completed the
 * recorded op count.
 */
Reissue replayReissue(const Recording& rec, double budget_s);

/** CommRuntime construction per stream configuration, in us. */
Measured timeRuntimeCtor(const Recording& rec, double budget_s);

/** beginIterationEpoch + finishIterationEpoch on an idle runtime, ns. */
Measured timeEpoch(const Recording& rec, double budget_s);

/**
 * makeScheduler(kind, modelForScope(scope))->scheduleCollective(...)
 * on every recorded request, host ns per collective.
 */
Measured timeScheduler(const Recording& rec, double budget_s);

/**
 * Cold issue() with consistent-order enforcement minus cold issue()
 * without it, per collective (fresh runtime, no plan cache).
 */
Measured timeOrderPlanner(const Recording& rec, double budget_s);

/**
 * findPlan + findStep on every recorded plan and step key against
 * @p warm, host ns per lookup. Valid when every lookup hits.
 */
Measured timePlanCacheLookups(const Recording& rec,
                              const themis::PlanCache& warm,
                              double budget_s);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
