/**
 * @file
 * The benchmark's three workloads, each driven through the simulator's
 * public API on one thread (see perfbench/README.md for why each was
 * chosen):
 *
 *  - t1t_fullsim: Transformer-1T on 2D-SW_SW under Themis+SCF with a
 *    plan cache; one unit is one fully simulated training iteration
 *    inside a CommRuntime iteration epoch (replay off).
 *  - allreduce_enforced: 540 single All-Reduce cells (6 topologies x
 *    3 schedulers x 10 sizes x 16/64/256 chunks) with consistent-order
 *    enforcement; one unit is one cell, and one pass of 540 cells
 *    shares a fresh plan cache.
 *  - cluster_2to3: DLRM training (bulk tier) plus two urgent periodic
 *    inference tenants at a 2:3 cadence, 120 lockstep rounds with cycle
 *    replay and telemetry armed; one unit is one mix, from construction
 *    to run report.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/plan_cache.hpp"
#include "recorder.hpp"

namespace perfbench {

/** Outcome of one unit. */
struct UnitResult
{
    /** Chunk ops the unit accounted for (replayed rounds included). */
    std::uint64_t ops = 0;

    /** Empty when the unit's result checked out; else why it failed. */
    std::string error;
};

/** Convergence-engine round counts of the last unit. */
struct ConvergenceCounts
{
    int simulated = 0;
    int replayed = 0;
};

/** Whether a workload runs with a Telemetry sink attached. */
enum class TelemetryMode {
    Default, ///< as the workload defines it
    On,
    Off,
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input and warm what the workload keeps warm. */
    virtual void setup() = 0;

    /**
     * Run the next unit and check its result. @p rec, when non-null,
     * is attached to the unit's runtime for the unit's duration.
     */
    virtual UnitResult unit(Recorder* rec) = 0;

    /** A run stops only after a whole multiple of this many units. */
    virtual std::size_t unitsPerRound() const { return 1; }

    /** Simulated time of the modelled fabric (see README), in ms. */
    virtual double simTimeMs() const = 0;

    /** Plan-cache counters accumulated over the units since setup. */
    virtual themis::PlanCache::Stats cacheStats() const = 0;

    /**
     * True when the workload drives a training loop through the
     * convergence engine; the three members below apply only then.
     */
    virtual bool hasLoop() const { return false; }

    /** Round counts of the last unit's convergence run. */
    virtual ConvergenceCounts convergence() const { return {}; }

    /** One reference round of inputs, recorded through the hooks. */
    virtual Recording record() = 0;

    /** Units the recording covers (the base of its per-unit counts). */
    virtual std::size_t recordedUnits() const { return unitsPerRound(); }

    /**
     * Median host ns of one training-loop iteration (lockstep round)
     * without hooks, measured for about @p budget_s.
     */
    virtual double loopIterationNs(double budget_s)
    {
        (void)budget_s;
        return 0.0;
    }

    /** Host ns of a convergence run over @p rounds rounds. */
    virtual double convergenceRunNs(int rounds)
    {
        (void)rounds;
        return 0.0;
    }

    /** How the workload uses --seed (printed with the results). */
    virtual std::string seedNote() const = 0;
};

/** Names accepted by makeWorkload(), in benchmark order. */
const std::vector<std::string>& workloadNames();

/** Build workload @p name for @p seed; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       TelemetryMode telemetry =
                                           TelemetryMode::Default);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
