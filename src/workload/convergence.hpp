/**
 * @file
 * Steady-state detector + iteration replay engine for multi-iteration
 * training (convergence) runs, generalized to *period-k cycles*.
 *
 * A training workload issues byte-identical traffic every iteration,
 * and after the first iteration has warmed the plan cache (or simply
 * because planning is deterministic) the simulated schedule repeats
 * exactly. Simulating hundreds of identical iterations is therefore
 * pure waste — yet convergence studies and multi-job scenarios need
 * exactly such horizons.
 *
 * The runner executes each round inside a CommRuntime *iteration
 * epoch*: the event-queue and channel clocks are rebased to zero and
 * every statistics accumulator restarts, so a round's trajectory is a
 * deterministic function of the (quiescent) runtime state alone and
 * its measured stats are exact per-round deltas, bit-stable across
 * identical rounds. Each epoch yields a fingerprint (event trace of
 * every chunk-op start/finish, plan-cache keys, per-class and
 * per-dimension byte totals, utilization time, anti-starvation
 * streaks, fault counters).
 *
 * Multi-cadence mixes (a training loop stepping every round plus
 * inference tenants stepping every 2nd and 3rd round) never repeat
 * with period 1: their joint trajectory repeats with the *stepping
 * hyper-period* H = lcm(cadences). The detector therefore keeps a
 * bounded ring of per-epoch (breakdown, stats) entries and, for every
 * candidate cycle length k in {H, 2H, ...} up to `cycle_limit`,
 * counts how long the last k epochs have bit-matched the k epochs
 * before them. Once a candidate holds for one whole cycle (two
 * identical cycles in a row), the remaining rounds are *replayed
 * analytically*: the confirmed k-epoch delta block is integrated
 * forward cyclically with O(dimensions + classes) additions per round
 * instead of re-running the event loop. The accumulation arithmetic is the same
 * one the fully simulated path uses, so replayed totals are
 * bit-identical to what full simulation would produce — and the
 * `exactness_check` mode proves it in-binary by co-running the full
 * simulation after detection and asserting every subsequent round
 * (and the final totals) against the replay prediction. With a single
 * always-stepping job the machinery reduces exactly to the original
 * period-1 engine, byte for byte.
 */

#ifndef THEMIS_WORKLOAD_CONVERGENCE_HPP
#define THEMIS_WORKLOAD_CONVERGENCE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload/training_loop.hpp"

namespace themis::workload {

/** Tunables of a multi-iteration convergence run. */
struct ConvergenceOptions
{
    /** Iterations to account for (>= 1). */
    int iterations = 1;

    /**
     * Replay analytically once steady state is confirmed. Off =
     * simulate every iteration (measurement baseline; results are
     * bit-identical either way).
     */
    bool replay = true;

    /**
     * Keep simulating after detection and assert every subsequent
     * iteration — and the final totals — bit-identical to the replay
     * prediction (panics on divergence). Implies no wall-clock
     * savings; this is the proof mode.
     */
    bool exactness_check = false;

    /**
     * Largest cycle length (in rounds) the detector may confirm.
     * 0 = auto: the job mix's stepping hyper-period H (1 for a
     * single-cadence mix). Candidates are the multiples of H up to
     * this bound; if the bound is below H, replay is refused with a
     * diagnostic (detection itself still needs no bound).
     */
    int cycle_limit = 0;
};

/** Outcome of a convergence run. */
struct ConvergenceReport
{
    /** Iterations accounted for (== options.iterations). */
    int iterations = 0;

    /** Iterations actually simulated through the event loop. */
    int simulated_iterations = 0;

    /** Iterations replayed analytically. */
    int replayed_iterations = 0;

    /**
     * Length (in rounds) of the first confirmed steady cycle, or 0 if
     * steady state was never reached. 1 for single-cadence mixes.
     */
    int cycle_length = 0;

    /** Stepping hyper-period of the job mix (lcm of cadences). */
    int hyper_period = 1;

    /**
     * Epoch counters: rounds driven through the event loop vs rounds
     * substituted analytically. For the single-cadence overloads these
     * equal simulated/replayed_iterations; for mixed-cadence lockstep
     * runs they count *rounds*, of which each job only steps a
     * cadence-th. Bookkeeping, excluded from resultsBitIdentical().
     */
    int epochs_simulated = 0;
    int epochs_replayed = 0;

    /**
     *0-based index of the iteration whose epoch confirmed steady
     * state, or -1 if it was never reached.
     */
    int steady_at = -1;

    /** Fingerprint of the steady cycle's last epoch (0 if none). */
    std::uint64_t steady_fingerprint = 0;

    /** Summed decomposition over all iterations. */
    IterationBreakdown total;

    /** The final iteration's decomposition. */
    IterationBreakdown last;

    /** Per-iteration decompositions (size == iterations). */
    std::vector<IterationBreakdown> per_iteration;

    /** Summed communication-active window time. */
    TimeNs active_time = 0.0;

    /** Summed bytes progressed per dimension. */
    std::vector<Bytes> dim_bytes;

    /** Summed bytes progressed per flow class. */
    std::vector<Bytes> class_bytes;

    /** Summed chunk ops executed (replayed iterations count the
     *  steady iteration's ops). */
    std::uint64_t ops = 0;

    /** Collectives accounted for across all iterations. */
    long collectives = 0;

    /**
     * Non-empty when analytic replay was *refused* even though
     * options requested it (e.g. the runtime has observed more jobs
     * than the stepped loops cover, so steady-state fingerprints
     * could alias another tenant's state). The run falls back to full
     * simulation; the reason is also logged at Warn level.
     */
    std::string replay_refusal;

    /**
     * Fig-4-definition utilization over the whole run: total bytes /
     * (total machine bandwidth x active_time).
     */
    double utilization = 0.0;
};

/**
 * Bit-pattern equality of two runs' *simulation results* — total and
 * per-iteration decompositions, active time, per-dimension and
 * per-class bytes, op/collective counts, utilization. Run bookkeeping
 * (simulated vs replayed counts, wall time, steady_at) is excluded:
 * a replayed run and a fully simulated run of the same workload must
 * satisfy this even though they did different amounts of event-loop
 * work. The single definition of "bit-identical" shared by the
 * exactness-check mode, the tests and perfbench.
 */
bool resultsBitIdentical(const ConvergenceReport& a,
                         const ConvergenceReport& b);

/**
 * Run @p loop for opts.iterations training iterations on @p comm with
 * steady-state replay; see file comment. The runtime must be
 * quiescent and must be driven only by @p loop for the duration.
 * Refuses replay (full simulation, logged reason, report field) when
 * @p comm has observed collectives from more jobs than @p loop
 * covers — a single loop cannot fingerprint another tenant's state.
 */
ConvergenceReport runConverged(runtime::CommRuntime& comm,
                               TrainingLoop& loop,
                               const ConvergenceOptions& opts = {});

/**
 * One participant of a lockstep convergence round. Either a training
 * loop (steps via beginIterationAsync) or a custom begin/last pair
 * (e.g. a periodic-inference request issued through the cluster
 * layer). The job steps on every round r with r % cadence == 0 —
 * cadence 2 means "every other round" — so a mixed-cadence cluster
 * mix maps periodic tenants onto relative round cadences and the
 * joint trajectory repeats with period lcm(cadences).
 */
struct LockstepJob
{
    /** Training-loop participant (nullptr for custom jobs). */
    TrainingLoop* loop = nullptr;

    /**
     * Custom participant: begin one unit of work, invoke the passed
     * completion callback when it finishes on the shared queue.
     * Required (with `last`) iff loop == nullptr.
     */
    std::function<void(const std::function<void()>&)> begin;

    /** Custom participant: the just-completed unit's breakdown. */
    std::function<IterationBreakdown()> last;

    /** Job id this participant covers (for the multi-tenant guard). */
    int job = 0;

    /** Steps on rounds r with r % cadence == 0 (>= 1). */
    int cadence = 1;
};

/**
 * Multi-job lockstep convergence: every loop in @p loops (each bound
 * to its own job id, all sharing @p comm) begins one iteration per
 * round; the shared event queue runs until all of them complete, and
 * the round is one iteration epoch. The epoch fingerprint therefore
 * covers *all* jobs' traces — issue hashes mix job ids and every
 * chunk op of every job lands in the per-dimension event trace — so
 * two identical rounds mean the whole cluster's joint trajectory
 * repeats, and the remainder replays analytically exactly as in the
 * single-job case. Reported breakdowns are summed across loops per
 * round.
 */
ConvergenceReport
runConverged(runtime::CommRuntime& comm,
             const std::vector<TrainingLoop*>& loops,
             const ConvergenceOptions& opts = {});

/**
 * Cadence-aware lockstep convergence over an arbitrary participant
 * mix: round r steps exactly the jobs with r % cadence == 0, the
 * shared queue drains, and the round is one iteration epoch. Steady
 * state is a period-k *cycle* (k a multiple of the cadence
 * hyper-period, bounded by opts.cycle_limit); once confirmed, whole
 * cycles are replayed analytically by integrating the k-epoch delta
 * block — bit-identical to full simulation, provable in-binary via
 * opts.exactness_check. This is the engine the cluster layer drives
 * for mixed training + periodic-inference mixes (see
 * cluster::Cluster::runConverged).
 */
ConvergenceReport
runConverged(runtime::CommRuntime& comm,
             const std::vector<LockstepJob>& jobs,
             const ConvergenceOptions& opts = {});

} // namespace themis::workload

#endif // THEMIS_WORKLOAD_CONVERGENCE_HPP
