#include "workload/convergence.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/hash.hpp"
#include "stats/telemetry/telemetry.hpp"
#include "stats/trace_writer.hpp"

namespace themis::workload {

namespace {

using runtime::CommRuntime;

/**
 * Saturation bound for the stepping hyper-period: past this the mix
 * can never confirm a cycle on any practical horizon, and the exact
 * lcm no longer matters (only that it exceeds every cycle limit).
 */
constexpr long long kHyperPeriodSaturation = 1LL << 30;

/**
 * Bit-identical cycles required before the remainder is replayed: a
 * cycle that repeats once (two in a row) is confirmed.
 */
constexpr long long kConfirmCycles = 2;

/**
 * Fold one iteration into the running totals. Replay uses the same
 * function with the steady cycle's values, so the replayed
 * accumulation performs bit-for-bit the operations full simulation
 * would.
 */
void
accumulate(ConvergenceReport& r, const IterationBreakdown& b,
           const CommRuntime::EpochStats& s)
{
    r.total += b;
    r.last = b;
    r.per_iteration.push_back(b);
    r.active_time += s.active_time;
    if (r.dim_bytes.size() < s.dim_bytes.size())
        r.dim_bytes.resize(s.dim_bytes.size(), 0.0);
    for (std::size_t d = 0; d < s.dim_bytes.size(); ++d)
        r.dim_bytes[d] += s.dim_bytes[d];
    if (r.class_bytes.size() < s.class_bytes.size())
        r.class_bytes.resize(s.class_bytes.size(), 0.0);
    for (std::size_t c = 0; c < s.class_bytes.size(); ++c)
        r.class_bytes[c] += s.class_bytes[c];
    r.ops += s.ops;
    r.collectives += s.collectives;
}

void
finalizeUtilization(ConvergenceReport& r, const Topology& topo)
{
    if (r.active_time <= 0.0)
        return;
    Bandwidth total_bw = 0.0;
    for (int d = 0; d < topo.numDims(); ++d)
        total_bw += topo.dim(d).bandwidth();
    Bytes total_bytes = 0.0;
    for (Bytes b : r.dim_bytes)
        total_bytes += b;
    r.utilization = total_bytes / (total_bw * r.active_time);
}

bool
assertIdentical(const IterationBreakdown& b,
                const CommRuntime::EpochStats& s,
                const IterationBreakdown& steady_b,
                const CommRuntime::EpochStats& steady_s, int iteration)
{
    THEMIS_ASSERT(bitIdentical(b, steady_b) &&
                      s.identicalTo(steady_s),
                  "exactness check: iteration "
                      << iteration
                      << " diverged from the steady-cycle iteration "
                         "the replay engine would have substituted "
                         "(fingerprint "
                      << s.fingerprint << " vs "
                      << steady_s.fingerprint << ")");
    return true;
}

/** One ring slot: a round's measured deltas, bit for bit. */
struct Epoch
{
    IterationBreakdown b;
    CommRuntime::EpochStats s;
};

} // namespace

bool
resultsBitIdentical(const ConvergenceReport& a,
                    const ConvergenceReport& b)
{
    if (!bitIdentical(a.total, b.total) ||
        !bitIdentical(a.last, b.last) ||
        !bitEquals(a.active_time, b.active_time) || a.ops != b.ops ||
        a.collectives != b.collectives ||
        !bitEquals(a.utilization, b.utilization) ||
        a.per_iteration.size() != b.per_iteration.size() ||
        a.dim_bytes.size() != b.dim_bytes.size() ||
        a.class_bytes.size() != b.class_bytes.size())
        return false;
    for (std::size_t i = 0; i < a.per_iteration.size(); ++i)
        if (!bitIdentical(a.per_iteration[i], b.per_iteration[i]))
            return false;
    for (std::size_t d = 0; d < a.dim_bytes.size(); ++d)
        if (!bitEquals(a.dim_bytes[d], b.dim_bytes[d]))
            return false;
    for (std::size_t c = 0; c < a.class_bytes.size(); ++c)
        if (!bitEquals(a.class_bytes[c], b.class_bytes[c]))
            return false;
    return true;
}

ConvergenceReport
runConverged(runtime::CommRuntime& comm, TrainingLoop& loop,
             const ConvergenceOptions& opts)
{
    return runConverged(comm, std::vector<TrainingLoop*>{&loop},
                        opts);
}

ConvergenceReport
runConverged(runtime::CommRuntime& comm,
             const std::vector<TrainingLoop*>& loops,
             const ConvergenceOptions& opts)
{
    std::vector<LockstepJob> jobs;
    jobs.reserve(loops.size());
    for (TrainingLoop* loop : loops) {
        THEMIS_ASSERT(loop != nullptr, "null training loop");
        LockstepJob j;
        j.loop = loop;
        j.job = loop->job();
        jobs.push_back(std::move(j));
    }
    return runConverged(comm, jobs, opts);
}

ConvergenceReport
runConverged(runtime::CommRuntime& comm,
             const std::vector<LockstepJob>& jobs,
             const ConvergenceOptions& opts)
{
    THEMIS_ASSERT(opts.iterations >= 1, "need at least one iteration");
    THEMIS_ASSERT(!jobs.empty(), "no lockstep jobs to step");
    THEMIS_ASSERT(opts.cycle_limit >= 0,
                  "cycle limit must be >= 1 (0 = auto)");
    for (const LockstepJob& j : jobs) {
        THEMIS_ASSERT(j.cadence >= 1,
                      "lockstep cadence must be >= 1, got "
                          << j.cadence);
        THEMIS_ASSERT(j.loop != nullptr || (j.begin && j.last),
                      "lockstep job " << j.job
                                      << " needs a training loop or "
                                         "begin/last hooks");
    }

    ConvergenceReport r;
    r.iterations = opts.iterations;
    r.per_iteration.reserve(
        static_cast<std::size_t>(opts.iterations));

    // Stepping hyper-period: the joint due-set pattern of the mix
    // repeats with period lcm(cadences), so only multiples of it can
    // be true cycle lengths — shorter "matches" would align rounds
    // with different due sets.
    long long hyper = 1;
    for (const LockstepJob& j : jobs) {
        hyper = std::lcm(hyper, static_cast<long long>(j.cadence));
        if (hyper > kHyperPeriodSaturation) {
            hyper = kHyperPeriodSaturation;
            break;
        }
    }
    r.hyper_period = static_cast<int>(
        std::min(hyper, kHyperPeriodSaturation));

    // Multi-job guard: steady-state detection fingerprints only what
    // the stepped jobs produce. If the runtime has ever carried more
    // jobs than that (a tenant the caller forgot to pass), an
    // identical-looking epoch pair could alias state the fingerprint
    // cannot see — refuse replay and simulate every round instead of
    // silently integrating.
    ConvergenceOptions eff = opts;
    {
        std::set<int> covered;
        for (const LockstepJob& j : jobs)
            covered.insert(j.job);
        // Every job id the runtime has ever seen must belong to a
        // stepped job — a gap (jobs {0, 2} with a tenant at 1) is
        // exactly as uncoverable as a tenant past the maximum.
        int uncovered = -1;
        for (int j = 0; j < comm.jobsObserved(); ++j) {
            if (covered.find(j) == covered.end()) {
                uncovered = j;
                break;
            }
        }
        if ((eff.replay || eff.exactness_check) && uncovered >= 0) {
            r.replay_refusal =
                "runtime has observed " +
                std::to_string(comm.jobsObserved()) +
                " jobs but no stepped loop covers job " +
                std::to_string(uncovered) +
                "; analytic replay cannot fingerprint the other "
                "tenants' traffic";
            logWarn("convergence replay refused: ", r.replay_refusal);
            eff.replay = false;
            eff.exactness_check = false;
        }
    }

    // Candidate cycle lengths: multiples of the hyper-period up to
    // the cycle limit (0 = auto: exactly the hyper-period). A limit
    // below the hyper-period leaves no candidate, so replay is
    // refused with a diagnostic; the detection horizon is further
    // bounded by the iteration count (a longer cycle could never
    // confirm within the run anyway).
    const long long limit =
        eff.cycle_limit > 0 ? eff.cycle_limit : hyper;
    long long k_max = (limit / hyper) * hyper;
    if ((eff.replay || eff.exactness_check) && k_max == 0) {
        r.replay_refusal =
            "cycle limit " + std::to_string(limit) +
            " is below the mix's stepping hyper-period " +
            std::to_string(hyper) +
            " rounds; a confirmed cycle cannot fit, so analytic "
            "replay is refused (raise --cycle-limit)";
        logWarn("convergence replay refused: ", r.replay_refusal);
        eff.replay = false;
        eff.exactness_check = false;
    }
    k_max = std::min(k_max,
                     static_cast<long long>(eff.iterations) / hyper *
                         hyper);

    std::vector<long long> candidates;
    for (long long k = hyper; k <= k_max; k += hyper)
        candidates.push_back(k);
    // Per-candidate run lengths of "round i bit-matches round i - k".
    std::vector<long long> streaks(candidates.size(), 0);

    // Bounded epoch ring: round i lives in slot i % cap, and the
    // comparison target i - k (k <= k_max < cap) is still resident
    // when round i is recorded. Replayed rounds are recorded too, so
    // post-fault re-detection sees the same history full simulation
    // would have.
    const std::size_t cap = static_cast<std::size_t>(k_max) + 1;
    std::vector<Epoch> ring(cap);

    const auto record = [&](long long round,
                            const IterationBreakdown& b,
                            const CommRuntime::EpochStats& s) {
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            const long long k = candidates[c];
            if (round < k) {
                continue;
            }
            const Epoch& past =
                ring[static_cast<std::size_t>(round - k) % cap];
            if (past.s.identicalTo(s) && bitIdentical(past.b, b))
                ++streaks[c];
            else
                streaks[c] = 0;
        }
        Epoch& slot = ring[static_cast<std::size_t>(round) % cap];
        slot.b = b;
        slot.s = s;
    };

    // Smallest candidate whose last (kConfirmCycles - 1) cycles each
    // bit-matched the cycle before them. For a single-cadence mix
    // (k = 1) this is exactly the original period-1 condition.
    const auto confirmedCycle = [&]() -> long long {
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            const long long k = candidates[c];
            if (streaks[c] >= (kConfirmCycles - 1) * k)
                return k;
        }
        return 0;
    };

    // Phase-aware replay under a fault timeline: replay may only
    // substitute rounds that lie entirely inside the current
    // quiescent phase. From the just-simulated epoch (absolute start
    // fd->base(), duration = the cycle's last epoch), count how many
    // of the remaining rounds fit before the next fault event,
    // walking the cycle's per-epoch durations cyclically. An event
    // exactly at a round's start boundary belongs to that round (the
    // driver applies it at the epoch's first window start), so it
    // caps the span; an event exactly at a round's end belongs to the
    // next one. The confirming epoch itself must be event-free past
    // its own start: an event inside it means the next round begins
    // under different capacities than the steady cycle did, even if
    // that event had no observable effect on this epoch. Without a
    // fault driver every remaining round is replayable — the
    // pre-fault behavior, byte for byte.
    runtime::FaultDriver* const fd = comm.faultDriver();
    const auto replayableSpan =
        [&](long long remaining,
            const std::vector<Epoch>& block) -> long long {
        if (fd == nullptr)
            return remaining;
        const TimeNs base = fd->base();
        const sim::FaultTimeline& tl = fd->timeline();
        const TimeNs d_last = block.back().s.duration;
        if (tl.nextEventAfter(base) < base + d_last)
            return 0;
        long long n = 0;
        // Repeated addition, exactly mirroring the simulated path's
        // per-epoch base_ += duration, so replay and simulation see
        // bit-identical boundary positions. Round i + 1 + n maps to
        // block slot n % k.
        TimeNs start = base + d_last;
        const std::size_t k = block.size();
        while (n < remaining) {
            const TimeNs d =
                block[static_cast<std::size_t>(n) % k].s.duration;
            if (tl.nextEventAtOrAfter(start) < start + d)
                break;
            start += d;
            ++n;
        }
        return n;
    };

    // The one place a round is actually event-simulated: every path
    // below (detection loop, exactness continuation) runs the epoch
    // protocol through this helper, so a protocol change cannot
    // desynchronize them. One round = every *due* job (round %
    // cadence == 0) runs one unit of work to completion on the shared
    // queue.
    std::vector<const LockstepJob*> due;
    auto simulate_epoch = [&](long long round)
        -> std::pair<IterationBreakdown, CommRuntime::EpochStats> {
        comm.beginIterationEpoch();
        IterationBreakdown b;
        due.clear();
        for (const LockstepJob& j : jobs)
            if (round % j.cadence == 0)
                due.push_back(&j);
        int custom_inflight = 0;
        for (const LockstepJob* j : due) {
            if (j->loop != nullptr) {
                j->loop->beginIterationAsync(nullptr);
            } else {
                ++custom_inflight;
                j->begin([&custom_inflight] { --custom_inflight; });
            }
        }
        comm.queue().run();
        for (const LockstepJob* j : due) {
            if (j->loop != nullptr) {
                THEMIS_ASSERT(!j->loop->iterationInFlight(),
                              "event queue drained before every job's "
                              "iteration finished (lost completion "
                              "callback?)");
                b += j->loop->lastIteration();
            } else {
                b += j->last();
            }
        }
        THEMIS_ASSERT(custom_inflight == 0,
                      "event queue drained before every job's request "
                      "finished (lost completion callback?)");
        CommRuntime::EpochStats s = comm.finishIterationEpoch();
        accumulate(r, b, s);
        ++r.simulated_iterations;
        ++r.epochs_simulated;
        return {std::move(b), std::move(s)};
    };

    for (long long i = 0; i < eff.iterations; ++i) {
        const auto [b, s] = simulate_epoch(i);
        record(i, b, s);

        const long long k = confirmedCycle();
        if (k > 0 && r.steady_at < 0) {
            r.steady_at = static_cast<int>(i);
            r.steady_fingerprint = s.fingerprint;
            r.cycle_length = static_cast<int>(k);
        }
        if (k == 0 || i + 1 >= eff.iterations)
            continue;

        // The confirmed cycle, oldest epoch first: rounds i - k + 1
        // .. i. Copied out of the ring — recording replayed rounds
        // recycles the very slots the cycle lives in.
        std::vector<Epoch> block;
        block.reserve(static_cast<std::size_t>(k));
        for (long long m = k - 1; m >= 0; --m)
            block.push_back(
                ring[static_cast<std::size_t>(i - m) % cap]);

        if (eff.exactness_check) {
            // Proof mode: predict the replayable span analytically,
            // then keep simulating and hold every round — and the
            // books over the span — to the prediction. Under a fault
            // timeline the span ends at the next phase boundary and
            // the outer loop re-enters detection there.
            const long long n =
                replayableSpan(eff.iterations - (i + 1), block);
            if (n == 0)
                continue; // fault boundary abuts: keep simulating
            ConvergenceReport predicted = r;
            for (long long m = 0; m < n; ++m) {
                const Epoch& e =
                    block[static_cast<std::size_t>(m % k)];
                accumulate(predicted, e.b, e.s);
            }
            for (long long m = 0; m < n; ++m) {
                ++i;
                const auto [bk, sk] = simulate_epoch(i);
                const Epoch& e =
                    block[static_cast<std::size_t>(m % k)];
                assertIdentical(bk, sk, e.b, e.s,
                                static_cast<int>(i));
                record(i, bk, sk);
            }
            THEMIS_ASSERT(resultsBitIdentical(r, predicted),
                          "exactness check: the replay prediction "
                          "diverged from the fully simulated run");
            continue;
        }
        if (eff.replay) {
            // Analytic replay: integrate the confirmed cycle forward
            // — O(dimensions + classes) additions per round, no
            // event loop — up to the next fault-phase boundary (or
            // the end of the run). When simulation resumes afterward
            // the replayed span is rounded down to whole cycles: the
            // runtime state only matches round i's after a full
            // cycle, so resuming mid-cycle would simulate from the
            // wrong phase. A partial tail is fine at the true end of
            // the run, where nothing resumes. The fault driver's
            // base advances by the same additions the simulated path
            // would apply, and detection resumes past the boundary.
            long long n =
                replayableSpan(eff.iterations - (i + 1), block);
            if (n < eff.iterations - (i + 1))
                n -= n % k;
            if (n == 0)
                continue; // fault boundary abuts: keep simulating
            TimeNs replayed_span = 0.0;
            for (long long m = 0; m < n; ++m) {
                const Epoch& e =
                    block[static_cast<std::size_t>(m % k)];
                accumulate(r, e.b, e.s);
                ++r.replayed_iterations;
                ++r.epochs_replayed;
                // Advances the fault driver's base plus the
                // telemetry/trace time bases by the same additions
                // the simulated path would apply.
                comm.noteReplayedEpoch(e.s.duration);
                replayed_span += e.s.duration;
                record(i + 1 + m, e.b, e.s);
            }
            if (auto* tel = comm.telemetry();
                tel != nullptr && tel->trace != nullptr) {
                // Replay-span metadata: one span covering the skipped
                // rounds, ending at the (already-advanced) absolute
                // now, so the Perfetto timeline shows where replay
                // stood in for simulation.
                char label[64];
                std::snprintf(label, sizeof(label),
                              "replay x%lld (cycle %d)", n,
                              static_cast<int>(k));
                const TimeNs end_abs = tel->trace->timeBase() +
                                       comm.queue().now();
                tel->trace->spanAbs(stats::TraceWriter::kRunPid,
                                    stats::TraceWriter::kReplayTid,
                                    label, end_abs - replayed_span,
                                    end_abs);
            }
            i += n;
            continue;
        }
        // Replay disabled (measurement baseline): keep simulating;
        // steady_at stays at the first detection point.
    }

    finalizeUtilization(r, comm.topology());
    return r;
}

} // namespace themis::workload
