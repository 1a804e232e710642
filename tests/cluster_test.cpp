/**
 * @file
 * Multi-job cluster co-simulation tests: single-job cluster ≡ plain
 * training loop, per-job wire-level byte conservation under
 * contention, per-class/per-job accounting consistency, urgent-tier
 * latency vs weight ratio, periodic-inference deadline accounting,
 * weight-aware admission headroom (≡ tier-blind under uniform
 * weights), phase-offset search, multi-loop lockstep convergence
 * (replay bit-identical to full simulation), and the replay refusal
 * guards for mixes that never reach a common steady state.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/hash.hpp"
#include "models/model_zoo.hpp"
#include "sim/fault_timeline.hpp"
#include "topology/presets.hpp"
#include "workload/convergence.hpp"

namespace themis {
namespace {

using cluster::Cluster;
using cluster::JobKind;
using cluster::JobScheduler;
using cluster::JobSpec;

runtime::RuntimeConfig
priorityConfig(double ratio)
{
    runtime::RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.scheduler = SchedulerKind::ThemisPriority;
    cfg.priority = ratio > 0.0 ? PriorityPolicy::tiered(ratio)
                               : PriorityPolicy::uniform();
    return cfg;
}

/** Two-job contention mix: bulk training + urgent periodic. */
std::vector<JobSpec>
contentionMix(int requests = 8)
{
    std::vector<JobSpec> specs;
    specs.push_back(JobSpec::training(
        models::byName("DLRM"), 2, 0.0,
        static_cast<int>(PriorityTier::Bulk)));
    JobSpec infer = JobSpec::periodicInference(
        3.2e7, 3.0e5, 5.0e5, 0.0,
        static_cast<int>(PriorityTier::Urgent));
    infer.max_requests = requests;
    specs.push_back(infer);
    return specs;
}

// ------------------------------------------------- single-job parity

TEST(Cluster, SingleTrainingJobMatchesPlainLoopBitForBit)
{
    const Topology topo = presets::byName("2D-SW_SW");
    const runtime::RuntimeConfig cfg = runtime::themisScfConfig();

    sim::EventQueue q1;
    Cluster cl(q1, topo, cfg,
               {JobSpec::training(models::byName("DLRM"), 3)});
    const auto rep = cl.run();

    sim::EventQueue q2;
    runtime::CommRuntime comm(q2, topo, cfg);
    workload::TrainingLoop loop(comm, models::byName("DLRM"));
    const auto plain = loop.run(3);

    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_EQ(rep.jobs[0].iterations, 3);
    EXPECT_TRUE(bitEquals(rep.jobs[0].totals.total, plain.total));
    EXPECT_TRUE(bitEquals(rep.jobs[0].totals.exposed_dp,
                          plain.exposed_dp));
    EXPECT_TRUE(bitEquals(rep.jobs[0].totals.exposed_mp,
                          plain.exposed_mp));
    EXPECT_TRUE(bitEquals(rep.makespan, q2.now()));
}

TEST(Cluster, AsyncSingleLoopIterationMatchesSynchronous)
{
    const Topology topo = presets::byName("2D-SW_SW");
    sim::EventQueue q1, q2;
    runtime::CommRuntime c1(q1, topo, runtime::themisScfConfig());
    runtime::CommRuntime c2(q2, topo, runtime::themisScfConfig());
    workload::TrainingLoop l1(c1, models::byName("GNMT"));
    workload::TrainingLoop l2(c2, models::byName("GNMT"));

    const auto sync_b = l1.runIteration();
    workload::IterationBreakdown async_b;
    bool fired = false;
    l2.beginIterationAsync(
        [&](const workload::IterationBreakdown& b) {
            async_b = b;
            fired = true;
        });
    EXPECT_TRUE(l2.iterationInFlight());
    q2.run();
    ASSERT_TRUE(fired);
    EXPECT_FALSE(l2.iterationInFlight());
    EXPECT_TRUE(workload::bitIdentical(sync_b, async_b));
}

// --------------------------------------------- per-job wire accounting

TEST(Cluster, PerJobBytesConservedUnderContention)
{
    const Topology topo = presets::byName("2D-SW_SW");
    // Each mix under uniform weights and four weight ladders must move
    // identical bytes per tenant: weights redistribute when bytes
    // move, never whose they are. The second mix runs two training
    // tenants beside a bounded urgent inference stream.
    std::vector<JobSpec> three;
    three.push_back(JobSpec::training(models::byName("DLRM"), 3));
    three.push_back(JobSpec::training(models::byName("GNMT"), 3));
    three.push_back(JobSpec::periodicInference(
        1.6e7, 4.0e5, 6.0e5, 0.0, static_cast<int>(PriorityTier::Urgent)));
    three.back().max_requests = 10;
    const std::vector<JobSpec> mixes[] = {contentionMix(), three};
    for (const auto& mix : mixes) {
        std::vector<cluster::ClusterReport> reps;
        for (double ratio : {0.0, 1.0, 4.0, 8.0, 16.0}) {
            sim::EventQueue q;
            Cluster cl(q, topo, priorityConfig(ratio), mix);
            reps.push_back(cl.run());
        }
        ASSERT_EQ(reps[0].jobs.size(), mix.size());
        for (const auto& rep : reps) {
            Bytes sum = 0.0;
            for (const auto& j : rep.jobs) {
                EXPECT_GT(j.progressed, 0.0);
                sum += j.progressed;
                EXPECT_NEAR(j.progressed,
                            reps[0]
                                .jobs[static_cast<std::size_t>(j.job)]
                                .progressed,
                            1e-6 * j.progressed);
            }
            EXPECT_NEAR(sum, rep.total_bytes, 1e-6 * rep.total_bytes);
        }
        // At unchanged bytes, tiered(8) buys the contention mix's
        // deadline-bound stream latency: it hits more deadlines than
        // uniform weights (the second mix hits all of them either way).
        if (&mix == &mixes[0]) {
            EXPECT_GT(reps[3].jobs.back().deadline_hit_rate,
                      reps[0].jobs.back().deadline_hit_rate);
        }
    }
}

TEST(Cluster, ClassAndJobAccountingConsistent)
{
    const Topology topo = presets::byName("2D-SW_SW");
    sim::EventQueue q;
    Cluster cl(q, topo, priorityConfig(8.0), contentionMix());
    const auto rep = cl.run();
    auto& comm = cl.runtime();

    // Per-class bytes (aggregated over jobs) and per-job bytes both
    // partition the same fabric total.
    Bytes class_sum = 0.0;
    double class_util = 0.0;
    for (const auto& c : rep.classes) {
        class_sum += c.progressed;
        class_util += c.utilization;
    }
    // Per-job bytes come from the departure-time captures in the
    // report: every job has departed by now, so the runtime retired
    // its live wire accounting.
    Bytes job_sum = 0.0;
    for (const auto& j : rep.jobs)
        job_sum += j.progressed;
    EXPECT_NEAR(class_sum, rep.total_bytes, 1e-6 * rep.total_bytes);
    EXPECT_NEAR(job_sum, rep.total_bytes, 1e-6 * rep.total_bytes);
    // Class utilizations sum to the fabric utilization (same windows,
    // same denominator) — the retired per-tier aggregates must fold
    // back in exactly.
    EXPECT_NEAR(class_util, rep.fabric_utilization,
                1e-9 + 1e-6 * rep.fabric_utilization);

    // Retirement proof: with all tenants departed, no shared channel
    // tracks any per-class account and no live job rows remain — the
    // state a job-churning fabric stays in forever.
    EXPECT_TRUE(comm.jobReports().empty());
    EXPECT_EQ(comm.liveJobCount(), 0u);
    for (int d = 0; d < comm.topology().numDims(); ++d) {
        auto& ch = comm.engine(d).channel();
        ch.sync();
        EXPECT_EQ(ch.trackedClassCount(), 0u);
        EXPECT_EQ(ch.numClasses(), 0);
    }
}

TEST(Cluster, UrgentLatencyImprovesMonotonicallyWithWeightRatio)
{
    const Topology topo = presets::byName("2D-SW_SW");
    // Urgent-tier mean request latency must not degrade as the weight
    // ratio grows. The stream's period sits well above its latency so
    // no backlog builds: each request's latency is then a pure
    // function of its GPS share against the bulk training traffic,
    // the regime where monotonicity is a theorem (open-loop overload
    // adds queueing feedback that makes the curve locally noisy; there
    // PerJobBytesConservedUnderContention compares only uniform
    // weights with tiered(8)).
    auto mix = [] {
        std::vector<JobSpec> specs;
        specs.push_back(JobSpec::training(
            models::byName("DLRM"), 3, 0.0,
            static_cast<int>(PriorityTier::Bulk)));
        JobSpec infer = JobSpec::periodicInference(
            3.2e7, 2.0e6, 0.0, 0.0,
            static_cast<int>(PriorityTier::Urgent));
        infer.max_requests = 6;
        specs.push_back(infer);
        return specs;
    };
    std::vector<TimeNs> lat;
    for (double ratio : {1.0, 4.0, 16.0}) {
        sim::EventQueue q;
        Cluster cl(q, topo, priorityConfig(ratio), mix());
        const auto rep = cl.run();
        lat.push_back(rep.jobs[1].mean_latency);
    }
    EXPECT_LE(lat[1], lat[0] * (1.0 + 1e-9));
    EXPECT_LE(lat[2], lat[1] * (1.0 + 1e-9));
    EXPECT_LT(lat[2], lat[0]);
}

// ------------------------------------------------- periodic inference

TEST(Cluster, DeadlineAccountingSoloStream)
{
    const Topology topo = presets::byName("2D-SW_SW");
    // Solo: every request sees an idle fabric, so a generous deadline
    // hits 100% and an impossible one misses 100%.
    for (double deadline : {1.0e6, 1.0e3}) {
        sim::EventQueue q;
        JobSpec infer = JobSpec::periodicInference(
            3.2e7, 1.0e6, deadline);
        infer.max_requests = 5;
        Cluster cl(q, topo, priorityConfig(1.0), {infer});
        const auto rep = cl.run();
        EXPECT_EQ(rep.jobs[0].requests_issued, 5);
        EXPECT_EQ(rep.jobs[0].requests_completed, 5);
        if (deadline > 1.0e5)
            EXPECT_DOUBLE_EQ(rep.jobs[0].deadline_hit_rate, 1.0);
        else
            EXPECT_DOUBLE_EQ(rep.jobs[0].deadline_hit_rate, 0.0);
        EXPECT_GT(rep.jobs[0].mean_latency, 0.0);
        EXPECT_GE(rep.makespan, rep.jobs[0].finished);
    }
}

TEST(Cluster, OpenEndedPeriodicStopsWhenTrainingDrains)
{
    const Topology topo = presets::byName("2D-SW_SW");
    sim::EventQueue q;
    std::vector<JobSpec> specs;
    specs.push_back(
        JobSpec::training(models::byName("DLRM"), 2));
    specs.push_back(JobSpec::periodicInference(1.6e7, 1.0e5));
    Cluster cl(q, topo, priorityConfig(4.0), std::move(specs));
    const auto rep = cl.run();
    // The stream issued at least once and stopped: every issued
    // request completed, and the job finished no later than the
    // makespan.
    EXPECT_GT(rep.jobs[1].requests_issued, 1);
    EXPECT_EQ(rep.jobs[1].requests_issued,
              rep.jobs[1].requests_completed);
    EXPECT_GE(rep.jobs[1].finished, 0.0);
    EXPECT_LE(rep.jobs[1].finished, rep.makespan);
}

TEST(Cluster, NeverArrivedPeriodicClosesCleanlyAtDrain)
{
    const Topology topo = presets::byName("2D-SW_SW");
    sim::EventQueue q;
    std::vector<JobSpec> specs;
    specs.push_back(JobSpec::training(models::byName("DLRM"), 2));
    // Arrives long after the training job drains: the pending arrival
    // must be cancelled (no makespan stretch) and the job closed with
    // zero work and a non-negative JCT.
    specs.push_back(
        JobSpec::periodicInference(1.6e7, 1.0e5, 0.0, 1.0e12));
    Cluster cl(q, topo, priorityConfig(1.0), std::move(specs));
    const auto rep = cl.run();
    EXPECT_EQ(rep.jobs[1].requests_issued, 0);
    EXPECT_GE(rep.jobs[1].jct(), 0.0);
    EXPECT_DOUBLE_EQ(rep.makespan, rep.jobs[0].finished);
    EXPECT_LT(rep.makespan, 1.0e12);
}

TEST(Cluster, OpenEndedPeriodicWithoutTrainingRejected)
{
    EXPECT_THROW(
        JobScheduler({JobSpec::periodicInference(1.6e7, 1.0e5)}),
        ConfigError);
}

// --------------------------------------- weight-aware admission (S1)

TEST(Admission, WeightAwareBitIdenticalToTierBlindUnderUniform)
{
    const Topology topo = presets::byName("3D-SW_SW_SW_homo");
    // Uniform weights: the weighted service demand reduces to the
    // plain transfer-time sum term for term, so full runs reproduce
    // the durations the retired tier-blind check recorded, bit for
    // bit.
    const std::vector<TimeNs> want[2] = {
        {0x1.dd74e1cp+21, 0x1.143336ep+22, 0x1.39abfcep+22,
         0x1.5f24c2ep+22},
        {0x1.39b13848e38e3p+22, 0x1.6d9e9eep+21, 0x1.6d471eep+20,
         0x1.5f29fe48e38e3p+22},
    };
    for (bool tiered_classes : {false, true}) {
        runtime::RuntimeConfig cfg = runtime::themisScfConfig();
        if (tiered_classes) {
            // tiered(1): classes separated, weights all 1.
            cfg.scheduler = SchedulerKind::ThemisPriority;
            cfg.priority = PriorityPolicy::tiered(1.0);
        }
        sim::EventQueue q;
        runtime::CommRuntime comm(q, topo, cfg);
        std::vector<int> ids;
        for (int i = 0; i < 4; ++i) {
            CollectiveRequest req;
            req.type = CollectiveType::AllReduce;
            req.size = 2.0e8;
            req.chunks = 32;
            req.priority_tier = i % kNumPriorityTiers;
            ids.push_back(comm.issue(req));
        }
        q.run();
        const std::vector<TimeNs>& w = want[tiered_classes ? 1 : 0];
        ASSERT_EQ(ids.size(), w.size());
        for (std::size_t i = 0; i < ids.size(); ++i)
            EXPECT_TRUE(bitEquals(comm.record(ids[i]).duration(), w[i]))
                << "tiered_classes=" << tiered_classes << " op " << i;
    }
}

TEST(Admission, WeightAwareHeadroomHelpsUrgentUnderWeights)
{
    const Topology topo = presets::byName("2D-SW_SW");
    // With real weight ladders the weight-aware check admits urgent
    // work a bulk backlog would have blocked; the urgent stream must
    // be no slower than under the retired tier-blind check, whose
    // mean latency on this mix is recorded here.
    const TimeNs unweighted_mean = 0x1.29ff867e3035bp+18;
    sim::EventQueue q;
    Cluster cl(q, topo, priorityConfig(16.0), contentionMix());
    EXPECT_LE(cl.run().jobs[1].mean_latency,
              unweighted_mean * (1.0 + 1e-9));
}

// ---------------------------------------------------- offset search

TEST(Cluster, OffsetSearchNeverLosesToZeroOffset)
{
    const Topology topo = presets::byName("2D-SW_SW");
    std::vector<JobSpec> twins;
    twins.push_back(JobSpec::training(models::byName("DLRM"), 2));
    twins.push_back(JobSpec::training(models::byName("DLRM"), 2));
    cluster::OffsetSearchOptions opts;
    opts.steps = 4;
    opts.iterations = 2;
    const auto res = cluster::searchPhaseOffsets(
        topo, priorityConfig(1.0), twins, opts);
    ASSERT_EQ(res.candidates.size(), 4u);
    EXPECT_GT(res.base_period, 0.0);
    // f = 0 is always evaluated, so best <= zero by construction.
    EXPECT_LE(res.best.metric, res.zero_metric);
    EXPECT_DOUBLE_EQ(res.candidates[0].metric, res.zero_metric);
    // Zero offsets for candidate 0; job 0 never shifts.
    for (const auto& c : res.candidates)
        EXPECT_DOUBLE_EQ(c.offsets[0], 0.0);
    EXPECT_DOUBLE_EQ(res.candidates[0].offsets[1], 0.0);

    // Over 4 iterations and 8 candidates, interleaving the twins'
    // communication bursts strictly beats arriving together.
    opts.steps = 8;
    opts.iterations = 4;
    const auto wide = cluster::searchPhaseOffsets(
        topo, priorityConfig(1.0), twins, opts);
    EXPECT_LT(wide.best.metric, wide.zero_metric);
}

// --------------------------------------- lockstep convergence (S2)

TEST(Cluster, LockstepConvergenceReplayBitIdenticalToFullSim)
{
    const Topology topo = presets::byName("2D-SW_SW");
    auto mix = [] {
        std::vector<JobSpec> specs;
        specs.push_back(
            JobSpec::training(models::byName("DLRM"), 8));
        specs.push_back(
            JobSpec::training(models::byName("GNMT"), 8));
        return specs;
    };
    workload::ConvergenceOptions with_replay;
    with_replay.iterations = 8;
    workload::ConvergenceOptions no_replay = with_replay;
    no_replay.replay = false;

    sim::EventQueue q1;
    Cluster c1(q1, topo, runtime::themisScfConfig(), mix());
    ASSERT_TRUE(c1.replayEligibility().eligible);
    const auto replayed = c1.runConverged(with_replay);

    sim::EventQueue q2;
    Cluster c2(q2, topo, runtime::themisScfConfig(), mix());
    const auto full = c2.runConverged(no_replay);

    EXPECT_GE(replayed.steady_at, 0);
    EXPECT_GT(replayed.replayed_iterations, 0);
    EXPECT_EQ(full.replayed_iterations, 0);
    EXPECT_TRUE(workload::resultsBitIdentical(replayed, full));
    EXPECT_TRUE(replayed.replay_refusal.empty());
}

TEST(Cluster, LockstepExactnessCheckPassesOnTwoJobMix)
{
    const Topology topo = presets::byName("2D-SW_SW");
    std::vector<JobSpec> specs;
    specs.push_back(JobSpec::training(models::byName("DLRM"), 6));
    specs.push_back(JobSpec::training(models::byName("DLRM"), 6));
    workload::ConvergenceOptions opts;
    opts.iterations = 6;
    opts.exactness_check = true; // asserts internally on divergence
    sim::EventQueue q;
    Cluster cl(q, topo, runtime::themisScfConfig(),
               std::move(specs));
    const auto r = cl.runConverged(opts);
    EXPECT_GE(r.steady_at, 0);
    EXPECT_EQ(r.simulated_iterations, 6);
}

/** Training + open-ended periodic tenants with commensurate periods:
 *  the period-k lockstep path. Periods @p p1 : @p p2 set the round
 *  cadences (gcd-reduced). */
std::vector<JobSpec>
lockstepMix(int iters, double p1, double p2)
{
    std::vector<JobSpec> specs;
    specs.push_back(JobSpec::training(
        models::byName("DLRM"), iters, 0.0,
        static_cast<int>(PriorityTier::Bulk)));
    specs.push_back(JobSpec::periodicInference(
        1.6e7, p1, 0.0, 0.0,
        static_cast<int>(PriorityTier::Urgent)));
    specs.push_back(JobSpec::periodicInference(
        3.2e7, p2, 0.0, 0.0,
        static_cast<int>(PriorityTier::Urgent)));
    return specs;
}

TEST(Cluster, PeriodicMixNowEligibleForLockstepReplay)
{
    // PR 7 refused every training+periodic mix; the period-k engine
    // lifts that for open-ended commensurate streams. A single
    // periodic tenant gcd-reduces to cadence 1 (hyper-period 1).
    std::vector<JobSpec> specs;
    specs.push_back(JobSpec::training(models::byName("DLRM"), 10));
    specs.push_back(JobSpec::periodicInference(1.6e7, 1.0e5));
    const auto plan = JobScheduler(specs).lockstepPlan();
    ASSERT_TRUE(plan.eligible) << plan.reason;
    EXPECT_EQ(plan.hyper_period, 1);
    ASSERT_EQ(plan.cadences.size(), 2u);
    EXPECT_EQ(plan.cadences[1], 1);

    workload::ConvergenceOptions with_replay;
    with_replay.iterations = 10;
    workload::ConvergenceOptions no_replay = with_replay;
    no_replay.replay = false;

    sim::EventQueue q1;
    Cluster c1(q1, presets::byName("2D-SW_SW"), priorityConfig(4.0),
               specs);
    const auto replayed = c1.runConverged(with_replay);
    sim::EventQueue q2;
    Cluster c2(q2, presets::byName("2D-SW_SW"), priorityConfig(4.0),
               specs);
    const auto full = c2.runConverged(no_replay);

    EXPECT_GE(replayed.steady_at, 0);
    EXPECT_EQ(replayed.cycle_length, 1);
    EXPECT_GT(replayed.epochs_replayed, 0);
    EXPECT_TRUE(workload::resultsBitIdentical(replayed, full));
}

TEST(Cluster, PeriodKReplayBitIdenticalOnTwoThreeMix)
{
    // Cadences 2:3 -> stepping hyper-period 6. The joint trajectory
    // only repeats with period 6, so the period-1 detector would
    // never fire; the period-k detector must confirm a 6-round cycle
    // and replay the remainder bit-identically.
    const auto specs = lockstepMix(30, 2.0e5, 3.0e5);
    const auto plan = JobScheduler(specs).lockstepPlan();
    ASSERT_TRUE(plan.eligible) << plan.reason;
    EXPECT_EQ(plan.hyper_period, 6);
    EXPECT_EQ(plan.cadences[1], 2);
    EXPECT_EQ(plan.cadences[2], 3);

    workload::ConvergenceOptions with_replay;
    with_replay.iterations = 30;
    workload::ConvergenceOptions no_replay = with_replay;
    no_replay.replay = false;

    sim::EventQueue q1;
    Cluster c1(q1, presets::byName("2D-SW_SW"), priorityConfig(4.0),
               specs);
    const auto replayed = c1.runConverged(with_replay);
    sim::EventQueue q2;
    Cluster c2(q2, presets::byName("2D-SW_SW"), priorityConfig(4.0),
               specs);
    const auto full = c2.runConverged(no_replay);

    EXPECT_GE(replayed.steady_at, 0);
    EXPECT_EQ(replayed.cycle_length, 6);
    EXPECT_EQ(replayed.hyper_period, 6);
    EXPECT_GT(replayed.epochs_replayed, 0);
    EXPECT_EQ(replayed.epochs_simulated + replayed.epochs_replayed,
              30);
    EXPECT_EQ(full.epochs_replayed, 0);
    EXPECT_EQ(full.cycle_length, replayed.cycle_length);
    EXPECT_TRUE(workload::resultsBitIdentical(replayed, full));
    EXPECT_TRUE(replayed.replay_refusal.empty());
}

TEST(Cluster, PeriodKExactnessCheckPassesOnThreeFiveMix)
{
    // Cadences 3:5 -> hyper-period 15; exactness mode co-simulates
    // every post-detection round and asserts it (and the final
    // totals) bit-identical to the cyclic replay prediction.
    const auto specs = lockstepMix(40, 3.0e5, 5.0e5);
    workload::ConvergenceOptions opts;
    opts.iterations = 40;
    opts.exactness_check = true; // asserts internally on divergence
    sim::EventQueue q;
    Cluster cl(q, presets::byName("2D-SW_SW"), priorityConfig(4.0),
               specs);
    const auto r = cl.runConverged(opts);
    EXPECT_GE(r.steady_at, 0);
    EXPECT_EQ(r.cycle_length, 15);
    EXPECT_EQ(r.hyper_period, 15);
    EXPECT_EQ(r.epochs_simulated, 40);
}

TEST(Cluster, ReplayRefusedWhenCycleLimitBelowHyperPeriod)
{
    // Hyper-period 6 but a limit of 4: no multiple of 6 fits, so the
    // plan must refuse with the computed lcm in the diagnostic and
    // the cluster entry point must throw.
    const auto specs = lockstepMix(12, 2.0e5, 3.0e5);
    const auto plan = JobScheduler(specs).lockstepPlan(4);
    EXPECT_FALSE(plan.eligible);
    EXPECT_NE(plan.reason.find("lcm = 6"), std::string::npos)
        << plan.reason;
    EXPECT_NE(plan.reason.find("cycle limit 4"), std::string::npos);

    sim::EventQueue q;
    Cluster cl(q, presets::byName("2D-SW_SW"), priorityConfig(4.0),
               specs);
    workload::ConvergenceOptions opts;
    opts.iterations = 12;
    opts.cycle_limit = 4;
    EXPECT_THROW(cl.runConverged(opts), ConfigError);
}

TEST(Cluster, ReplayRefusedForCoPrimePeriods)
{
    // 9973 and 10007 ns are prime: the cadence lcm is ~1e8 rounds,
    // far beyond any practical cycle limit. The diagnostic must name
    // the offending pair so the user can fix the periods.
    std::vector<JobSpec> specs;
    specs.push_back(JobSpec::training(models::byName("DLRM"), 4));
    specs.push_back(JobSpec::periodicInference(1.6e7, 9973.0));
    specs.push_back(JobSpec::periodicInference(3.2e7, 10007.0));
    const auto plan = JobScheduler(specs).lockstepPlan();
    EXPECT_FALSE(plan.eligible);
    EXPECT_NE(plan.reason.find("lcm"), std::string::npos);
    EXPECT_NE(plan.reason.find("co-prime"), std::string::npos);
    EXPECT_NE(plan.reason.find("infer:"), std::string::npos);
    EXPECT_NE(plan.reason.find("worst pair"), std::string::npos)
        << plan.reason;
}

TEST(Cluster, ReplayRefusedForBoundedPeriodicStreams)
{
    // A bounded stream stops mid-run, so no round pattern repeats
    // forever; the old blanket refusal survives for this case.
    const auto elig =
        JobScheduler(contentionMix()).replayEligibility();
    EXPECT_FALSE(elig.eligible);
    EXPECT_NE(elig.reason.find("bounded"), std::string::npos);
}

TEST(Cluster, ReplayRefusedForSubNanosecondPeriodRounding)
{
    // llround(0.4) == 0: cadence derivation must reject it loudly
    // instead of silently clamping to cadence 1.
    std::vector<JobSpec> specs;
    specs.push_back(JobSpec::training(models::byName("DLRM"), 2));
    specs.push_back(JobSpec::periodicInference(1.6e7, 0.4));
    const auto plan = JobScheduler(specs).lockstepPlan();
    EXPECT_FALSE(plan.eligible);
    EXPECT_NE(plan.reason.find("rounds to"), std::string::npos)
        << plan.reason;
    EXPECT_NE(plan.reason.find("0.4"), std::string::npos);
}

TEST(Cluster, FaultEventInterruptedCycleReplayStaysBitIdentical)
{
    // A degrade window lands mid-run: replay must stop short of the
    // event, re-simulate through it, re-confirm the cycle, and still
    // produce bit-identical totals on a 2:3 mix.
    const auto specs = lockstepMix(36, 2.0e5, 3.0e5);
    sim::FaultTimeline tl;
    tl.addDegrade(0, 1.0e7, 5.0e5, 0.5);

    auto run = [&](bool replay) {
        runtime::RuntimeConfig cfg = priorityConfig(4.0);
        cfg.faults = &tl;
        sim::EventQueue q;
        Cluster cl(q, presets::byName("2D-SW_SW"), cfg, specs);
        workload::ConvergenceOptions opts;
        opts.iterations = 36;
        opts.replay = replay;
        return cl.runConverged(opts);
    };
    const auto replayed = run(true);
    const auto full = run(false);
    EXPECT_EQ(full.epochs_replayed, 0);
    EXPECT_TRUE(workload::resultsBitIdentical(replayed, full));
}

TEST(Cluster, ReplayRefusedForStaggeredArrivals)
{
    std::vector<JobSpec> specs;
    specs.push_back(JobSpec::training(models::byName("DLRM"), 2));
    specs.push_back(
        JobSpec::training(models::byName("DLRM"), 2, 5.0e4));
    const auto elig = JobScheduler(specs).replayEligibility();
    EXPECT_FALSE(elig.eligible);
    EXPECT_NE(elig.reason.find("arrive"), std::string::npos);
}

TEST(Convergence, SingleLoopReplayRefusedOnMultiJobRuntime)
{
    const Topology topo = presets::byName("2D-SW_SW");
    sim::EventQueue q;
    runtime::CommRuntime comm(q, topo, runtime::themisScfConfig());
    // Another tenant used this runtime first (job 1), then drained.
    CollectiveRequest other;
    other.type = CollectiveType::AllReduce;
    other.size = 1.0e8;
    other.job = 1;
    comm.issue(other);
    q.run();
    EXPECT_EQ(comm.jobsObserved(), 2);

    workload::TrainingLoop loop(comm, models::byName("DLRM"));
    workload::ConvergenceOptions opts;
    opts.iterations = 4;
    const auto r = workload::runConverged(comm, loop, opts);
    EXPECT_FALSE(r.replay_refusal.empty());
    EXPECT_EQ(r.replayed_iterations, 0);
    EXPECT_EQ(r.simulated_iterations, 4);
}

TEST(Convergence, MultiLoopReplayRefusedWhenAJobIdGapIsUncovered)
{
    const Topology topo = presets::byName("2D-SW_SW");
    sim::EventQueue q;
    runtime::CommRuntime comm(q, topo, runtime::themisScfConfig());
    // A tenant at job 1, inside the range the loops span ({0, 2}),
    // must still trigger the refusal — coverage is a set property,
    // not a maximum.
    CollectiveRequest other;
    other.type = CollectiveType::AllReduce;
    other.size = 1.0e8;
    other.job = 1;
    comm.issue(other);
    q.run();

    workload::TrainingLoop l0(comm, models::byName("DLRM"));
    workload::TrainingLoop l2(comm, models::byName("DLRM"));
    l0.setJob(0);
    l2.setJob(2);
    workload::ConvergenceOptions opts;
    opts.iterations = 3;
    const auto r = workload::runConverged(
        comm, std::vector<workload::TrainingLoop*>{&l0, &l2}, opts);
    EXPECT_FALSE(r.replay_refusal.empty());
    EXPECT_NE(r.replay_refusal.find("job 1"), std::string::npos);
    EXPECT_EQ(r.replayed_iterations, 0);
}

// --------------------------------------------------- misc validation

TEST(Cluster, JobSpecValidation)
{
    EXPECT_THROW(JobScheduler({}), ConfigError);
    JobSpec bad_train =
        JobSpec::training(models::byName("DLRM"), 0);
    EXPECT_THROW(JobScheduler({bad_train}), ConfigError);
    JobSpec bad_infer = JobSpec::periodicInference(0.0, 1.0e5);
    EXPECT_THROW(JobScheduler({bad_infer}), ConfigError);
    JobSpec bad_period = JobSpec::periodicInference(1.0e7, 0.0);
    EXPECT_THROW(JobScheduler({bad_period}), ConfigError);
}

TEST(Cluster, InferSpecWithoutPeriodSaysPeriodIsRequired)
{
    std::string msg;
    try {
        (void)cluster::parseJobSpecs("train:DLRM;infer:3.2e7", 4);
    } catch (const ConfigError& e) {
        msg = e.what();
    }
    EXPECT_EQ(msg, "job entry 2 ('infer:3.2e7'): period= is required "
                   "(infer:SIZE,period=NS[,k=v])");
    // A period given but not positive still names its value.
    try {
        (void)cluster::parseJobSpecs("infer:3.2e7,period=0", 4);
        msg.clear();
    } catch (const ConfigError& e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("period must be positive, got 0"), std::string::npos)
        << msg;
    EXPECT_EQ(cluster::parseJobSpecs("infer:3.2e7,period=1e6", 4)
                  .front()
                  .period,
              1.0e6);
}

TEST(Cluster, StaggeredArrivalsRunAndFinishInOrderOfWork)
{
    const Topology topo = presets::byName("2D-SW_SW");
    sim::EventQueue q;
    std::vector<JobSpec> specs;
    specs.push_back(JobSpec::training(models::byName("DLRM"), 2));
    specs.push_back(
        JobSpec::training(models::byName("DLRM"), 2, 2.0e5));
    Cluster cl(q, topo, runtime::themisScfConfig(),
               std::move(specs));
    const auto rep = cl.run();
    EXPECT_DOUBLE_EQ(rep.jobs[1].arrival, 2.0e5);
    // Both jobs ran to completion; the staggered one finished last
    // (same work, later start under symmetric contention).
    EXPECT_EQ(rep.jobs[0].iterations, 2);
    EXPECT_EQ(rep.jobs[1].iterations, 2);
    EXPECT_GT(rep.jobs[1].finished, rep.jobs[0].finished);
    EXPECT_DOUBLE_EQ(rep.makespan, rep.jobs[1].finished);
}

// -------------------------------------------------- accounting churn

TEST(Cluster, ThousandJobChurnKeepsAccountingBounded)
{
    // 1000 short tenants churn through one runtime in overlapping
    // batches. Retiring each departed job must keep every per-job
    // accounting map sized by *concurrent* tenancy — the channels'
    // class maps, the utilization tracker's window accounts, and the
    // live-job set — while conservation still closes over the
    // departure-time captures.
    const Topology topo = presets::byName("2D-SW_SW");
    sim::EventQueue q;
    runtime::CommRuntime comm(q, topo, runtime::themisScfConfig());

    constexpr int kJobs = 1000;
    constexpr int kBatch = 4; // concurrent tenants per wave
    Bytes retired_sum = 0.0;
    for (int base = 0; base < kJobs; base += kBatch) {
        for (int j = base; j < base + kBatch; ++j) {
            CollectiveRequest req;
            req.type = CollectiveType::AllReduce;
            req.size = 1.0e6;
            req.chunks = 2;
            req.priority_tier = j % kNumPriorityTiers;
            req.job = j;
            comm.issue(req);
        }
        q.run();
        for (int j = base; j < base + kBatch; ++j) {
            const auto r = comm.retireJob(j);
            EXPECT_EQ(r.job, j);
            EXPECT_EQ(r.issued, 1);
            EXPECT_EQ(r.completed, 1);
            EXPECT_GT(r.progressed, 0.0);
            retired_sum += r.progressed;
        }
        // Bounded-by-tenancy invariant, checked every wave: nothing
        // grows with the number of jobs already churned through.
        for (int d = 0; d < comm.topology().numDims(); ++d) {
            EXPECT_LE(
                comm.engine(d).channel().trackedClassCount(),
                static_cast<std::size_t>(kBatch *
                                         kNumPriorityTiers));
        }
        EXPECT_LE(comm.utilization().trackedClassCount(),
                  static_cast<std::size_t>(kBatch *
                                           kNumPriorityTiers));
        EXPECT_LE(comm.liveJobCount(),
                  static_cast<std::size_t>(kBatch + 1));
    }
    EXPECT_EQ(comm.jobsObserved(), kJobs);
    EXPECT_EQ(comm.liveJobCount(), 0u);

    // Per-tenant conservation over the whole churn: the sum of the
    // departure captures equals the fabric's total progressed bytes.
    Bytes fabric = 0.0;
    for (int d = 0; d < comm.topology().numDims(); ++d) {
        comm.engine(d).channel().sync();
        fabric += comm.engine(d).channel().progressedBytes();
    }
    EXPECT_NEAR(retired_sum, fabric, 1e-6 * fabric);

    // The per-tier aggregates keep the retired jobs' bytes visible in
    // the class reports even though every per-job account is gone.
    Bytes tier_sum = 0.0;
    for (const auto& c : comm.classReports())
        tier_sum += c.progressed;
    EXPECT_NEAR(tier_sum, fabric, 1e-6 * fabric);
}

} // namespace
} // namespace themis
