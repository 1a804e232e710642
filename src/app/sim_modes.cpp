// The single-runtime modes: one collective, --iterations, --jobs and
// the --priority demo.

#include <cmath>
#include <functional>

#include "app/app.hpp"
#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "core/ideal_estimator.hpp"
#include "core/themis_scheduler.hpp"
#include "models/model_zoo.hpp"
#include "npu/npu_machine.hpp"
#include "topology/provisioning.hpp"
#include "workload/convergence.hpp"

namespace themis::app {

using stats::telemetry::RunReport;
using stats::telemetry::Unit;

namespace {

/**
 * The "fault" table (with --faults; @p scope names the part of the run
 * its counters cover) and the adaptation facts (with --adapt).
 */
void
reportFaults(RunReport& report, const Session& s, const Topology& topo,
             const runtime::CommRuntime& comm, const char* scope = nullptr)
{
    if (s.opt.adapt) {
        report.setNumber("replans", static_cast<double>(comm.replanCount()),
                         Unit::Count);
        report.setInfo("capacity_fingerprint",
                       hex16(comm.capacityFingerprint()));
    }
    if (s.opt.faults.empty())
        return;
    report.setInfo("faults", s.opt.faults);
    if (scope != nullptr)
        report.setInfo("fault_scope", scope);
    const auto& ut = comm.utilization();
    auto& t = report.addTable(
        "fault", {{"dim", "Dim"},
                  {"capacity_events", "Capacity steps", Unit::Count},
                  {"flaps", "Flaps", Unit::Count},
                  {"down_time_ns", "Down time", Unit::Time},
                  {"retries", "Retries", Unit::Count},
                  {"backoff_p99_ns", "Backoff p99", Unit::Time},
                  {"backoff_max_ns", "Backoff max", Unit::Time},
                  {"lost_bytes", "Lost bytes", Unit::Bytes},
                  {"fatal_retries", "Fatal", Unit::Count}});
    for (int d = 0; d < topo.numDims(); ++d) {
        const auto i = static_cast<std::size_t>(d);
        const auto& backoff = ut.retryBackoff(i);
        const bool backed_off = backoff.count() > 0;
        t.addRow({"dim" + std::to_string(d + 1) + " (" +
                      dimKindName(topo.dim(d).kind) + ")",
                  ut.capacityEvents()[i], ut.flaps()[i],
                  {ut.downTime()[i], ut.flaps()[i] > 0}, ut.retries()[i],
                  {backed_off ? backoff.percentile(0.99) : -1.0, backed_off},
                  {backed_off ? backoff.max() : -1.0, backed_off},
                  {ut.retryLostBytes()[i], ut.retries()[i] > 0},
                  {ut.fatalRetries()[i], ut.fatalRetries()[i] > 0}});
    }
}

/**
 * Run @p run with the convergence options of the run flags, timed, and
 * report its facts counted in @p unit: "iterations" of one model, or
 * lockstep "rounds" of a job mix, where the steady state is a cycle.
 * Under --exact, confirming no steady state means the exactness
 * assertions never ran, so the run fails rather than passing
 * vacuously.
 */
template <typename Run>
workload::ConvergenceReport
converge(RunReport& report, const Options& opt, int iterations,
         const std::string& unit, Run run)
{
    workload::ConvergenceOptions copts;
    copts.iterations = iterations;
    copts.replay = !opt.no_replay;
    copts.exactness_check = opt.exact;
    copts.cycle_limit = opt.cycle_limit;
    const double t0 = nowMs();
    const workload::ConvergenceReport r = run(copts);
    const double wall_ms = nowMs() - t0;
    const bool rounds = unit == "rounds";
    if (r.steady_at < 0 && opt.exact)
        THEMIS_FATAL("--exact: no steady "
                     << (rounds ? "cycle" : "state")
                     << " was confirmed, so nothing was asserted; "
                     << "raise --iterations"
                     << (rounds ? " (the mix needs ~2x its hyper-period of "
                                  "rounds) or --cycle-limit"
                                : ""));
    report.setInfo("run", opt.exact ? "exactness"
                          : opt.no_replay ? "full"
                                          : "replay");
    report.setNumber(unit, r.iterations, Unit::Count);
    report.setNumber("simulated_" + unit, r.simulated_iterations, Unit::Count);
    report.setNumber("replayed_" + unit, r.replayed_iterations, Unit::Count);
    if (rounds) {
        report.setNumber("hyper_period", r.hyper_period, Unit::Count);
        report.setNumber("simulated_epochs", r.epochs_simulated, Unit::Count);
        report.setNumber("replayed_epochs", r.epochs_replayed, Unit::Count);
    }
    report.setNumber("cycle_length", r.cycle_length, Unit::Count);
    report.setNumber("steady_at", r.steady_at, Unit::Count);
    if (r.steady_at >= 0)
        report.setInfo("steady_fingerprint", hex16(r.steady_fingerprint));
    if (opt.exact)
        report.setInfo("exactness",
                       "replay prediction asserted bit-identical");
    if (!r.replay_refusal.empty())
        report.setInfo("replay_refusal", r.replay_refusal);
    report.setNumber("total_ns", r.total.total, Unit::Time);
    report.setNumber("iteration_ns", r.last.total, Unit::Time);
    report.setNumber("utilization", r.utilization, Unit::Percent);
    report.setNumber("wall_ms", wall_ms);
    return r;
}

/** The "jobs" table of @p jobs; @p lockstep rows carry the run's JCT
 *  and cycle units instead of wire totals. */
void
reportJobs(RunReport& report, const std::vector<cluster::JobStats>& jobs,
           const workload::ConvergenceReport* lockstep = nullptr,
           const std::vector<int>& cadences = {})
{
    auto& t = report.addTable(
        "jobs", {{"job", ""}, {"name", "Job"}, {"kind", "Kind"},
                 {"arrival_ns", "Arrival", Unit::Time}, {"finished_ns", ""},
                 {"jct_ns", "JCT", Unit::Time}, {"units", "Units", Unit::Count},
                 {"mean_unit_ns", "Mean unit", Unit::Time},
                 {"unit_p99_ns", "p99 unit", Unit::Time},
                 {"unit_max_ns", "Max unit", Unit::Time},
                 {"exposed_share", "Exposed", Unit::Percent},
                 {"deadline_hit_rate", "Deadline", Unit::Percent},
                 {"progressed_bytes", "Bytes", Unit::Bytes},
                 {"utilization", "BW share", Unit::Percent},
                 {"cycle_units", "Cycle units", Unit::Count},
                 {"iterations", ""}, {"mean_iteration_ns", ""},
                 {"requests_issued", ""}, {"requests_completed", ""},
                 {"mean_latency_ns", ""}, {"deadline_hits", ""},
                 {"deadline_misses", ""}});
    // Replayed lockstep rounds carry no per-job wire totals.
    const bool wire = lockstep == nullptr;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const cluster::JobStats& j = jobs[i];
        const bool train = j.kind == cluster::JobKind::Training;
        const int units = train ? j.iterations : j.requests_completed;
        const int cycle_units = !wire && lockstep->cycle_length > 0
                                    ? lockstep->cycle_length / cadences[i]
                                    : -1;
        t.addRow({j.job, j.name, cluster::jobKindName(j.kind), j.arrival,
                  j.finished, wire ? j.jct() : lockstep->total.total, units,
                  {train ? j.mean_iteration : j.mean_latency, units > 0},
                  {j.unit_p99, j.unit_p99 >= 0.0},
                  {j.unit_max, j.unit_max >= 0.0},
                  {j.exposed_share, j.exposed_share >= 0.0},
                  {j.deadline_hit_rate, j.deadline_hit_rate >= 0.0},
                  {j.progressed, wire}, {j.utilization, wire},
                  {cycle_units, cycle_units >= 0}, j.iterations,
                  j.mean_iteration, j.requests_issued, j.requests_completed,
                  j.mean_latency, j.deadline_hits, j.deadline_misses});
    }
}

/**
 * The "classes" table of @p classes, with the contention slowdown of
 * each class (<= 0: none) and, under a uniform policy, one mixed
 * class.
 */
void
reportClasses(RunReport& report,
              const std::vector<runtime::CommRuntime::ClassReport>& classes,
              const std::vector<double>& slowdowns, bool uniform = false)
{
    auto& t = report.addTable(
        "classes", {{"tier", ""}, {"name", "Class"},
                    {"weight", "Weight", Unit::Factor}, {"issued", ""},
                    {"completed", "Collectives", Unit::Count},
                    {"mean_duration_ns", "Mean time", Unit::Time},
                    {"progressed_bytes", "Bytes", Unit::Bytes},
                    {"utilization", "BW share", Unit::Percent},
                    {"slowdown", "Slowdown", Unit::Factor}});
    for (std::size_t i = 0; i < classes.size(); ++i) {
        const auto& c = classes[i];
        const double slowdown = i < slowdowns.size() ? slowdowns[i] : 0.0;
        t.addRow({c.tier, uniform ? "all (uniform)" : priorityTierName(c.tier),
                  c.weight, c.issued, c.completed,
                  {c.mean_duration, c.completed > 0}, c.progressed,
                  c.utilization, {slowdown, slowdown > 0.0}});
    }
}

} // namespace

int
runSingle(Session& s)
{
    const Options& o = s.opt;
    const Topology topo = resolveTopology(o.topo);
    const runtime::RuntimeConfig cfg = s.runtimeConfig(topo);
    CollectiveRequest req;
    req.size = o.size;
    req.chunks = o.chunks;
    req.type = *parseCollectiveType(o.type);

    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    const int id = comm.issue(req);
    queue.run();
    comm.finalizeStats();

    const TimeNs time = comm.record(id).duration();
    const auto model = LatencyModel::fromTopology(topo);
    RunReport report("single");
    reportTopology(report, topo, comm.utilization().perDimUtilization());
    report.setInfo("collective", collectiveTypeName(req.type));
    report.setInfo("scheduler", schedulerKindName(cfg.scheduler));
    report.setInfo("sched", schedulerSetups()[*schedulerIndex(o.sched)].name);
    if (o.enforce)
        report.setInfo("order", "enforced");
    report.setNumber("size_bytes", req.size, Unit::Bytes);
    report.setNumber("chunks", o.chunks, Unit::Count);
    report.setNumber("time_ns", time, Unit::Time);
    report.setNumber("utilization",
                     comm.utilization().weightedUtilization(), Unit::Percent);
    report.setNumber("ideal_ns", idealCollectiveTime(req.type, req.size, model),
                     Unit::Time);
    auto& pairs = report.addTable("provisioning",
                                  {{"pair", "Dims"},
                                   {"scenario", "Provisioning"},
                                   {"ratio", "Ratio"}});
    for (const auto& pair : classifyAllPairs(topo))
        pairs.addRow({"dim" + std::to_string(pair.dim_k + 1) + " vs dim" +
                          std::to_string(pair.dim_l + 1),
                      provisionScenarioName(pair.scenario), pair.ratio});
    if (o.validate) {
        // Re-simulate with every NPU modelled individually; on a
        // symmetric platform the two backends must agree.
        auto sched = makeScheduler(cfg.scheduler, model);
        const auto schedules = sched->scheduleCollective(
            req.type, schedulableSize(req.type, req.size, model.dimSizes()),
            req.chunks);
        npu::NpuSimConfig npu_cfg;
        npu_cfg.policy = cfg.intra_policy;
        const auto per_npu =
            npu::simulatePerNpu(topo, req.type, schedules, npu_cfg);
        report.setInfo("per_npu", per_npu.completed ? "completed" : "DEADLOCK");
        report.setNumber("per_npu_ns", per_npu.makespan, Unit::Time);
        report.setNumber("per_npu_error",
                         std::abs(per_npu.makespan - time) / time,
                         Unit::Percent);
    }
    reportFaults(report, s, topo, comm);
    s.finish(report);
    return 0;
}

int
runIterations(Session& s)
{
    const Options& o = s.opt;
    const Topology topo = resolveTopology(o.topo);
    runtime::RuntimeConfig cfg = s.runtimeConfig(topo);
    PlanCache cache;
    cfg.plan_cache = &cache;
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    workload::TrainingLoop loop(comm, models::byName(o.model));
    RunReport report("iterations");
    reportTopology(report, topo);
    report.setInfo("model", o.model);
    report.setInfo("scheduler", schedulerKindName(cfg.scheduler));
    const auto r =
        converge(report, o, o.iterations, "iterations", [&](auto& copts) {
            return workload::runConverged(comm, loop, copts);
        });
    // The steady iteration's decomposition (Fig 12).
    report.setNumber("fwd_ns", r.last.fwd_compute, Unit::Time);
    report.setNumber("bwd_ns", r.last.bwd_compute, Unit::Time);
    report.setNumber("exposed_mp_ns", r.last.exposed_mp, Unit::Time);
    report.setNumber("exposed_dp_ns", r.last.exposed_dp, Unit::Time);
    report.setNumber("collectives", static_cast<double>(r.collectives),
                     Unit::Count);
    report.setNumber("chunk_ops", static_cast<double>(r.ops), Unit::Count);
    report.setNumber("plan_cache_plans",
                     static_cast<double>(cache.planCount()), Unit::Count);
    // Fault counters are per-iteration-epoch state (steady-state
    // detection must see fault activity): the table covers the last
    // simulated iteration.
    reportFaults(report, s, topo, comm, "last simulated iteration");
    comm.publishTelemetry();
    s.finish(report);
    return 0;
}

int
runJobs(Session& s)
{
    const Options& o = s.opt;
    const Topology topo = resolveTopology(o.topo);
    const std::vector<cluster::JobSpec> specs =
        cluster::parseJobSpecs(o.jobs, clusterIterations(o));
    runtime::RuntimeConfig ccfg =
        clusterConfig(s.runtimeConfig(topo), o.tier_ratio, o.chunks);
    PlanCache cache;
    ccfg.plan_cache = &cache;
    RunReport report("jobs");
    reportTopology(report, topo);
    report.setInfo("scheduler", schedulerKindName(ccfg.scheduler));
    report.setInfo("policy", ccfg.priority.describe());
    report.setNumber("job_count", static_cast<double>(specs.size()),
                     Unit::Count);

    cluster::JobScheduler sched(specs);
    // --exact/--no-replay/--cycle-limit run whole lockstep rounds of
    // every job through the period-k convergence replay engine.
    const bool lockstep = o.exact || o.no_replay || o.cycle_limit > 0;
    std::vector<TimeNs> offsets;
    if (o.offset_search) {
        cluster::OffsetSearchOptions sopts;
        sopts.threads = o.threads;
        // Candidates run on worker threads: keep the single-threaded
        // telemetry sink out of them.
        runtime::RuntimeConfig search_cfg = ccfg;
        search_cfg.telemetry = nullptr;
        const auto res =
            cluster::searchPhaseOffsets(topo, search_cfg, specs, sopts);
        auto& t = report.addTable(
            "offsets", {{"phase", "Phase fraction"},
                        {"metric_ns", "Aggregate iter time", Unit::Time}});
        for (std::size_t i = 0; i < res.candidates.size(); ++i)
            t.addRow({double(i) / double(res.candidates.size()),
                      res.candidates[i].metric});
        report.setNumber("offset_zero_ns", res.zero_metric, Unit::Time);
        report.setNumber("offset_best_ns", res.best.metric, Unit::Time);
        report.setNumber("offset_base_period_ns", res.base_period,
                         Unit::Time);
        // Lockstep rounds restart from quiescence, so there the offsets
        // apply as per-round phase delays, not as arrival shifts.
        if (lockstep)
            offsets = res.best.offsets;
        else
            sched.shiftArrivals(res.best.offsets);
    }
    const auto plan = sched.lockstepPlan(
        o.cycle_limit > 0 ? o.cycle_limit
                          : cluster::JobScheduler::kDefaultCycleLimit);
    if (lockstep && !plan.eligible)
        THEMIS_FATAL("--jobs convergence run refused: " << plan.reason);
    const auto elig = sched.replayEligibility();
    sim::EventQueue queue;
    cluster::Cluster cl(queue, topo, ccfg, std::move(sched));
    if (lockstep) {
        const auto r = converge(report, o, clusterIterations(o), "rounds",
                                [&](auto& copts) {
                                    return cl.runConverged(copts, offsets);
                                });
        reportJobs(report, cl.lockstepJobStats(r.iterations), &r,
                   plan.cadences);
        reportFaults(report, s, topo, cl.runtime(), "last simulated round");
        cl.runtime().publishTelemetry();
    } else {
        const auto rep = cl.run();
        report.setInfo("run", "free-running");
        report.setNumber("makespan_ns", rep.makespan, Unit::Time);
        report.setNumber("fabric_utilization", rep.fabric_utilization,
                         Unit::Percent);
        report.setNumber("total_bytes", rep.total_bytes, Unit::Bytes);
        report.setInfo("replay", elig.eligible
                                     ? "eligible (lockstep training mix)"
                                     : elig.reason);
        reportJobs(report, rep.jobs);
        reportClasses(report, rep.classes, {});
        reportFaults(report, s, topo, cl.runtime());
    }
    s.finish(report);
    return 0;
}

int
runPriority(Session& s)
{
    // An urgent All-Reduce chain (--size / 32 per collective) contends
    // with bulk All-Reduces of --size under the priority-aware Themis
    // scheduler; solo runs of each tenant give the slowdown baselines.
    const Options& o = s.opt;
    const Topology topo = resolveTopology(o.topo);
    runtime::RuntimeConfig pcfg = runtime::themisScfConfig();
    pcfg.scheduler = SchedulerKind::ThemisPriority;
    pcfg.enforce_consistent_order = o.enforce;
    if (o.priority > 1.0)
        pcfg.priority = PriorityPolicy::tiered(o.priority);
    const int chain = 8, bulk_count = 2;
    const Bytes hi_size = o.size / 32.0;

    struct TenantRun
    {
        TimeNs hi_mean, lo_mean, makespan;
        std::vector<runtime::CommRuntime::ClassReport> classes;
    };
    auto run = [&](int hi_count, int lo_count) {
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo, pcfg);
        std::vector<int> hi_ids, lo_ids;
        std::function<void()> issue_hi = [&] {
            if (static_cast<int>(hi_ids.size()) == hi_count)
                return;
            CollectiveRequest r;
            r.size = hi_size;
            r.priority_tier = static_cast<int>(PriorityTier::Urgent);
            hi_ids.push_back(comm.issue(r, [&] { issue_hi(); }));
        };
        issue_hi();
        for (int i = 0; i < lo_count; ++i) {
            CollectiveRequest r;
            r.size = o.size;
            r.priority_tier = static_cast<int>(PriorityTier::Bulk);
            lo_ids.push_back(comm.issue(r));
        }
        queue.run();
        comm.finalizeStats();
        auto mean = [&](const std::vector<int>& ids) {
            TimeNs sum = 0.0;
            for (int cid : ids)
                sum += comm.record(cid).duration();
            return ids.empty() ? sum : sum / static_cast<double>(ids.size());
        };
        return TenantRun{mean(hi_ids), mean(lo_ids), queue.now(),
                         comm.classReports()};
    };
    const TenantRun solo_hi = run(chain, 0), solo_lo = run(0, bulk_count),
                    both = run(chain, bulk_count);

    RunReport report("priority");
    reportTopology(report, topo);
    report.setInfo("scheduler", schedulerKindName(pcfg.scheduler));
    report.setInfo("policy", pcfg.priority.describe());
    report.setNumber("urgent_chain", chain, Unit::Count);
    report.setNumber("urgent_size_bytes", hi_size, Unit::Bytes);
    report.setNumber("bulk_count", bulk_count, Unit::Count);
    report.setNumber("bulk_size_bytes", o.size, Unit::Bytes);
    report.setNumber("contended_makespan_ns", both.makespan, Unit::Time);
    report.setNumber("urgent_mean_ns", both.hi_mean, Unit::Time);
    report.setNumber("urgent_solo_ns", solo_hi.hi_mean, Unit::Time);
    report.setNumber("bulk_mean_ns", both.lo_mean, Unit::Time);
    report.setNumber("bulk_solo_ns", solo_lo.lo_mean, Unit::Time);
    // Under the uniform policy (W = 1) class 0 mixes both tenants, so a
    // slowdown against one tenant's solo run is meaningless (the
    // per-tenant means above still compare).
    const bool uniform = pcfg.priority.isUniform();
    std::vector<double> slowdowns;
    for (const auto& c : both.classes) {
        const TimeNs solo =
            c.tier == static_cast<int>(PriorityTier::Urgent) ? solo_hi.hi_mean
            : c.tier == static_cast<int>(PriorityTier::Bulk) ? solo_lo.lo_mean
                                                             : 0.0;
        slowdowns.push_back(!uniform && solo > 0.0 ? c.mean_duration / solo
                                                   : 0.0);
    }
    reportClasses(report, both.classes, slowdowns, uniform);
    s.finish(report);
    return 0;
}

} // namespace themis::app
