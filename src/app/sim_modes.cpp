// The single-runtime modes: one collective, --iterations, --jobs and
// the --priority demo.

#include <cmath>
#include <cstdio>
#include <functional>

#include "app/app.hpp"
#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "core/ideal_estimator.hpp"
#include "core/themis_scheduler.hpp"
#include "models/model_zoo.hpp"
#include "npu/npu_machine.hpp"
#include "stats/summary.hpp"
#include "stats/telemetry/json_writer.hpp"
#include "topology/provisioning.hpp"
#include "workload/convergence.hpp"

namespace themis::app {

using stats::telemetry::JsonWriter;
using stats::telemetry::RunReport;

namespace {

std::vector<stats::FaultDimRow>
faultRows(const Topology& topo, const runtime::CommRuntime& comm)
{
    const auto& ut = comm.utilization();
    std::vector<stats::FaultDimRow> rows;
    for (int d = 0; d < topo.numDims(); ++d) {
        const auto i = static_cast<std::size_t>(d);
        stats::FaultDimRow row{"dim" + std::to_string(d + 1) + " (" +
                                   dimKindName(topo.dim(d).kind) + ")",
                               ut.capacityEvents()[i], ut.flaps()[i],
                               ut.downTime()[i], ut.retries()[i],
                               ut.retryLostBytes()[i], ut.fatalRetries()[i]};
        if (ut.retryBackoff(i).count() > 0) {
            row.backoff_p99 = ut.retryBackoff(i).percentile(0.99);
            row.backoff_max = ut.retryBackoff(i).max();
        }
        rows.push_back(row);
    }
    return rows;
}

/**
 * The per-dimension fault table (with --faults; @p scope says which
 * part of the run it covers) and the adaptation line (with --adapt).
 */
void
printFaults(const Session& s, const Topology& topo,
            const runtime::CommRuntime& comm, const char* scope)
{
    if (!s.opt.faults.empty())
        std::printf("\nfault report%s (--faults \"%s\"):\n%s", scope,
                    s.opt.faults.c_str(),
                    stats::renderFaultTable(faultRows(topo, comm)).c_str());
    if (s.opt.adapt)
        std::printf("adaptation: %llu re-plan(s), capacity epoch %#llx\n",
                    static_cast<unsigned long long>(comm.replanCount()),
                    static_cast<unsigned long long>(
                        comm.capacityFingerprint()));
}

/** printFaults for the run report: info, numbers, "fault" section. */
void
reportFaults(RunReport& report, const Session& s, const Topology& topo,
             const runtime::CommRuntime& comm)
{
    if (s.opt.adapt) {
        report.setNumber("replans", static_cast<double>(comm.replanCount()));
        report.setInfo("capacity_fingerprint",
                       hex16(comm.capacityFingerprint()));
    }
    if (s.opt.faults.empty())
        return;
    report.setInfo("faults", s.opt.faults);
    JsonWriter w;
    w.beginArray();
    for (const auto& r : faultRows(topo, comm))
        w.beginObject()
            .key("dim").value(r.name)
            .key("capacity_events").value(r.capacity_events)
            .key("flaps").value(r.flaps)
            .key("down_time_ns").value(r.down_time)
            .key("retries").value(r.retries)
            .key("backoff_p99_ns").value(r.backoff_p99)
            .key("backoff_max_ns").value(r.backoff_max)
            .key("lost_bytes").value(r.lost_bytes)
            .key("fatal_retries").value(r.fatal_retries)
            .endObject();
    w.endArray();
    report.addSection("fault", w.str());
}

std::string
runLabel(const Options& opt)
{
    return opt.exact ? "exactness" : (opt.no_replay ? "full" : "replay");
}

/**
 * Run @p run with the convergence options of the run flags, timed,
 * and print its one-row convergence table.
 */
template <typename Run>
std::pair<workload::ConvergenceReport, double>
converge(const Options& opt, int iterations, Run run)
{
    workload::ConvergenceOptions copts;
    copts.iterations = iterations;
    copts.replay = !opt.no_replay;
    copts.exactness_check = opt.exact;
    copts.cycle_limit = opt.cycle_limit;
    const double t0 = nowMs();
    const auto r = run(copts);
    const double wall_ms = nowMs() - t0;
    stats::ConvergenceRunRow row;
    row.label = runLabel(opt);
    row.iterations = r.iterations;
    row.simulated = r.simulated_iterations;
    row.replayed = r.replayed_iterations;
    row.cycle_length = r.cycle_length;
    row.total_time = r.total.total;
    row.last_iteration = r.last.total;
    row.utilization = r.utilization;
    row.wall_ms = wall_ms;
    std::printf("%s", stats::renderConvergenceTable({row}).c_str());
    return {r, wall_ms};
}

/**
 * Where the steady state (counted in iterations) or, with @p cycle, the
 * steady cycle (in rounds) was confirmed. Under --exact, confirming
 * none means the exactness assertions never ran, so the run fails
 * rather than passing vacuously.
 */
void
printSteadyState(const workload::ConvergenceReport& r, const Options& opt,
                 bool cycle)
{
    const char* what = cycle ? "cycle" : "state";
    const char* unit = cycle ? "round" : "iteration";
    if (r.steady_at >= 0)
        std::printf("  steady %s at %s %d (fingerprint %016llx)%s\n", what,
                    unit, r.steady_at,
                    static_cast<unsigned long long>(r.steady_fingerprint),
                    opt.exact ? ", replay prediction asserted bit-identical"
                              : "");
    else if (opt.exact)
        THEMIS_FATAL("--exact: no steady "
                     << what << " was confirmed, so nothing was asserted; "
                     << "raise --iterations"
                     << (cycle ? " (the mix needs ~2x its hyper-period of "
                                 "rounds) or --cycle-limit"
                               : ""));
    else
        std::printf("  steady %s not %s; every %s simulated\n", what,
                    cycle ? "confirmed" : "reached", unit);
}

/** Job table and "jobs" report section of @p jobs; @p lockstep rows
 *  carry the run's JCT and cycle units instead of wire totals. */
void
jobReport(const std::vector<cluster::JobStats>& jobs, RunReport& report,
          const workload::ConvergenceReport* lockstep = nullptr,
          const std::vector<int>& cadences = {})
{
    std::vector<stats::JobUsageRow> rows;
    JsonWriter w;
    w.beginArray();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const cluster::JobStats& j = jobs[i];
        const bool train = j.kind == cluster::JobKind::Training;
        stats::JobUsageRow row;
        row.name = j.name;
        row.kind = cluster::jobKindName(j.kind);
        row.arrival = j.arrival;
        row.jct = j.jct();
        row.units = train ? j.iterations : j.requests_completed;
        row.mean_unit = train ? j.mean_iteration : j.mean_latency;
        row.exposed_share = j.exposed_share;
        row.deadline_hit_rate = j.deadline_hit_rate;
        row.unit_p99 = j.unit_p99;
        row.unit_max = j.unit_max;
        row.progressed = j.progressed;
        row.utilization = j.utilization;
        if (lockstep != nullptr) {
            // Replayed rounds carry no per-job wire totals.
            row.jct = lockstep->total.total;
            row.progressed = row.utilization = -1.0;
            row.cycle_units = lockstep->cycle_length > 0
                                  ? lockstep->cycle_length / cadences[i]
                                  : -1;
        }
        rows.push_back(row);
        w.beginObject()
            .key("job").value(j.job)
            .key("name").value(j.name)
            .key("kind").value(cluster::jobKindName(j.kind))
            .key("arrival_ns").value(j.arrival)
            .key("finished_ns").value(j.finished)
            .key("iterations").value(j.iterations)
            .key("mean_iteration_ns").value(j.mean_iteration)
            .key("exposed_share").value(j.exposed_share)
            .key("requests_issued").value(j.requests_issued)
            .key("requests_completed").value(j.requests_completed)
            .key("mean_latency_ns").value(j.mean_latency)
            .key("deadline_hits").value(j.deadline_hits)
            .key("deadline_misses").value(j.deadline_misses)
            .key("deadline_hit_rate").value(j.deadline_hit_rate)
            .key("unit_p99_ns").value(j.unit_p99)
            .key("unit_max_ns").value(j.unit_max)
            .key("progressed_bytes").value(j.progressed)
            .key("utilization").value(j.utilization)
            .endObject();
    }
    w.endArray();
    std::printf("%s", stats::renderJobTable(rows).c_str());
    report.addSection("jobs", w.str());
}

/** Class table of @p rows and "classes" section of @p classes. */
void
classReport(const std::vector<runtime::CommRuntime::ClassReport>& classes,
            const std::vector<stats::ClassUsageRow>& rows, RunReport& report)
{
    JsonWriter w;
    w.beginArray();
    for (const auto& c : classes)
        w.beginObject()
            .key("tier").value(c.tier)
            .key("name").value(priorityTierName(c.tier))
            .key("weight").value(c.weight)
            .key("issued").value(c.issued)
            .key("completed").value(c.completed)
            .key("mean_duration_ns").value(c.mean_duration)
            .key("progressed_bytes").value(c.progressed)
            .key("utilization").value(c.utilization)
            .endObject();
    w.endArray();
    std::printf("%s", stats::renderClassTable(rows).c_str());
    report.addSection("classes", w.str());
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

    std::printf("%s", topo.describe().c_str());
    for (const auto& pair : classifyAllPairs(topo))
        std::printf("  dim%d vs dim%d: %s (ratio %.2f)\n", pair.dim_k + 1,
                    pair.dim_l + 1,
                    provisionScenarioName(pair.scenario).c_str(),
                    pair.ratio);
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    const int id = comm.issue(req);
    queue.run();
    comm.finalizeStats();

    const TimeNs time = comm.record(id).duration();
    const double util = comm.utilization().weightedUtilization();
    const auto model = LatencyModel::fromTopology(topo);
    const TimeNs ideal = idealCollectiveTime(req.type, req.size, model);
    std::printf("\n%s of %s in %d chunks under %s%s:\n",
                collectiveTypeName(req.type).c_str(),
                fmtBytes(req.size).c_str(), o.chunks,
                o.sched == "base" ? "Baseline"
                                  : ("Themis+" + o.sched).c_str(),
                o.enforce ? " (enforced order)" : "");
    std::printf("  time        : %s\n", fmtTime(time).c_str());
    std::printf("  avg BW util : %s\n", fmtPercent(util).c_str());
    const auto per_dim = comm.utilization().perDimUtilization();
    for (std::size_t d = 0; d < per_dim.size(); ++d)
        std::printf("  dim%zu util  : %s\n", d + 1,
                    fmtPercent(per_dim[d]).c_str());
    std::printf("  ideal       : %s (size / total BW)\n",
                fmtTime(ideal).c_str());
    printFaults(s, topo, comm, "");
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
        std::printf("  per-NPU     : %s on %ld NPUs (%s; error %.4f%%)\n",
                    fmtTime(per_npu.makespan).c_str(), topo.totalNpus(),
                    per_npu.completed ? "completed" : "DEADLOCK",
                    100.0 * std::abs(per_npu.makespan - time) / time);
    }
    RunReport report("single");
    report.setInfo("topology", topo.name());
    report.setInfo("collective", collectiveTypeName(req.type));
    report.setInfo("scheduler", schedulerKindName(cfg.scheduler));
    report.setNumber("size_bytes", req.size);
    report.setNumber("chunks", o.chunks);
    report.setNumber("time_ns", time);
    report.setNumber("utilization", util);
    report.setNumber("ideal_ns", ideal);
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
    std::printf("%s", topo.describe().c_str());
    std::printf("\n%s x %d training iterations under %s%s:\n\n",
                o.model.c_str(), o.iterations,
                schedulerKindName(cfg.scheduler).c_str(),
                o.exact ? " (exactness-check mode)" : "");
    const auto [r, wall_ms] = converge(o, o.iterations, [&](auto& copts) {
        return workload::runConverged(comm, loop, copts);
    });
    std::printf("\n  per-iteration decomposition (steady): fwd %s, bwd %s, "
                "exposed MP %s, exposed DP %s\n",
                fmtTime(r.last.fwd_compute).c_str(),
                fmtTime(r.last.bwd_compute).c_str(),
                fmtTime(r.last.exposed_mp).c_str(),
                fmtTime(r.last.exposed_dp).c_str());
    printSteadyState(r, o, false);
    std::printf("  %ld collectives, %llu chunk ops, plan cache %zu plans\n",
                r.collectives, static_cast<unsigned long long>(r.ops),
                cache.planCount());
    // Fault counters are per-iteration-epoch state (steady-state
    // detection must see fault activity): the table covers the last
    // simulated iteration.
    printFaults(s, topo, comm, ", last simulated iteration");
    comm.publishTelemetry();

    RunReport report("iterations");
    report.setInfo("topology", topo.name());
    report.setInfo("model", o.model);
    report.setInfo("scheduler", schedulerKindName(cfg.scheduler));
    report.setInfo("run", runLabel(o));
    report.setNumber("iterations", r.iterations);
    report.setNumber("simulated_iterations", r.simulated_iterations);
    report.setNumber("replayed_iterations", r.replayed_iterations);
    report.setNumber("cycle_length", r.cycle_length);
    report.setNumber("steady_at", r.steady_at);
    report.setNumber("total_ns", r.total.total);
    report.setNumber("iteration_ns", r.last.total);
    report.setNumber("utilization", r.utilization);
    report.setNumber("collectives", static_cast<double>(r.collectives));
    report.setNumber("chunk_ops", static_cast<double>(r.ops));
    report.setNumber("wall_ms", wall_ms);
    report.setNumber("plan_cache_plans",
                     static_cast<double>(cache.planCount()));
    reportFaults(report, s, topo, comm);
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
    std::printf("%s", topo.describe().c_str());
    std::printf("\n%zu-job cluster co-simulation (%s, policy %s):\n\n",
                specs.size(), schedulerKindName(ccfg.scheduler).c_str(),
                ccfg.priority.describe().c_str());

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
        stats::TextTable t({"Phase fraction", "Aggregate iter time"});
        for (std::size_t i = 0; i < res.candidates.size(); ++i)
            t.addRow({fmtDouble(double(i) / res.candidates.size(), 3),
                      fmtTime(res.candidates[i].metric)});
        std::printf("%s", t.render().c_str());
        std::printf("\n  offset search: zero-offset %s -> best %s (base "
                    "period %s)\n\n",
                    fmtTime(res.zero_metric).c_str(),
                    fmtTime(res.best.metric).c_str(),
                    fmtTime(res.base_period).c_str());
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
    RunReport report("jobs");
    report.setInfo("topology", topo.name());
    report.setInfo("scheduler", schedulerKindName(ccfg.scheduler));
    report.setInfo("policy", ccfg.priority.describe());
    if (lockstep) {
        const auto [r, wall_ms] =
            converge(o, clusterIterations(o), [&](auto& copts) {
                return cl.runConverged(copts, offsets);
            });
        std::printf("\n");
        jobReport(cl.lockstepJobStats(r.iterations), report, &r,
                  plan.cadences);
        std::printf("\n  cycle replay  : hyper-period %d round(s), cycle %s, "
                    "%d simulated + %d replayed of %d rounds\n",
                    r.hyper_period,
                    r.cycle_length > 0
                        ? std::to_string(r.cycle_length).c_str()
                        : "-",
                    r.epochs_simulated, r.epochs_replayed, r.iterations);
        printSteadyState(r, o, true);
        if (!r.replay_refusal.empty())
            std::printf("  replay refused: %s\n", r.replay_refusal.c_str());
        printFaults(s, topo, cl.runtime(), ", last simulated round");
        cl.runtime().publishTelemetry();
        report.setInfo("run", runLabel(o));
        report.setNumber("rounds", r.iterations);
        report.setNumber("simulated_rounds", r.simulated_iterations);
        report.setNumber("replayed_rounds", r.replayed_iterations);
        report.setNumber("cycle_length", r.cycle_length);
        report.setNumber("hyper_period", r.hyper_period);
        report.setNumber("total_ns", r.total.total);
        report.setNumber("utilization", r.utilization);
        report.setNumber("wall_ms", wall_ms);
    } else {
        const auto rep = cl.run();
        jobReport(rep.jobs, report);
        std::vector<stats::ClassUsageRow> rows;
        for (const auto& c : rep.classes)
            if (c.issued > 0 || c.progressed > 0.0)
                rows.push_back({priorityTierName(c.tier), c.weight,
                                c.completed, c.mean_duration, c.progressed,
                                c.utilization});
        std::printf("\n");
        classReport(rep.classes, rows, report);
        std::printf("\n  makespan      : %s\n", fmtTime(rep.makespan).c_str());
        std::printf("  fabric util   : %s\n",
                    fmtPercent(rep.fabric_utilization).c_str());
        std::printf("  bytes moved   : %s\n",
                    fmtBytes(rep.total_bytes).c_str());
        std::printf("  replay        : %s\n",
                    elig.eligible ? "eligible (lockstep training mix)"
                                  : elig.reason.c_str());
        printFaults(s, topo, cl.runtime(), "");
        report.setInfo("run", "free-running");
        report.setNumber("makespan_ns", rep.makespan);
        report.setNumber("fabric_utilization", rep.fabric_utilization);
        report.setNumber("total_bytes", rep.total_bytes);
    }
    reportFaults(report, s, topo, cl.runtime());
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

    std::printf("%s", topo.describe().c_str());
    std::printf("\npriority contention demo (%s, policy %s):\n"
                "  urgent tenant: %d x %s AR chain; bulk tenant: %d x %s "
                "AR\n\n",
                schedulerKindName(pcfg.scheduler).c_str(),
                pcfg.priority.describe().c_str(), chain,
                fmtBytes(hi_size).c_str(), bulk_count,
                fmtBytes(o.size).c_str());
    RunReport report("priority");
    const bool uniform = pcfg.priority.isUniform();
    std::vector<stats::ClassUsageRow> rows;
    for (const auto& c : both.classes) {
        stats::ClassUsageRow row{
            uniform ? "all (uniform)" : priorityTierName(c.tier), c.weight,
            c.completed, c.mean_duration, c.progressed, c.utilization};
        // Under the uniform policy (W = 1) class 0 mixes both tenants,
        // so a slowdown against one tenant's solo run is meaningless
        // (the per-tenant means print below).
        const TimeNs solo =
            c.tier == static_cast<int>(PriorityTier::Urgent) ? solo_hi.hi_mean
            : c.tier == static_cast<int>(PriorityTier::Bulk) ? solo_lo.lo_mean
                                                             : 0.0;
        if (!uniform && solo > 0.0)
            row.slowdown = c.mean_duration / solo;
        rows.push_back(row);
    }
    classReport(both.classes, rows, report);
    std::printf("\n  contended makespan : %s\n",
                fmtTime(both.makespan).c_str());
    std::printf("  urgent mean  %s (solo %s)\n", fmtTime(both.hi_mean).c_str(),
                fmtTime(solo_hi.hi_mean).c_str());
    std::printf("  bulk mean    %s (solo %s)\n", fmtTime(both.lo_mean).c_str(),
                fmtTime(solo_lo.lo_mean).c_str());
    report.setInfo("topology", topo.name());
    report.setInfo("policy", pcfg.priority.describe());
    report.setNumber("contended_makespan_ns", both.makespan);
    report.setNumber("urgent_mean_ns", both.hi_mean);
    report.setNumber("urgent_solo_ns", solo_hi.hi_mean);
    report.setNumber("bulk_mean_ns", both.lo_mean);
    report.setNumber("bulk_solo_ns", solo_lo.lo_mean);
    s.finish(report);
    return 0;
}

} // namespace themis::app
