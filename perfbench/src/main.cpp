/**
 * @file
 * The repository benchmark: runs one workload through the simulator's
 * public API and prints its metrics by name, with units, ending with
 * one JSON line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 measures the end-to-end metrics with no hooks installed.
 * --trace 1 is the separate traced run: it records the workload's
 * collective and chunk-op stream through the public hooks, replays it
 * into each layer in isolation, and prints the per-layer metrics next
 * to the end-to-end metric and workload each should move.
 */

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "replay.hpp"
#include "util.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1\nworkloads:",
                 argv0);
    for (const auto& n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char* value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value, &end);
            if (!(a.seconds > 0.0))
                usage(argv[0]);
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage(argv[0]);
            a.trace = value[0] == '1';
        } else {
            usage(argv[0]);
        }
        if (end != nullptr && *end != '\0')
            usage(argv[0]);
    }
    if (!have_workload)
        usage(argv[0]);
    return a;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    Measured m;
    /** Non-empty when the workload lacks the layer (value 0). */
    std::string not_applicable;
};

std::string
jsonLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
         const std::vector<Metric>& metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& x = metrics[i];
        out += i == 0 ? "" : ", ";
        out += "\"" + x.name + "\": {\"value\": ";
        if (x.m.valid) {
            std::snprintf(buf, sizeof(buf), "%.17g", x.m.value);
            out += buf;
        } else {
            out += "null";
        }
        out += ", \"unit\": \"" + x.unit + "\"";
        if (!x.m.valid)
            out += ", \"invalid\": true";
        out += "}";
    }
    out += "}}";
    return out;
}

/** Units measured back to back for about a time budget. */
struct Run
{
    std::vector<double> unit_ms;
    std::uint64_t ops = 0;
    double busy_ns = 0.0;
    std::uint64_t failed = 0;
    std::string first_error;

    /**
     * Over the whole run: on a shared host the CPU's speed drifts over
     * tens of seconds, and a total over the run averages the drift
     * where a median over rounds would snap to whichever speed held
     * longest.
     */
    double
    opsPerSec() const
    {
        return busy_ns > 0.0 ? static_cast<double>(ops) / (busy_ns / 1e9)
                             : 0.0;
    }
};

/**
 * Pin this single-threaded process to the allowed CPU that runs a fixed
 * pointer-chasing loop fastest right now. The CPUs of a shared host run
 * at visibly different and drifting speeds; re-choosing at intervals
 * keeps a run on the least contended one instead of wherever the
 * scheduler last put it.
 */
void
pinToFastestCpu()
{
    static cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            CPU_ZERO(&set);
        return set;
    }();
    static std::vector<std::uint32_t> chain = [] {
        std::vector<std::uint32_t> c(1u << 16);
        for (std::size_t i = 0; i < c.size(); ++i)
            c[i] = static_cast<std::uint32_t>((i * 2654435761u) % c.size());
        return c;
    }();
    int best = -1;
    double best_rate = 0.0;
    std::uint32_t x = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) != 0)
            continue;
        std::uint64_t steps = 0;
        const double t0 = nowNs();
        while (nowNs() - t0 < 2e6) {
            for (int k = 0; k < 1024; ++k)
                x = chain[x];
            steps += 1024;
        }
        const double rate = static_cast<double>(steps) / (nowNs() - t0);
        if (rate > best_rate) {
            best_rate = rate;
            best = cpu;
        }
    }
    cpu_set_t target = allowed;
    if (best >= 0) {
        CPU_ZERO(&target);
        CPU_SET(best, &target);
    }
    sched_setaffinity(0, sizeof(target), &target);
}

/**
 * Run units of @p w until @p seconds have passed, stopping only after
 * a whole round of the workload's inputs; @p between (may be empty)
 * runs after every other round. Between units the process is re-pinned
 * to the fastest CPU every 0.2 s (see pinToFastestCpu).
 */
Run
measure(Workload& w, double seconds, Recorder* rec,
        const std::function<void()>& between = {})
{
    Run run;
    const double t0 = nowNs();
    double pinned_at = 0.0;
    for (std::size_t n = 1;; ++n) {
        if (nowNs() - pinned_at > 0.2e9) {
            pinToFastestCpu();
            pinned_at = nowNs();
        }
        const double u0 = nowNs();
        UnitResult r;
        try {
            r = w.unit(rec);
        } catch (const std::exception& e) {
            r.error = e.what();
        }
        const double dt = nowNs() - u0;
        run.unit_ms.push_back(dt / 1e6);
        run.busy_ns += dt;
        run.ops += r.ops;
        if (!r.error.empty()) {
            ++run.failed;
            if (run.first_error.empty())
                run.first_error = r.error;
        }
        if (n % w.unitsPerRound() != 0)
            continue;
        if (nowNs() - t0 >= seconds * 1e9)
            break;
        if (between)
            between();
    }
    return run;
}

Metric
valueMetric(const std::string& name, const std::string& unit, double v)
{
    Metric x{name, unit, {}, {}};
    x.m.value = v;
    return x;
}

int
runMeasured(const Args& args)
{
    // Set-up is sampled across the whole run, like the units: twenty
    // times in the run, a burst of set-ups of fresh workload instances
    // (at least one, and 5 ms' worth when set-up is short) is timed.
    // The median over all of them is reported.
    constexpr int kSetupBursts = 20;
    pinToFastestCpu();
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    auto setupBurst = [&] {
        const double b0 = nowNs();
        do {
            auto fresh = makeWorkload(args.workload, args.seed);
            const double t0 = nowNs();
            fresh->setup();
            setups.push_back(nowNs() - t0);
            if (!w)
                w = std::move(fresh);
        } while (nowNs() - b0 < 5e6);
    };
    setupBurst();
    double last_burst = nowNs();
    const Run run = measure(*w, args.seconds, nullptr, [&] {
        if (nowNs() - last_burst >= args.seconds * 1e9 / kSetupBursts) {
            setupBurst();
            last_burst = nowNs();
        }
    });
    const std::uint64_t attempted = run.unit_ms.size();

    std::vector<Metric> metrics = {
        valueMetric("ops_per_s", "1/s", run.opsPerSec()),
        valueMetric("unit_ms_p50", "ms", quantile(run.unit_ms, 0.5)),
        valueMetric("unit_ms_p90", "ms", quantile(run.unit_ms, 0.9)),
        valueMetric("setup_s", "s", median(setups) / 1e9),
        valueMetric("peak_rss_mb", "MiB", peakRssMb()),
        valueMetric("sim_time_ms", "sim_ms", w->simTimeMs()),
    };
    std::printf("workload %s, seed %llu (%s)\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                w->seedNote().c_str());
    std::printf("units: %llu attempted, %llu failed%s%s; set-up timed "
                "%zu times\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(run.failed),
                run.first_error.empty() ? "" : "; first failure: ",
                run.first_error.c_str(), setups.size());
    if (attempted < 100)
        std::printf("note: unit_ms_p90 needs at least 100 units; this "
                    "run has %llu\n",
                    static_cast<unsigned long long>(attempted));
    for (const Metric& x : metrics)
        std::printf("  %-14s %16.6g %s\n", x.name.c_str(), x.m.value,
                    x.unit.c_str());
    std::printf("%s\n",
                jsonLine(run.failed == 0, attempted, run.failed, metrics)
                    .c_str());
    return 0;
}

/** Where a per-layer metric is expected to show (see README). */
struct LayerMeta
{
    const char* name;
    const char* unit;
    const char* moves;
    const char* on;
    const char* no_change;
};

const std::vector<LayerMeta>&
layerTable()
{
    static const std::vector<LayerMeta> table = {
        {"sim.event_queue.ns_per_event", "ns", "ops_per_s", "t1t_fullsim",
         "-"},
        {"sim.event_queue.heap_ns_per_event", "ns", "ops_per_s",
         "t1t_fullsim", "-"},
        {"sim.event_queue.pending_p50", "count", "explains queue rows",
         "all", "-"},
        {"sim.event_queue.pending_max", "count", "explains queue rows",
         "all", "-"},
        {"sim.channel.ns_per_transfer", "ns", "ops_per_s",
         "t1t_fullsim, cluster_2to3", "-"},
        {"sim.channel.active_p50", "count", "explains channel row", "all",
         "-"},
        {"sim.channel.active_max", "count", "explains channel row", "all",
         "-"},
        {"sim.channel.classes", "count", "explains channel row", "all",
         "-"},
        {"runtime.engine.ns_per_op", "ns", "unit_ms_p50", "all", "-"},
        {"runtime.engine.queued_p50", "count", "explains engine row", "all",
         "-"},
        {"runtime.session.ns_per_op", "ns", "ops_per_s", "t1t_fullsim",
         "-"},
        {"runtime.issue_ns", "ns", "ops_per_s", "allreduce_enforced",
         "t1t_fullsim"},
        {"runtime.drain_ns_per_op", "ns", "ops_per_s", "t1t_fullsim", "-"},
        {"runtime.ctor_us", "us", "unit_ms_p50", "allreduce_enforced",
         "t1t_fullsim"},
        {"runtime.epoch_ns", "ns", "unit_ms_p50", "cluster_2to3", "-"},
        {"core.scheduler.ns_per_collective", "ns", "ops_per_s",
         "allreduce_enforced", "t1t_fullsim"},
        {"core.order_planner.ns_per_collective", "ns", "ops_per_s",
         "allreduce_enforced", "t1t_fullsim, cluster_2to3"},
        {"core.plan_cache.lookup_ns", "ns", "ops_per_s",
         "allreduce_enforced", "t1t_fullsim"},
        {"core.plan_cache.plan_hit_rate", "ratio", "ops_per_s",
         "allreduce_enforced", "t1t_fullsim"},
        {"core.plan_cache.order_hit_rate", "ratio", "ops_per_s",
         "allreduce_enforced", "t1t_fullsim"},
        {"core.plan_cache.step_hit_rate", "ratio", "ops_per_s",
         "allreduce_enforced", "t1t_fullsim"},
        {"workload.loop.self_ms_per_iter", "ms", "unit_ms_p50",
         "t1t_fullsim", "allreduce_enforced"},
        {"workload.convergence.simulated_rounds", "count", "unit_ms_p50",
         "cluster_2to3", "t1t_fullsim, allreduce_enforced"},
        {"workload.convergence.replayed_rounds", "count", "unit_ms_p50",
         "cluster_2to3", "t1t_fullsim, allreduce_enforced"},
        {"workload.convergence.replay_ns_per_round", "ns", "unit_ms_p50",
         "cluster_2to3", "t1t_fullsim, allreduce_enforced"},
        {"stats.telemetry.overhead_ratio", "ratio", "ops_per_s",
         "cluster_2to3", "t1t_fullsim, allreduce_enforced"},
        {"sim.events_per_unit", "count", "base of ns/op ratios", "all",
         "-"},
        {"runtime.ops_per_unit", "count", "base of ns/op ratios", "all",
         "-"},
        {"bench.untraced_ops_per_s", "1/s", "reference", "all", "-"},
        {"bench.traced_ops_per_s", "1/s", "tracing cost", "all", "-"},
        {"bench.trace_ratio", "ratio", "tracing cost", "all", "-"},
    };
    return table;
}

double
ratio(std::uint64_t hits, std::uint64_t misses)
{
    const std::uint64_t n = hits + misses;
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n)
                 : 0.0;
}

int
runTraced(const Args& args)
{
    // The traced run's phases scale with --seconds up to 10 s, so it
    // stays well inside the time a run may take.
    const double S = std::min(args.seconds, 10.0);
    pinToFastestCpu();
    auto w = makeWorkload(args.workload, args.seed);
    w->setup();

    // Untraced and traced units, for the tracing overhead.
    const Run plain = measure(*w, 0.15 * S, nullptr);
    const themis::PlanCache::Stats cache = w->cacheStats();
    const ConvergenceCounts conv = w->convergence();
    Recorder overhead(/*keep=*/false);
    const Run traced = measure(*w, 0.15 * S, &overhead);

    Recording rec = w->record();
    // 40% of the run, shared by the dozen timed replays below.
    const double slice = 0.4 * S / 12.0;

    std::map<std::string, Metric> out;
    auto put = [&](const std::string& name, Measured m) {
        if (!rec.invalid.empty())
            m.fail(rec.invalid);
        out[name].m = m;
    };
    auto putValue = [&](const std::string& name, double v) {
        Measured m;
        m.value = v;
        out[name].m = m;
    };

    put("sim.event_queue.ns_per_event",
        replayEventQueue(rec, themis::sim::EventFrontEnd::Calendar, slice));
    put("sim.event_queue.heap_ns_per_event",
        replayEventQueue(rec, themis::sim::EventFrontEnd::Heap, slice));
    putValue("sim.event_queue.pending_p50",
             quantile(rec.pending_samples, 0.5));
    putValue("sim.event_queue.pending_max",
             quantile(rec.pending_samples, 1.0));
    ChannelSamples chs;
    put("sim.channel.ns_per_transfer", replayChannel(rec, slice, &chs));
    putValue("sim.channel.active_p50", quantile(chs.active, 0.5));
    putValue("sim.channel.active_max", quantile(chs.active, 1.0));
    putValue("sim.channel.classes", quantile(chs.classes, 1.0));
    put("runtime.engine.ns_per_op", replayEngines(rec, slice));
    putValue("runtime.engine.queued_p50",
             quantile(rec.queued_samples, 0.5));
    put("runtime.session.ns_per_op", replaySessions(rec, slice));
    Reissue re = replayReissue(rec, slice);
    put("runtime.issue_ns", re.issue_ns);
    put("runtime.drain_ns_per_op", re.drain_ns_per_op);
    put("runtime.ctor_us", timeRuntimeCtor(rec, slice / 2));
    put("runtime.epoch_ns", timeEpoch(rec, slice / 2));
    put("core.scheduler.ns_per_collective", timeScheduler(rec, slice));
    put("core.order_planner.ns_per_collective",
        timeOrderPlanner(rec, slice));
    put("core.plan_cache.lookup_ns",
        timePlanCacheLookups(rec, *re.cache, slice / 2));
    putValue("core.plan_cache.plan_hit_rate",
             ratio(cache.plan_hits, cache.plan_misses));
    if (cache.order_hits + cache.order_misses > 0)
        putValue("core.plan_cache.order_hit_rate",
                 ratio(cache.order_hits, cache.order_misses));
    else
        out["core.plan_cache.order_hit_rate"].not_applicable =
            "no enforced orders";
    putValue("core.plan_cache.step_hit_rate",
             ratio(cache.step_hits, cache.step_misses));

    if (w->hasLoop()) {
        // Paired in time, so a drift in host speed between the two
        // measurements does not show up as self time.
        std::vector<double> self_ns;
        const double l0 = nowNs();
        do {
            const double loop_ns = w->loopIterationNs(0.0);
            self_ns.push_back(loop_ns - replayReissue(rec, 0.0).stream_ns);
        } while (self_ns.size() < 5 || nowNs() - l0 < slice * 1e9);
        Measured m;
        m.value = median(self_ns) / 1e6;
        put("workload.loop.self_ms_per_iter", m);
        putValue("workload.convergence.simulated_rounds", conv.simulated);
        putValue("workload.convergence.replayed_rounds", conv.replayed);
        // Paired runs that differ only in replayed rounds. The extra
        // rounds are many, so their cost stands out of the noise of the
        // simulated ones.
        constexpr int kBase = 120, kExtra = 12000;
        std::vector<double> diff;
        const double c0 = nowNs();
        do {
            const double base = w->convergenceRunNs(kBase);
            diff.push_back(w->convergenceRunNs(kBase + kExtra) - base);
        } while (diff.size() < 3 || nowNs() - c0 < slice * 1e9);
        putValue("workload.convergence.replay_ns_per_round",
                 median(diff) / kExtra);
    } else {
        for (const char* n : {"workload.loop.self_ms_per_iter",
                              "workload.convergence.simulated_rounds",
                              "workload.convergence.replayed_rounds",
                              "workload.convergence.replay_ns_per_round"})
            out[n].not_applicable = "no training loop or convergence run";
    }

    // Telemetry armed vs bare, alternating units of two instances.
    {
        auto on = makeWorkload(args.workload, args.seed, TelemetryMode::On);
        auto off =
            makeWorkload(args.workload, args.seed, TelemetryMode::Off);
        on->setup();
        off->setup();
        Run r_on, r_off;
        const double t0 = nowNs();
        do {
            for (Run* r : {&r_on, &r_off}) {
                const Run part =
                    measure(r == &r_on ? *on : *off, 0.0, nullptr);
                r->ops += part.ops;
                r->busy_ns += part.busy_ns;
            }
        } while (nowNs() - t0 < 0.1 * S * 1e9);
        putValue("stats.telemetry.overhead_ratio",
                 r_off.opsPerSec() > 0.0
                     ? r_on.opsPerSec() / r_off.opsPerSec()
                     : 0.0);
    }

    const double units = static_cast<double>(w->recordedUnits());
    putValue("sim.events_per_unit",
             static_cast<double>(rec.events()) / units);
    putValue("runtime.ops_per_unit", static_cast<double>(rec.ops()) / units);
    putValue("bench.untraced_ops_per_s", plain.opsPerSec());
    putValue("bench.traced_ops_per_s", traced.opsPerSec());
    putValue("bench.trace_ratio", plain.opsPerSec() > 0.0
                                      ? traced.opsPerSec() /
                                            plain.opsPerSec()
                                      : 0.0);

    std::vector<Metric> metrics;
    for (const LayerMeta& meta : layerTable()) {
        Metric x = out[meta.name];
        x.name = meta.name;
        x.unit = meta.unit;
        metrics.push_back(std::move(x));
    }

    const std::uint64_t attempted =
        plain.unit_ms.size() + traced.unit_ms.size();
    const std::uint64_t failed = plain.failed + traced.failed;
    std::printf("workload %s, seed %llu (%s) -- traced run\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                w->seedNote().c_str());
    std::printf("recorded %zu stream(s): %llu collectives, %llu chunk ops, "
                "%llu events\n",
                rec.streams.size(),
                static_cast<unsigned long long>(rec.collectives()),
                static_cast<unsigned long long>(rec.ops()),
                static_cast<unsigned long long>(rec.events()));
    std::printf("ops_per_s untraced %.6g, traced %.6g (bench.trace_ratio "
                "%.4f)\n\n",
                plain.opsPerSec(), traced.opsPerSec(),
                plain.opsPerSec() > 0.0
                    ? traced.opsPerSec() / plain.opsPerSec()
                    : 0.0);
    std::printf("  %-40s %16s %-6s %-20s %-28s %s\n", "metric", "value",
                "unit", "should move", "on", "predicted no change on");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& x = metrics[i];
        const LayerMeta& meta = layerTable()[i];
        char value[64];
        if (!x.not_applicable.empty())
            std::snprintf(value, sizeof(value), "n/a");
        else if (!x.m.valid)
            std::snprintf(value, sizeof(value), "INVALID");
        else
            std::snprintf(value, sizeof(value), "%.6g", x.m.value);
        std::printf("  %-40s %16s %-6s %-20s %-28s %s\n", meta.name, value,
                    meta.unit, meta.moves, meta.on, meta.no_change);
        if (!x.m.valid)
            std::printf("  %-40s   invalid: %s\n", "", x.m.why.c_str());
        if (!x.not_applicable.empty())
            std::printf("  %-40s   n/a: %s\n", "",
                        x.not_applicable.c_str());
    }
    std::printf("%s\n",
                jsonLine(failed == 0, attempted, failed, metrics).c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    if (makeWorkload(args.workload, args.seed) == nullptr)
        usage(argv[0]);
    themis::Logger::setLevel(themis::LogLevel::Warn);
    try {
        return args.trace ? runTraced(args) : runMeasured(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
