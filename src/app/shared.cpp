#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "app/app.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "runtime/dimension_engine.hpp"
#include "topology/parse.hpp"
#include "topology/presets.hpp"

namespace themis::app {

Session::Session(const Options& options) : opt(options)
{
    if (!opt.trace.empty())
        telem.trace = &trace;
}

runtime::RuntimeConfig
Session::runtimeConfig(const Topology& topo)
{
    runtime::RuntimeConfig cfg =
        schedulerSetups()[*schedulerIndex(opt.sched)].cfg;
    cfg.enforce_consistent_order = opt.enforce;
    if (!opt.faults.empty()) {
        faults = sim::FaultTimeline::parse(opt.faults);
        faults.validateForDims(topo.numDims());
        cfg.faults = &faults;
    }
    cfg.adaptation.enabled = opt.adapt;
    cfg.adaptation.replan_threshold = opt.replan_threshold;
    if (!opt.report.empty() || !opt.trace.empty())
        cfg.telemetry = &telem;
    return cfg;
}

void
Session::finish(stats::telemetry::RunReport& report,
                bool with_telemetry) const
{
    std::fputs(report.toText().c_str(), stdout);
    if (!opt.trace.empty()) {
        trace.writeFile(opt.trace);
        std::printf("trace: %zu span(s), %zu instant(s) -> %s (open in "
                    "ui.perfetto.dev or chrome://tracing)\n",
                    trace.eventCount(), trace.instantCount(),
                    opt.trace.c_str());
    }
    if (opt.report.empty())
        return;
    if (with_telemetry) {
        report.attachMetrics(&telem.metrics);
        report.attachRecorder(&telem.recorder);
    }
    report.writeFile(opt.report);
    std::printf("report: mode %s -> %s (schema %s)\n",
                report.mode().c_str(), opt.report.c_str(),
                stats::telemetry::RunReport::kSchemaVersion);
}

std::optional<double>
parseNumber(const std::string& s)
{
    char* end = nullptr;
    const double x = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0')
        return std::nullopt;
    return x;
}

std::optional<int>
parseCount(const std::string& s)
{
    char* end = nullptr;
    const long n = std::strtol(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || n < 1 || n > INT_MAX)
        return std::nullopt;
    return static_cast<int>(n);
}

Topology
resolveTopology(const std::string& arg)
{
    // Preset names contain no ':'; specs always do.
    if (arg.find(':') == std::string::npos)
        return presets::byName(arg);
    return parseTopology("custom", arg);
}

std::optional<CollectiveType>
parseCollectiveType(const std::string& s)
{
    const std::pair<const char*, CollectiveType> kTypes[] = {
        {"ar", CollectiveType::AllReduce},
        {"rs", CollectiveType::ReduceScatter},
        {"ag", CollectiveType::AllGather},
        {"a2a", CollectiveType::AllToAll}};
    for (const auto& [name, type] : kTypes)
        if (s == name)
            return type;
    return std::nullopt;
}

const std::vector<SchedulerSetup>&
schedulerSetups()
{
    static const std::vector<SchedulerSetup> setups = {
        {"base", "Baseline", runtime::baselineConfig()},
        {"fifo", "Themis+FIFO", runtime::themisFifoConfig()},
        {"scf", "Themis+SCF", runtime::themisScfConfig()}};
    return setups;
}

std::optional<std::size_t>
schedulerIndex(const std::string& flag)
{
    for (std::size_t i = 0; i < schedulerSetups().size(); ++i)
        if (flag == schedulerSetups()[i].flag)
            return i;
    return std::nullopt;
}

std::string
hex16(std::uint64_t h)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
reportTopology(stats::telemetry::RunReport& report, const Topology& topo,
               const std::vector<double>& util)
{
    using stats::telemetry::Unit;
    report.setInfo("topology", topo.name());
    report.setNumber("npus", static_cast<double>(topo.totalNpus()),
                     Unit::Count);
    std::vector<stats::telemetry::RunReport::Column> cols = {
        {"dim", "Dim"}, {"link", "Link"}};
    if (!util.empty())
        cols.push_back({"utilization", "BW util", Unit::Percent});
    auto& t = report.addTable("dims", cols);
    for (int d = 0; d < topo.numDims(); ++d) {
        std::vector<stats::telemetry::RunReport::Cell> row = {
            "dim" + std::to_string(d + 1), topo.dim(d).describe()};
        if (!util.empty())
            row.push_back(util[static_cast<std::size_t>(d)]);
        t.addRow(row);
    }
}

runtime::RuntimeConfig
clusterConfig(runtime::RuntimeConfig cfg, double tier_ratio, int chunks)
{
    if (cfg.scheduler == SchedulerKind::Themis && tier_ratio > 1.0)
        cfg.scheduler = SchedulerKind::ThemisPriority;
    cfg.priority = PriorityPolicy::tiered(tier_ratio);
    cfg.default_chunks = chunks;
    return cfg;
}

namespace {

/**
 * A transfer ran out of retry budget: print the structured report and,
 * with telemetry armed, the flight-recorder tail leading into it; then
 * write the partial trace and a mode-"fatal" report.
 */
void
reportRetryExhausted(const Session& s, const runtime::FatalRetryReport& r)
{
    std::fprintf(stderr,
                 "fatal: retry budget exhausted on dim%d (collective %d "
                 "chunk %d stage %d, %d attempts, %s re-sent); raise retry "
                 "max attempts or shorten the fault windows\n",
                 r.dim + 1, r.op.collective_id, r.op.chunk_id,
                 r.op.stage_index, r.attempts,
                 fmtBytes(r.lost_bytes).c_str());
    const auto events = s.telem.recorder.events();
    const std::size_t tail = std::min<std::size_t>(events.size(), 16);
    if (tail > 0)
        std::fprintf(stderr, "flight recorder (last %zu of %llu event(s)):\n",
                     tail,
                     static_cast<unsigned long long>(
                         s.telem.recorder.totalRecorded()));
    for (std::size_t i = events.size() - tail; i < events.size(); ++i)
        std::fprintf(stderr, "  %s\n",
                     stats::telemetry::describeFlightEvent(events[i]).c_str());
    stats::telemetry::RunReport report("fatal");
    report.setInfo("error", "retry budget exhausted");
    using stats::telemetry::Unit;
    report.setNumber("dim", r.dim + 1, Unit::Count);
    report.setNumber("attempts", r.attempts, Unit::Count);
    report.setNumber("lost_bytes", r.lost_bytes, Unit::Bytes);
    report.setNumber("collective", r.op.collective_id, Unit::Count);
    report.setNumber("chunk", r.op.chunk_id, Unit::Count);
    report.setNumber("stage", r.op.stage_index, Unit::Count);
    s.finish(report);
}

} // namespace

int
runCli(int argc, char** argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    const std::string usage =
        usageText(std::filesystem::path(argv[0]).filename());
    if (std::find(args.begin(), args.end(), "--help") != args.end()) {
        std::fputs(usage.c_str(), stdout);
        return 0;
    }
    Options opt;
    try {
        opt = parseArgs(args);
    } catch (const UsageError& e) {
        std::fprintf(stderr, "error: %s\n\n%s", e.what(), usage.c_str());
        return 2;
    }
    Session s(opt);
    try {
        return runMode(s);
    } catch (const runtime::RetryExhaustedError& e) {
        // Exit distinctly: the fabric gave up, the config was fine.
        reportRetryExhausted(s, e.report());
        return 2;
    } catch (const ConfigError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

} // namespace themis::app
