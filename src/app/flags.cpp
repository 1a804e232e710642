#include <algorithm>
#include <variant>

#include "app/app.hpp"
#include "common/string_util.hpp"

namespace themis::app {

namespace {

/** What a flag's argument must be. */
enum class Arg
{
    Switch,      ///< none
    Text,        ///< any string
    Count,       ///< integer >= 1
    Positive,    ///< number > 0
    Weight,      ///< number >= 1
    NonNegative, ///< number >= 0
};

constexpr unsigned
bit(Mode m)
{
    return 1u << static_cast<unsigned>(m);
}

constexpr unsigned kSingle = bit(Mode::Single), kGrid = bit(Mode::Grid),
                   kMixGrid = bit(Mode::MixGrid), kServe = bit(Mode::Serve),
                   kMerge = bit(Mode::Merge), kIters = bit(Mode::Iterations),
                   kJobs = bit(Mode::Jobs), kPrio = bit(Mode::Priority);
constexpr unsigned kGrids = kGrid | kMixGrid;
constexpr unsigned kAll =
    kSingle | kGrids | kServe | kMerge | kIters | kJobs | kPrio;

struct Flag
{
    const char* name;
    Arg arg;
    const char* metavar;
    unsigned modes; ///< the modes that read the flag
    std::variant<bool Options::*, std::string Options::*, int Options::*,
                 double Options::*>
        field;
    const char* help;
};

// The one place each flag's modes are listed.
const Flag kFlags[] = {
    {"--topo", Arg::Text, "NAME|SPEC",
     kSingle | kGrids | kPrio | kIters | kJobs, &Options::topo,
     "preset, or spec \"SW:16:200x6:700,...\" [3D-SW_SW_SW_homo]"},
    {"--type", Arg::Text, "ar|rs|ag|a2a", kSingle | kGrid | kServe,
     &Options::type, "collective pattern [ar]"},
    {"--size", Arg::Positive, "BYTES", kSingle | kGrid | kServe | kPrio,
     &Options::size, "per-NPU collective size (priority: bulk) [1e9]"},
    {"--chunks", Arg::Count, "N", kSingle | kGrids | kServe | kJobs,
     &Options::chunks, "chunks per collective [64]"},
    {"--sched", Arg::Text, "base|fifo|scf", kSingle | kIters | kJobs,
     &Options::sched, "scheduler [scf]"},
    {"--enforce", Arg::Switch, "", kAll & ~kMerge, &Options::enforce,
     "pre-simulate and enforce chunk-op orders"},
    {"--validate", Arg::Switch, "", kSingle, &Options::validate,
     "cross-check the fluid model against the per-NPU backend"},
    {"--sweep", Arg::Text, "C1,C2,...", kGrids, &Options::sweep,
     "chunk-count axis; alone, a grid over --topo"},
    {"--grid", Arg::Text, "T1;T2;...", kGrids, &Options::grid,
     "topology axis (presets and/or specs) x the three schedulers"},
    {"--shard", Arg::Text, "I/N", kGrids, &Options::shard,
     "own the cells whose canonical index is I mod N"},
    {"--results", Arg::Text, "PATH", kGrids | kServe, &Options::results,
     "append-only JSONL results store; recorded cells are skipped"},
    {"--max-cells", Arg::Count, "N", kGrids, &Options::max_cells,
     "stop after simulating N new cells"},
    {"--merge", Arg::Text, "OUT,IN1,...", kMerge, &Options::merge,
     "write the canonical merge of the IN stores to OUT"},
    {"--serve", Arg::Switch, "", kServe, &Options::serve,
     "answer stdin queries: topo=T [sched= chunks= type= size=] or "
     "topo=T model=M [iters=N]"},
    {"--priority", Arg::Weight, "W", kPrio, &Options::priority,
     "urgent All-Reduce chain (weight W) vs bulk All-Reduces"},
    {"--iterations", Arg::Count, "N", kIters | kJobs | kMixGrid,
     &Options::iterations,
     "training iterations of --model, or of cluster jobs [3]"},
    {"--model", Arg::Text, "NAME", kIters, &Options::model,
     "model-zoo workload [Transformer-1T]"},
    {"--exact", Arg::Switch, "", kIters | kJobs, &Options::exact,
     "co-run the full simulation; assert replay bit-identical"},
    {"--no-replay", Arg::Switch, "", kIters | kJobs, &Options::no_replay,
     "simulate every iteration (same results)"},
    {"--cycle-limit", Arg::Count, "K", kIters | kJobs, &Options::cycle_limit,
     "longest steady cycle to confirm, in rounds [hyper-period]"},
    {"--jobs", Arg::Text, "N|SPECS", kGrids | kServe | kJobs, &Options::jobs,
     "N: worker threads; SPECS: 'train:MODEL[,k=v];"
     "infer:SIZE,period=NS[,k=v]' cluster ('|' separates grid mixes)"},
    {"--tier-ratio", Arg::Weight, "W", kJobs | kMixGrid, &Options::tier_ratio,
     "cluster weight ladder tiered(W) [4]"},
    {"--offset-search", Arg::Switch, "", kJobs, &Options::offset_search,
     "search job phase offsets; run the best"},
    {"--faults", Arg::Text, "SPEC", kSingle | kIters | kJobs,
     &Options::faults, "fault timeline: 'degrade@2e5+4e5:dim=0,factor=.5'"},
    {"--adapt", Arg::Switch, "", kSingle | kIters | kJobs, &Options::adapt,
     "re-plan new collectives after capacity changes"},
    {"--replan-threshold", Arg::NonNegative, "T", kSingle | kIters | kJobs,
     &Options::replan_threshold, "capacity change that re-plans [0.05]"},
    {"--report", Arg::Text, "PATH", kAll, &Options::report,
     "write the run report JSON"},
    {"--trace", Arg::Text, "PATH", kSingle | kIters | kJobs,
     &Options::trace, "write a Chrome/Perfetto trace"},
};

/** The mode table, in Mode (selection) order. */
struct ModeInfo
{
    Mode mode;
    const char* name;
    const char* selector;
    int (*run)(Session&);
};

const ModeInfo kModes[] = {
    {Mode::Merge, "merge", "--merge", runMerge},
    {Mode::Serve, "serve", "--serve", runServe},
    {Mode::Grid, "grid", "--grid/--sweep", runGrid},
    {Mode::MixGrid, "mix-grid", "--grid/--sweep with --jobs SPECS", runGrid},
    {Mode::Priority, "priority", "--priority", runPriority},
    {Mode::Jobs, "jobs", "--jobs SPECS", runJobs},
    {Mode::Iterations, "iterations", "--iterations", runIterations},
    {Mode::Single, "single", "no mode flag", runSingle},
};

const ModeInfo&
modeInfo(Mode mode)
{
    return kModes[static_cast<std::size_t>(mode)];
}

std::string
modeList(unsigned modes)
{
    std::string out;
    for (const ModeInfo& m : kModes)
        if (modes & bit(m.mode))
            out += std::string(out.empty() ? "" : " ") + m.name;
    return out;
}

/** Parse and store one flag value, or throw naming the flag. */
void
setValue(Options& o, const Flag& f, const std::string& v)
{
    auto bad = [&](const char* want) {
        return UsageError(std::string(f.name) + " wants " + want +
                          "; got '" + v + "'");
    };
    const auto x = parseNumber(v);
    if (f.arg == Arg::Text) {
        o.*std::get<std::string Options::*>(f.field) = v;
    } else if (f.arg == Arg::Count) {
        const auto n = parseCount(v);
        if (!n)
            throw bad("an integer >= 1");
        o.*std::get<int Options::*>(f.field) = *n;
    } else if (f.arg == Arg::Positive && !(x && *x > 0.0)) {
        throw bad("a number > 0");
    } else if (f.arg == Arg::Weight && !(x && *x >= 1.0)) {
        throw bad("a number >= 1");
    } else if (f.arg == Arg::NonNegative && !(x && *x >= 0.0)) {
        throw bad("a number >= 0");
    } else {
        o.*std::get<double Options::*>(f.field) = *x;
    }
}

} // namespace

Options
parseArgs(const std::vector<std::string>& args)
{
    Options o;
    std::vector<std::string> given;
    auto has = [&](const char* name) {
        return std::find(given.begin(), given.end(), name) != given.end();
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const auto f = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [&](const Flag& fl) { return args[i] == fl.name; });
        if (f == std::end(kFlags))
            throw UsageError("unknown flag '" + args[i] + "'");
        given.push_back(f->name);
        if (f->arg == Arg::Switch) {
            o.*std::get<bool Options::*>(f->field) = true;
        } else if (i + 1 == args.size()) {
            throw UsageError(args[i] + " wants a value (" + f->metavar + ")");
        } else if (given.back() == "--jobs" &&
                   args[i + 1].find_first_not_of("0123456789") ==
                       std::string::npos) {
            // An all-digit --jobs is a worker-thread count (0 = hardware
            // concurrency), not a cluster spec.
            o.threads = parseCount(args[++i]).value_or(0);
        } else {
            setValue(o, *f, args[++i]);
        }
    }

    if (has("--merge"))
        o.mode = Mode::Merge;
    else if (has("--serve"))
        o.mode = Mode::Serve;
    else if (has("--grid") || has("--sweep"))
        o.mode = o.jobs.empty() ? Mode::Grid : Mode::MixGrid;
    else if (has("--priority"))
        o.mode = Mode::Priority;
    else if (!o.jobs.empty())
        o.mode = Mode::Jobs;
    else if (has("--iterations"))
        o.mode = Mode::Iterations;
    for (const Flag& f : kFlags)
        if (has(f.name) && (f.modes & bit(o.mode)) == 0)
            throw UsageError(std::string(f.name) + " does not apply to the " +
                             modeInfo(o.mode).name + " mode (" +
                             modeInfo(o.mode).selector +
                             "); it applies to: " + modeList(f.modes));
    // A grid's axis flag replaces the flag of its single value.
    const bool grid = o.mode == Mode::Grid || o.mode == Mode::MixGrid;
    for (const auto& [flag, axis] : {std::pair{"--topo", "--grid"},
                                     std::pair{"--chunks", "--sweep"}})
        if (grid && has(flag) && has(axis))
            throw UsageError(std::string(flag) + " does not apply to the " +
                             modeInfo(o.mode).name + " mode with " + axis);

    o.type = toLower(o.type);
    o.sched = toLower(o.sched);
    if (!parseCollectiveType(o.type))
        throw UsageError("--type wants ar|rs|ag|a2a; got '" + o.type + "'");
    if (!schedulerIndex(o.sched))
        throw UsageError("--sched wants base|fifo|scf; got '" + o.sched + "'");
    if (!o.sweep.empty()) {
        for (const std::string& tok : split(o.sweep, ',')) {
            const auto n = parseCount(tok);
            if (!n)
                throw UsageError("--sweep wants integers >= 1; got '" + tok +
                                 "' in '" + o.sweep + "'");
            o.sweep_chunks.push_back(*n);
        }
    }
    return o;
}

std::string
usageText(const std::string& argv0)
{
    std::string out =
        "usage: " + argv0 +
        " [flags]\n\n"
        "The mode is chosen by its flag: --merge, --serve, --grid/--sweep\n"
        "(mix-grid with --jobs SPECS), --priority, --jobs SPECS or\n"
        "--iterations; with none of them one collective runs on --topo\n"
        "(single). A flag given outside its modes (in brackets) is\n"
        "rejected. Stdout is the run report's text form; --report writes\n"
        "the same report as JSON. --help prints this text.\n\n";
    for (const Flag& f : kFlags) {
        std::string head = std::string("  ") + f.name;
        if (f.arg != Arg::Switch)
            head += std::string(" ") + f.metavar;
        head.resize(std::max<std::size_t>(head.size() + 1, 26), ' ');
        out += head + f.help + "\n" + std::string(26, ' ') + "[" +
               modeList(f.modes) + "]\n";
    }
    return out;
}

std::vector<std::string>
flagNames()
{
    std::vector<std::string> names;
    for (const Flag& f : kFlags)
        names.push_back(f.name);
    return names;
}

int
runMode(Session& s)
{
    return modeInfo(s.opt.mode).run(s);
}

} // namespace themis::app
