// The batch modes: --grid/--sweep, --serve and --merge. Cells run on
// sweep worker threads against one shared plan cache and journal into
// an optional ResultStore. Grid cells and serve queries share one key
// format, so a grid's store answers serve queries.

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "app/app.hpp"
#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "models/model_zoo.hpp"
#include "sim/grid_shard.hpp"
#include "sim/result_store.hpp"
#include "sim/sweep_runner.hpp"

namespace themis::app {

using stats::telemetry::RunReport;
using stats::telemetry::Unit;

namespace {

using Values = std::vector<std::pair<std::string, double>>;
using KeyFields = std::vector<std::pair<std::string, std::string>>;

/** One evaluated grid cell or serve query. */
struct CellOutcome
{
    Values values;
    double wall_ms = 0.0;
};

/** Evaluate @p n cells on the sweep workers, timing each. */
template <typename Eval>
std::vector<CellOutcome>
evaluate(std::size_t n, int threads, Eval eval)
{
    return sim::sweepIndexed(
        n,
        [&](std::size_t j, sim::EventQueue& queue) {
            const double t0 = nowMs();
            CellOutcome out{eval(j, queue)};
            out.wall_ms = nowMs() - t0;
            return out;
        },
        sim::SweepOptions{threads});
}

/** Config of a cell under scheduler @p sched with a shared cache. */
runtime::RuntimeConfig
cellConfig(std::size_t sched, bool enforce, PlanCache& cache)
{
    runtime::RuntimeConfig cfg = schedulerSetups()[sched].cfg;
    cfg.enforce_consistent_order = enforce;
    cfg.plan_cache = &cache;
    return cfg;
}

/** "%.17g": key fields round-trip any double. */
std::string
keyDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Result-store key of a cell: the common fields plus @p extra. */
std::string
cellKey(const std::string& topo, std::size_t sched, int chunks,
        bool enforce, KeyFields extra)
{
    extra.insert(extra.end(), {{"topo", topo},
                               {"sched", schedulerSetups()[sched].name},
                               {"chunks", std::to_string(chunks)},
                               {"enforce", enforce ? "1" : "0"}});
    return sim::makeResultKey(std::move(extra));
}

/** Simulate one collective alone: {time_ns, util}. */
Values
collectiveCell(sim::EventQueue& queue, const Topology& topo,
               const runtime::RuntimeConfig& cfg, const CollectiveRequest& req)
{
    runtime::CommRuntime comm(queue, topo, cfg);
    const int cid = comm.issue(req);
    queue.run();
    comm.finalizeStats();
    return {{"time_ns", comm.record(cid).duration()},
            {"util", comm.utilization().weightedUtilization()}};
}

sim::ResultRecord
makeRecord(std::string key, const CellOutcome& out)
{
    sim::ResultRecord rec;
    rec.key = std::move(key);
    rec.values = out.values;
    rec.fingerprint = sim::fingerprintValues(out.values);
    rec.wall_ms = out.wall_ms;
    return rec;
}

/** Set the plan-cache numbers of a batch report. */
void
reportPlanCache(RunReport& report, const PlanCache& cache)
{
    const auto stats = cache.stats();
    report.setNumber("plan_cache_plans",
                     static_cast<double>(cache.planCount()), Unit::Count);
    report.setNumber("plan_cache_hits", static_cast<double>(stats.plan_hits),
                     Unit::Count);
    report.setNumber("plan_cache_misses",
                     static_cast<double>(stats.plan_misses), Unit::Count);
}

/**
 * Parse a ';'- or '|'-separated axis list into {token, parse(token)}
 * entries, rejecting empty ones and prefixing each entry's diagnostic
 * with its position (the list is one argument, so always line 1).
 */
template <typename T, typename Parse>
std::vector<T>
parseAxis(const std::string& arg, char sep, const char* what, Parse parse)
{
    std::vector<T> out;
    std::size_t column = 1;
    for (const std::string& tok : split(arg, sep)) {
        const std::string where = std::string(what) + " " +
                                  std::to_string(out.size() + 1) +
                                  " (line 1, column " +
                                  std::to_string(column) + ")";
        column += tok.size() + 1;
        if (tok.find_first_not_of(" \t") == std::string::npos)
            THEMIS_FATAL(where << " is empty; remove the stray '" << sep
                               << "' or name one");
        try {
            out.push_back({tok, parse(tok)});
        } catch (const ConfigError& e) {
            THEMIS_FATAL(where << ": '" << tok << "': " << e.what());
        }
    }
    return out;
}

double
valueOf(const Values& vals, const std::string& name)
{
    for (const auto& [n, v] : vals)
        if (n == name)
            return v;
    return 0.0;
}

} // namespace

int
runMerge(Session& s)
{
    // Byte-equal to the canonicalBytes() of a 1-process run over the
    // same grid, so cmp proves a sharded run exact.
    const std::vector<std::string> parts = split(s.opt.merge, ',');
    if (parts.size() < 2)
        THEMIS_FATAL("--merge wants OUT,IN1[,IN2,...]; got '" << s.opt.merge
                                                              << "'");
    const std::vector<std::string> inputs(parts.begin() + 1, parts.end());
    const std::string merged = sim::ResultStore::canonicalMerge(inputs);
    writeFile(parts.front(), merged);
    RunReport report("merge");
    report.setInfo("output", parts.front());
    report.setNumber("inputs", static_cast<double>(inputs.size()),
                     Unit::Count);
    report.setNumber("bytes", static_cast<double>(merged.size()),
                     Unit::Count);
    s.finish(report, false);
    return 0;
}

int
runGrid(Session& s)
{
    // Every listed platform x the three schedulers (x the --sweep chunk
    // counts, x the --jobs cluster mixes), one simulation per cell.
    // Cells enumerate into a canonical order by index arithmetic, so
    // every process agrees on cell order and keys whatever its --shard.
    const Options& o = s.opt;
    struct GridTopo
    {
        std::string token; ///< key field and label: specs all name "custom"
        Topology topo;
    };
    struct JobsMix
    {
        std::string token; ///< hashed into the key field
        std::vector<cluster::JobSpec> specs;
    };
    std::vector<GridTopo> topos;
    if (!o.grid.empty())
        topos = parseAxis<GridTopo>(o.grid, ';', "--grid entry",
                                    resolveTopology);
    else
        topos.push_back({o.topo, resolveTopology(o.topo)});
    std::vector<JobsMix> mixes;
    if (!o.jobs.empty())
        mixes = parseAxis<JobsMix>(o.jobs, '|', "--jobs mix",
                                   [&](const std::string& tok) {
                                       return cluster::parseJobSpecs(
                                           tok, clusterIterations(o));
                                   });
    const std::vector<int> chunk_list =
        o.sweep.empty() ? std::vector<int>{o.chunks} : o.sweep_chunks;
    CollectiveRequest req;
    req.size = o.size;
    req.type = *parseCollectiveType(o.type);
    const std::size_t n_sched = schedulerSetups().size();
    const std::size_t per_mix = chunk_list.size() * n_sched;
    const std::size_t per_topo = std::max<std::size_t>(mixes.size(), 1) *
                                 per_mix;
    const std::size_t cells = topos.size() * per_topo;

    // Canonical cell order, topology-major: (topo, mix, chunks, sched).
    const auto cellTopo = [&](std::size_t i) { return i / per_topo; };
    const auto cellMix = [&](std::size_t i) { return i % per_topo / per_mix; };
    const auto cellChunks = [&](std::size_t i) {
        return chunk_list[i % per_mix / n_sched];
    };
    const auto cellSched = [&](std::size_t i) { return i % n_sched; };
    const auto keyOf = [&](std::size_t i) {
        KeyFields extra{{"type", o.type}, {"size", keyDouble(req.size)}};
        if (!mixes.empty()) {
            // Mix specs contain '=' (reserved in keys): key on a hash.
            const std::string& mix = mixes[cellMix(i)].token;
            extra = {{"jobs", hex16(sim::fingerprintBytes(mix.data(),
                                                          mix.size()))},
                     {"tiers", keyDouble(o.tier_ratio)}};
        }
        return cellKey(topos[cellTopo(i)].token, cellSched(i), cellChunks(i),
                       o.enforce, std::move(extra));
    };

    sim::ShardSpec shard;
    if (!o.shard.empty())
        shard = sim::parseShardSpec(o.shard);
    const std::vector<std::size_t> owned = sim::shardCells(cells, shard);
    std::unique_ptr<sim::ResultStore> store;
    if (!o.results.empty()) {
        store = std::make_unique<sim::ResultStore>(o.results);
        // Even a shard that owns no cells leaves a journal to merge.
        store->openJournal();
    }
    std::vector<std::size_t> pending; // owned cells not in the store
    for (std::size_t cell : owned)
        if (store == nullptr || !store->has(keyOf(cell)))
            pending.push_back(cell);
    const std::size_t resumed = owned.size() - pending.size();
    const bool interrupted =
        o.max_cells > 0 && pending.size() > std::size_t(o.max_cells);
    if (interrupted)
        pending.resize(static_cast<std::size_t>(o.max_cells));

    PlanCache cache;
    const double t0 = nowMs();
    const auto fresh = evaluate(
        pending.size(), o.threads, [&](std::size_t j, sim::EventQueue& q) {
            const std::size_t i = pending[j];
            const auto cfg = cellConfig(cellSched(i), o.enforce, cache);
            const Topology& topo = topos[cellTopo(i)].topo;
            if (mixes.empty()) {
                CollectiveRequest r = req;
                r.chunks = cellChunks(i);
                return collectiveCell(q, topo, cfg, r);
            }
            cluster::Cluster cl(
                q, topo, clusterConfig(cfg, o.tier_ratio, cellChunks(i)),
                mixes[cellMix(i)].specs);
            const auto rep = cl.run();
            return Values{{"makespan_ns", rep.makespan},
                          {"fabric_util", rep.fabric_utilization},
                          {"total_bytes", rep.total_bytes}};
        });
    const double wall_ms = nowMs() - t0;
    // Journal in canonical order (pending ascends), so independently
    // produced shard journals merge deterministically.
    if (store != nullptr)
        for (std::size_t j = 0; j < pending.size(); ++j)
            store->append(makeRecord(keyOf(pending[j]), fresh[j]));

    RunReport report("grid");
    if (o.grid.empty())
        report.setInfo("topology", o.topo);
    else
        report.setInfo("grid", o.grid);
    for (const auto& [key, value] : {std::pair{"sweep", &o.sweep},
                                     std::pair{"jobs", &o.jobs},
                                     std::pair{"results_store", &o.results}})
        if (!value->empty())
            report.setInfo(key, *value);
    if (!shard.whole() || store != nullptr)
        report.setInfo("shard", std::to_string(shard.index) + "/" +
                                    std::to_string(shard.count));
    if (mixes.empty()) {
        report.setInfo("collective", collectiveTypeName(req.type));
        report.setNumber("size_bytes", req.size, Unit::Bytes);
    } else {
        report.setNumber("mixes", static_cast<double>(mixes.size()),
                         Unit::Count);
        report.setNumber("tier_ratio", o.tier_ratio);
    }
    report.setNumber("topologies", static_cast<double>(topos.size()),
                     Unit::Count);
    const std::tuple<const char*, const char*, std::size_t> counts[] = {
        {"grid.cells.total", "cells", cells},
        {"grid.cells.owned", "owned", owned.size()},
        {"grid.cells.resumed", "resumed", resumed},
        {"grid.cells.simulated", "simulated", pending.size()}};
    for (const auto& [gauge, number, n] : counts) {
        s.telem.metrics.gauge(gauge).set(static_cast<double>(n));
        report.setNumber(number, static_cast<double>(n), Unit::Count);
    }
    if (interrupted)
        report.setInfo("interrupted", "--max-cells");
    if (store != nullptr) {
        report.setNumber("store_records", static_cast<double>(store->size()),
                         Unit::Count);
        if (store->recoveredTruncatedTail())
            report.setInfo("store_recovery", "truncated tail recovered");
    }
    report.setNumber("wall_ms", wall_ms);
    report.setNumber("cells_per_sec",
                     static_cast<double>(pending.size()) / (wall_ms * 1e-3));
    reportPlanCache(report, cache);

    std::vector<RunReport::Column> cols = {{"key", ""},
                                           {"topology", "Topology"}};
    if (!mixes.empty())
        cols.push_back({"jobs", "Jobs"});
    cols.push_back({"chunks", "Chunks", Unit::Count});
    cols.push_back({"scheduler", "Scheduler"});
    // The cell's result-store values, nested under "values".
    std::vector<RunReport::Column> values;
    if (mixes.empty())
        values = {{"values.time_ns", "Time", Unit::Time},
                  {"values.util", "Avg BW util", Unit::Percent}};
    else
        values = {{"values.makespan_ns", "Makespan", Unit::Time},
                  {"values.fabric_util", "Fabric util", Unit::Percent},
                  {"values.total_bytes", "Bytes", Unit::Bytes}};
    cols.insert(cols.end(), values.begin(), values.end());
    auto& table = report.addTable("cells", cols);
    std::size_t jp = 0;
    for (std::size_t cell : owned) {
        const Values* vals = nullptr;
        if (jp < pending.size() && pending[jp] == cell)
            vals = &fresh[jp++].values;
        else if (const auto* rec = store ? store->find(keyOf(cell)) : nullptr)
            vals = &rec->values;
        if (vals == nullptr)
            continue; // beyond the --max-cells cap
        std::vector<RunReport::Cell> row = {keyOf(cell),
                                            topos[cellTopo(cell)].token};
        if (!mixes.empty())
            row.push_back(mixes[cellMix(cell)].token);
        row.push_back(cellChunks(cell));
        row.push_back(schedulerSetups()[cellSched(cell)].name);
        for (const RunReport::Column& c : values)
            row.push_back(valueOf(*vals, c.key.substr(c.key.find('.') + 1)));
        table.addRow(row);
    }
    s.finish(report);
    return 0;
}

namespace {

/** One parsed --serve query line. */
struct Query
{
    std::string line;
    std::string error; ///< non-empty: rejected at parse
    std::string key;
    std::optional<Topology> topo;
    std::size_t sched = 2; ///< schedulerSetups() index of scf
    CollectiveRequest req;
    bool is_model = false; ///< a convergence run of model
    std::string model;
    int iters = 3;
};

/** Parse one query line (grammar in the usage text). */
Query
parseQuery(const std::string& line, const Options& o)
{
    Query q;
    q.line = line;
    q.req.chunks = o.chunks;
    q.req.size = o.size;
    std::string topo_tok, type_tok = o.type;
    std::istringstream in(line);
    std::string tok;
    auto fail = [&](std::string why) {
        q.error = std::move(why);
        return q;
    };
    while (in >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos)
            return fail("token '" + tok + "' is not key=value");
        const std::string key = toLower(tok.substr(0, eq));
        const std::string val = tok.substr(eq + 1);
        if (val.find_first_of(";=") != std::string::npos)
            return fail("value '" + val + "' contains a reserved ';' or '='");
        if (key == "topo") {
            topo_tok = val;
        } else if (key == "sched") {
            const auto idx = schedulerIndex(toLower(val));
            if (!idx)
                return fail("bad sched '" + val + "' (base|fifo|scf)");
            q.sched = *idx;
        } else if (key == "chunks") {
            const auto n = parseCount(val);
            if (!n)
                return fail("bad chunks '" + val + "'");
            q.req.chunks = *n;
        } else if (key == "iters") {
            const auto n = parseCount(val);
            if (!n)
                return fail("bad iters '" + val + "'");
            q.iters = *n;
        } else if (key == "type") {
            type_tok = toLower(val);
        } else if (key == "size") {
            const auto size = parseNumber(val);
            if (!size || *size <= 0.0)
                return fail("bad size '" + val + "'");
            q.req.size = *size;
        } else if (key == "model") {
            q.is_model = true;
            q.model = val;
        } else {
            return fail("unknown key '" + key +
                        "' (topo sched chunks type size model iters)");
        }
    }
    if (topo_tok.empty())
        return fail("topo= is required");
    try {
        q.topo = resolveTopology(topo_tok);
        if (q.is_model)
            (void)models::byName(q.model);
    } catch (const ConfigError& e) {
        return fail(e.what());
    }
    const auto type = parseCollectiveType(type_tok);
    if (!q.is_model && !type)
        return fail("bad type '" + type_tok + "' (ar|rs|ag|a2a)");
    q.req.type = type.value_or(CollectiveType::AllReduce);
    q.key = cellKey(topo_tok, q.sched, q.req.chunks, o.enforce,
                    q.is_model ? KeyFields{{"model", q.model},
                                           {"iters", std::to_string(q.iters)}}
                               : KeyFields{{"type", type_tok},
                                           {"size", keyDouble(q.req.size)}});
    return q;
}

} // namespace

int
runServe(Session& s)
{
    // Each batch (a blank line flushes one) simulates its unanswered
    // keys in parallel against one warm plan cache; repeats — within a
    // batch, across batches, or recorded in --results by an earlier
    // grid or serve run — are answered without re-simulating.
    const Options& o = s.opt;
    auto& metrics = s.telem.metrics;
    std::unique_ptr<sim::ResultStore> store;
    if (!o.results.empty())
        store = std::make_unique<sim::ResultStore>(o.results);
    std::unordered_map<std::string, sim::ResultRecord> session;
    PlanCache cache;
    std::size_t n_q = 0, n_hit = 0, n_miss = 0, n_err = 0;
    double hit_ms = 0.0, miss_ms = 0.0;
    std::vector<Query> batch;
    auto lookup = [&](const std::string& key) -> const sim::ResultRecord* {
        if (store != nullptr)
            return store->find(key);
        const auto it = session.find(key);
        return it == session.end() ? nullptr : &it->second;
    };
    auto flush = [&]() {
        std::vector<std::size_t> miss_idx;
        std::unordered_set<std::string> batch_keys;
        for (std::size_t i = 0; i < batch.size(); ++i)
            if (batch[i].error.empty() && lookup(batch[i].key) == nullptr &&
                batch_keys.insert(batch[i].key).second)
                miss_idx.push_back(i);
        const auto outs = evaluate(
            miss_idx.size(), o.threads, [&](std::size_t j, sim::EventQueue& q) {
                const Query& qu = batch[miss_idx[j]];
                auto cfg = cellConfig(qu.sched, o.enforce, cache);
                cfg.default_chunks = qu.req.chunks;
                if (!qu.is_model)
                    return collectiveCell(q, *qu.topo, cfg, qu.req);
                runtime::CommRuntime comm(q, *qu.topo, cfg);
                workload::TrainingLoop loop(comm, models::byName(qu.model));
                workload::ConvergenceOptions copts;
                copts.iterations = qu.iters;
                const auto r = workload::runConverged(comm, loop, copts);
                return Values{{"total_ns", r.total.total},
                              {"iter_ns", r.last.total},
                              {"util", r.utilization}};
            });
        std::unordered_map<std::string, double> simulated_ms;
        for (std::size_t j = 0; j < miss_idx.size(); ++j) {
            const std::string& key = batch[miss_idx[j]].key;
            simulated_ms[key] = outs[j].wall_ms;
            if (store != nullptr)
                store->append(makeRecord(key, outs[j]));
            else
                session.emplace(key, makeRecord(key, outs[j]));
        }
        for (const Query& q : batch) {
            ++n_q;
            metrics.counter("serve.queries").add();
            if (!q.error.empty()) {
                ++n_err;
                metrics.counter("serve.errors").add();
                std::printf("error: %s (query '%s')\n", q.error.c_str(),
                            q.line.c_str());
                continue;
            }
            const auto sim_it = simulated_ms.find(q.key);
            const bool miss = sim_it != simulated_ms.end();
            const double t0 = nowMs();
            const sim::ResultRecord* rec = lookup(q.key);
            double ms = nowMs() - t0;
            THEMIS_ASSERT(rec != nullptr, "serve: evaluated query missing");
            std::string vals;
            for (const auto& [name, v] : rec->values)
                vals += " " + name + "=" + keyDouble(v);
            if (miss) {
                ms = sim_it->second;
                simulated_ms.erase(sim_it); // later repeats are hits
                ++n_miss;
                miss_ms += ms;
            } else {
                ++n_hit;
                hit_ms += ms;
            }
            metrics.counter(miss ? "serve.misses" : "serve.hits").add();
            metrics.histogram(miss ? "serve.miss_ns" : "serve.hit_ns")
                .record(ms * 1e6);
            metrics.histogram("serve.query_ns").record(ms * 1e6);
            std::printf("result %s ::%s (%s %.4f ms)\n", q.key.c_str(),
                        vals.c_str(), miss ? "miss" : "hit", ms);
        }
        batch.clear();
    };
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            flush();
        else
            batch.push_back(parseQuery(line, o));
    }
    flush();

    const double mean_hit = n_hit > 0 ? hit_ms / double(n_hit) : 0.0;
    const double mean_miss = n_miss > 0 ? miss_ms / double(n_miss) : 0.0;
    RunReport report("serve");
    if (!o.results.empty())
        report.setInfo("results_store", o.results);
    report.setNumber("queries", static_cast<double>(n_q), Unit::Count);
    report.setNumber("hits", static_cast<double>(n_hit), Unit::Count);
    report.setNumber("misses", static_cast<double>(n_miss), Unit::Count);
    report.setNumber("errors", static_cast<double>(n_err), Unit::Count);
    report.setNumber("mean_hit_ms", mean_hit);
    report.setNumber("mean_miss_ms", mean_miss);
    if (n_hit > 0 && n_miss > 0 && mean_hit > 0.0)
        report.setNumber("warm_speedup", mean_miss / mean_hit, Unit::Factor);
    reportPlanCache(report, cache);
    s.finish(report);
    return 0;
}

} // namespace themis::app
