#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <utility>

#include "core/latency_model.hpp"
#include "core/scheduler.hpp"
#include "runtime/collective_session.hpp"
#include "runtime/dimension_engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/shared_channel.hpp"
#include "util.hpp"

namespace perfbench {

using namespace themis;
using runtime::ChunkOp;
using runtime::CollectiveSession;
using runtime::CommRuntime;
using runtime::DimensionEngine;
using runtime::OpTag;

void
Measured::fail(const std::string& reason)
{
    if (valid)
        why = reason;
    valid = false;
}

namespace {

bool
closeRel(double a, double b)
{
    return std::abs(a - b) <=
           1e-9 * std::max({std::abs(a), std::abs(b), 1.0});
}

std::vector<std::unique_ptr<DimensionEngine>>
makeEngines(sim::EventQueue& q, const Stream& s)
{
    const runtime::RuntimeConfig& cfg = s.config;
    std::vector<std::unique_ptr<DimensionEngine>> engines;
    for (int d = 0; d < s.topo->numDims(); ++d)
        engines.push_back(std::make_unique<DimensionEngine>(
            q, s.topo->dim(d), d, cfg.intra_policy, cfg.admission,
            cfg.legacy_engine_scan,
            cfg.legacy_egalitarian_channel
                ? sim::ChannelFairness::Egalitarian
                : sim::ChannelFairness::Weighted,
            cfg.legacy_scalar_admission, cfg.legacy_tier_blind_headroom));
    return engines;
}

/** Recorded start order of each (dimension, collective). */
using StartOrders = std::map<std::pair<int, int>, std::vector<OpKey>>;

StartOrders
startOrders(const std::vector<std::vector<OpTag>>& starts)
{
    StartOrders out;
    for (std::size_t d = 0; d < starts.size(); ++d)
        for (const OpTag& t : starts[d])
            out[{static_cast<int>(d), t.collective_id}].push_back(
                OpKey{t.chunk_id, t.stage_index});
    return out;
}

/** Latency models of a stream's scopes, built once. */
class ScopeModels
{
  public:
    const LatencyModel&
    get(const Topology& topo, const std::vector<ScopeDim>& scope)
    {
        auto it = models_.find(scope);
        if (it == models_.end())
            it = models_
                     .emplace(scope, std::make_unique<LatencyModel>(
                                         LatencyModel::fromScope(topo,
                                                                 scope)))
                     .first;
        return *it->second;
    }

  private:
    std::map<std::vector<ScopeDim>, std::unique_ptr<LatencyModel>>
        models_;
};

CollectiveRequest
requestOf(const CollectiveRecord& c)
{
    CollectiveRequest req;
    req.type = c.rec.type;
    req.size = c.rec.size;
    req.chunks = c.chunks;
    req.scope = c.rec.scope;
    req.priority_tier = c.rec.priority_tier;
    req.job = c.rec.job;
    return req;
}

std::uint64_t
completedOps(CommRuntime& comm)
{
    std::uint64_t n = 0;
    for (int d = 0; d < comm.topology().numDims(); ++d)
        n += comm.engine(d).completedCount();
    return n;
}

/**
 * Calls @p at(i) for the items of @p order at their recorded times:
 * one pending feeder event at a time, so the replay queue holds the
 * recorded stream's own pending set plus one.
 */
template <typename TimeOf, typename At>
class Feeder
{
  public:
    Feeder(sim::EventQueue& q, const std::vector<std::size_t>& order,
           TimeOf time_of, At at)
        : q_(q), order_(order), time_of_(time_of), at_(at)
    {}

    void
    arm()
    {
        if (!order_.empty())
            q_.schedule(time_of_(order_.front()), [this] { feed(); });
    }

    std::size_t fed() const { return next_; }
    std::uint64_t firings() const { return firings_; }

  private:
    void
    feed()
    {
        ++firings_;
        const TimeNs t = time_of_(order_[next_]);
        while (next_ < order_.size() && time_of_(order_[next_]) == t)
            at_(order_[next_++]);
        if (next_ < order_.size())
            q_.schedule(time_of_(order_[next_]), [this] { feed(); });
    }

    sim::EventQueue& q_;
    const std::vector<std::size_t>& order_;
    TimeOf time_of_;
    At at_;
    std::size_t next_ = 0;
    std::uint64_t firings_ = 0;
};

template <typename TimeOf, typename At>
Feeder<TimeOf, At>
makeFeeder(sim::EventQueue& q, const std::vector<std::size_t>& order,
           TimeOf time_of, At at)
{
    return Feeder<TimeOf, At>(q, order, time_of, at);
}

bool
singleStep(const Recording& rec, Measured& m)
{
    for (const Stream& s : rec.streams)
        for (const OpRecord& r : s.ops)
            if (r.op.steps.size() != 1) {
                m.fail("an op has " + std::to_string(r.op.steps.size()) +
                       " steps; the replay models single-step ops");
                return false;
            }
    return true;
}

} // namespace

Measured
replayEventQueue(const Recording& rec, sim::EventFrontEnd front_end,
                 double budget_s)
{
    Measured m;
    if (!singleStep(rec, m))
        return m;
    std::vector<std::vector<std::size_t>> orders;
    for (const Stream& s : rec.streams)
        orders.push_back(s.byStart());
    std::uint64_t events = 0;
    const double ns = medianOfReps(budget_s, [&] {
        double total = 0.0;
        events = 0;
        for (std::size_t i = 0; i < rec.streams.size(); ++i) {
            const Stream& s = rec.streams[i];
            sim::EventQueue q(front_end);
            std::uint64_t fired = 0;
            auto feeder = makeFeeder(
                q, orders[i],
                [&s](std::size_t k) { return s.ops[k].start; },
                [&q, &s, &fired](std::size_t k) {
                    const OpRecord& r = s.ops[k];
                    const TimeNs finish = r.finish;
                    // The op's latency timer, which begins its transfer;
                    // the transfer's completion.
                    q.schedule(beginTime(r), [&q, &fired, finish] {
                        ++fired;
                        q.schedule(finish, [&fired] { ++fired; });
                    });
                });
            feeder.arm();
            const double t0 = nowNs();
            const std::size_t ran = q.run();
            total += nowNs() - t0;
            events += ran;
            TimeNs last = 0.0;
            for (const OpRecord& r : s.ops)
                last = std::max(last, r.finish);
            if (feeder.fed() != s.ops.size() ||
                fired != 2 * s.ops.size() ||
                ran != fired + feeder.firings() ||
                (!s.ops.empty() && q.now() != last))
                m.fail("event replay ran " + std::to_string(ran) +
                       " events for " + std::to_string(s.ops.size()) +
                       " ops");
        }
        return total;
    });
    m.value = events > 0 ? ns / static_cast<double>(events) : 0.0;
    return m;
}

Measured
replayChannel(const Recording& rec, double budget_s,
              ChannelSamples* samples)
{
    Measured m;
    if (!singleStep(rec, m))
        return m;
    std::vector<std::vector<std::size_t>> orders;
    for (const Stream& s : rec.streams)
        orders.push_back(s.byBegin());
    bool first = true;
    const double ns = medianOfReps(budget_s, [&] {
        ChannelSamples* sink = first ? samples : nullptr;
        first = false;
        double total = 0.0;
        for (std::size_t i = 0; i < rec.streams.size(); ++i) {
            const Stream& s = rec.streams[i];
            sim::EventQueue q;
            std::vector<std::unique_ptr<sim::SharedChannel>> channels;
            for (int d = 0; d < s.topo->numDims(); ++d)
                channels.push_back(std::make_unique<sim::SharedChannel>(
                    q, s.topo->dim(d).bandwidth()));
            std::uint64_t done = 0;
            auto feeder = makeFeeder(
                q, orders[i],
                [&s](std::size_t k) { return beginTime(s.ops[k]); },
                [&](std::size_t k) {
                    const ChunkOp& op = s.ops[k].op;
                    sim::SharedChannel& ch =
                        *channels[static_cast<std::size_t>(op.global_dim)];
                    ch.begin(op.steps[0].bytes, op.flow.weight,
                             [&done] { ++done; },
                             accountingClass(op.flow));
                    if (sink != nullptr) {
                        sink->active.push_back(
                            static_cast<double>(ch.activeCount()));
                        sink->classes.push_back(
                            static_cast<double>(ch.trackedClassCount()));
                    }
                });
            feeder.arm();
            const double t0 = nowNs();
            q.run();
            total += nowNs() - t0;
            Bytes replayed = 0.0, recorded = 0.0, runtime_total = 0.0;
            for (auto& ch : channels) {
                ch->sync();
                replayed += ch->progressedBytes();
            }
            for (const OpRecord& r : s.ops)
                recorded += r.op.steps[0].bytes;
            for (Bytes b : s.dim_bytes)
                runtime_total += b;
            if (done != s.ops.size() || !closeRel(replayed, recorded) ||
                !closeRel(replayed, runtime_total))
                m.fail("channel replay moved " + std::to_string(replayed) +
                       " B of " + std::to_string(runtime_total) +
                       " B recorded");
        }
        return total;
    });
    const std::uint64_t n = rec.ops();
    m.value = n > 0 ? ns / static_cast<double>(n) : 0.0;
    return m;
}

Measured
replayEngines(const Recording& rec, double budget_s)
{
    Measured m;
    std::vector<std::vector<std::size_t>> orders;
    std::vector<StartOrders> recorded;
    for (const Stream& s : rec.streams) {
        orders.push_back(s.byArrival());
        recorded.push_back(startOrders(s.starts));
    }
    bool first = true;
    const double ns = medianOfReps(budget_s, [&] {
        const bool check_order = first;
        first = false;
        double total = 0.0;
        for (std::size_t i = 0; i < rec.streams.size(); ++i) {
            const Stream& s = rec.streams[i];
            const bool enforced = s.config.enforce_consistent_order;
            sim::EventQueue q;
            auto engines = makeEngines(q, s);
            std::vector<std::vector<OpTag>> starts(engines.size());
            if (enforced) {
                for (const auto& [key, order] : recorded[i])
                    engines[static_cast<std::size_t>(key.first)]
                        ->setEnforcedOrder(key.second, order);
                if (check_order)
                    for (std::size_t d = 0; d < engines.size(); ++d)
                        engines[d]->setStartListener(
                            [&starts, d](const OpTag& t) {
                                starts[d].push_back(t);
                            });
            }
            std::uint64_t done = 0;
            const std::function<void(const ChunkOp&)> on_done =
                [&done](const ChunkOp&) { ++done; };
            auto feeder = makeFeeder(
                q, orders[i],
                [&s](std::size_t k) { return s.ops[k].arrival; },
                [&](std::size_t k) {
                    ChunkOp op = s.ops[k].op;
                    op.on_complete = on_done;
                    engines[static_cast<std::size_t>(op.global_dim)]
                        ->enqueue(std::move(op));
                });
            feeder.arm();
            const double t0 = nowNs();
            q.run();
            total += nowNs() - t0;
            if (done != s.ops.size())
                m.fail("engine replay completed " + std::to_string(done) +
                       " of " + std::to_string(s.ops.size()) + " ops");
            if (enforced && check_order &&
                startOrders(starts) != recorded[i])
                m.fail("enforced engines started ops out of the "
                       "recorded order");
        }
        return total;
    });
    const std::uint64_t n = rec.ops();
    m.value = n > 0 ? ns / static_cast<double>(n) : 0.0;
    return m;
}

Measured
replaySessions(const Recording& rec, double budget_s)
{
    Measured m;
    // Plans and models are inputs of the session layer, derived once.
    struct Planned
    {
        const LatencyModel* model = nullptr;
        CollectiveSession::SchedulePtr schedules;
    };
    std::vector<ScopeModels> models(rec.streams.size());
    std::vector<std::vector<Planned>> plans(rec.streams.size());
    std::vector<std::vector<std::size_t>> orders;
    std::vector<StartOrders> recorded;
    for (std::size_t i = 0; i < rec.streams.size(); ++i) {
        const Stream& s = rec.streams[i];
        orders.push_back(s.byIssue());
        recorded.push_back(startOrders(s.starts));
        for (const CollectiveRecord& c : s.collectives) {
            const LatencyModel& model = models[i].get(*s.topo, c.rec.scope);
            auto sched = makeScheduler(s.config.scheduler, model,
                                       s.config.themis);
            plans[i].push_back(Planned{
                &model,
                std::make_shared<const std::vector<ChunkSchedule>>(
                    sched->scheduleCollective(
                        c.rec.type,
                        schedulableSize(c.rec.type, c.rec.size,
                                        model.dimSizes()),
                        c.chunks, c.rec.flow))});
        }
    }
    PlanCache warm;
    auto rep = [&](PlanCache& cache) {
        double total = 0.0;
        for (std::size_t i = 0; i < rec.streams.size(); ++i) {
            const Stream& s = rec.streams[i];
            sim::EventQueue q;
            auto engines = makeEngines(q, s);
            std::vector<std::unique_ptr<CollectiveSession>> sessions(
                s.collectives.size());
            auto feeder = makeFeeder(
                q, orders[i],
                [&s](std::size_t c) {
                    return s.collectives[c].rec.issued;
                },
                [&](std::size_t c) {
                    const CollectiveRecord& cr = s.collectives[c];
                    std::vector<DimensionEngine*> scoped;
                    for (const ScopeDim& sd : cr.rec.scope)
                        scoped.push_back(
                            engines[static_cast<std::size_t>(sd.dim)]
                                .get());
                    if (s.config.enforce_consistent_order)
                        for (const ScopeDim& sd : cr.rec.scope) {
                            const auto it =
                                recorded[i].find({sd.dim, cr.rec.id});
                            if (it != recorded[i].end())
                                engines[static_cast<std::size_t>(sd.dim)]
                                    ->setEnforcedOrder(cr.rec.id,
                                                       it->second);
                        }
                    sessions[c] = std::make_unique<CollectiveSession>(
                        cr.rec.id, cr.rec.type, plans[i][c].schedules,
                        std::move(scoped), *plans[i][c].model, q, nullptr,
                        cr.rec.flow, &cache);
                    sessions[c]->start();
                });
            feeder.arm();
            const double t0 = nowNs();
            q.run();
            total += nowNs() - t0;
            std::uint64_t done = 0;
            for (auto& e : engines)
                done += e->completedCount();
            bool all_done = true;
            for (auto& sess : sessions)
                all_done = all_done && sess != nullptr && sess->done();
            if (!all_done || done != s.ops.size())
                m.fail("session replay completed " + std::to_string(done) +
                       " of " + std::to_string(s.ops.size()) + " ops");
        }
        return total;
    };
    if (rec.warm_cache)
        rep(warm);
    const double ns = medianOfReps(budget_s, [&] {
        if (rec.warm_cache)
            return rep(warm);
        PlanCache fresh;
        return rep(fresh);
    });
    const std::uint64_t n = rec.ops();
    m.value = n > 0 ? ns / static_cast<double>(n) : 0.0;
    return m;
}

Reissue
replayReissue(const Recording& rec, double budget_s)
{
    Reissue out;
    std::vector<std::vector<std::size_t>> orders;
    std::vector<std::vector<CollectiveRequest>> requests;
    for (const Stream& s : rec.streams) {
        orders.push_back(s.byIssue());
        requests.emplace_back();
        for (const CollectiveRecord& c : s.collectives)
            requests.back().push_back(requestOf(c));
    }
    // Epoch recordings re-issue every stream as an iteration epoch of
    // one runtime, kept across repetitions when the cache is warm too;
    // otherwise each stream gets a runtime of its own, as it had.
    std::unique_ptr<PlanCache> cache = std::make_unique<PlanCache>();
    std::unique_ptr<sim::EventQueue> q;
    std::unique_ptr<CommRuntime> comm;
    auto rep = [&](double& issue_ns, double& run_ns) {
        issue_ns = 0.0;
        run_ns = 0.0;
        for (std::size_t i = 0; i < rec.streams.size(); ++i) {
            const Stream& s = rec.streams[i];
            if (!rec.epochs || !comm) {
                comm.reset();
                q = std::make_unique<sim::EventQueue>();
                runtime::RuntimeConfig cfg = s.config;
                cfg.plan_cache = cache.get();
                comm = std::make_unique<CommRuntime>(*q, *s.topo, cfg);
            }
            const std::uint64_t base = completedOps(*comm);
            if (rec.epochs)
                comm->beginIterationEpoch();
            auto feeder = makeFeeder(
                *q, orders[i],
                [&s](std::size_t c) {
                    return s.collectives[c].rec.issued;
                },
                [&](std::size_t c) {
                    const double t0 = nowNs();
                    comm->issue(requests[i][c]);
                    issue_ns += nowNs() - t0;
                });
            feeder.arm();
            const double t0 = nowNs();
            q->run();
            run_ns += nowNs() - t0;
            if (rec.epochs)
                comm->finishIterationEpoch();
            const std::uint64_t done = completedOps(*comm) - base;
            if (done != s.ops.size()) {
                const std::string why =
                    "re-issued stream completed " + std::to_string(done) +
                    " of " + std::to_string(s.ops.size()) + " ops";
                out.issue_ns.fail(why);
                out.drain_ns_per_op.fail(why);
            }
        }
    };
    double issue_ns = 0.0, run_ns = 0.0;
    if (rec.warm_cache)
        rep(issue_ns, run_ns);
    std::vector<double> issue, drain, stream;
    const double start = nowNs();
    do {
        if (!rec.warm_cache) {
            comm.reset();
            cache = std::make_unique<PlanCache>();
        }
        rep(issue_ns, run_ns);
        issue.push_back(issue_ns);
        drain.push_back(run_ns - issue_ns);
        stream.push_back(run_ns);
    } while (issue.size() < 3 || nowNs() - start < budget_s * 1e9);
    const double colls = static_cast<double>(rec.collectives());
    const double ops = static_cast<double>(rec.ops());
    out.issue_ns.value = colls > 0 ? median(issue) / colls : 0.0;
    out.drain_ns_per_op.value = ops > 0 ? median(drain) / ops : 0.0;
    out.stream_ns = rec.streams.empty()
                        ? 0.0
                        : median(stream) /
                              static_cast<double>(rec.streams.size());
    out.cache = std::move(cache);
    return out;
}

Measured
timeRuntimeCtor(const Recording& rec, double budget_s)
{
    Measured m;
    const double ns = medianOfReps(budget_s, [&] {
        double total = 0.0;
        for (const Stream& s : rec.streams) {
            sim::EventQueue q;
            const double t0 = nowNs();
            CommRuntime comm(q, *s.topo, s.config);
            total += nowNs() - t0;
        }
        return total;
    });
    m.value = rec.streams.empty()
                  ? 0.0
                  : ns / static_cast<double>(rec.streams.size()) / 1e3;
    return m;
}

Measured
timeEpoch(const Recording& rec, double budget_s)
{
    Measured m;
    if (rec.streams.empty()) {
        m.fail("no recorded stream");
        return m;
    }
    const Stream& s = rec.streams.front();
    sim::EventQueue q;
    CommRuntime comm(q, *s.topo, s.config);
    constexpr int kEpochs = 1000;
    const double ns = medianOfReps(budget_s, [&] {
        const double t0 = nowNs();
        for (int i = 0; i < kEpochs; ++i) {
            comm.beginIterationEpoch();
            comm.finishIterationEpoch();
        }
        return nowNs() - t0;
    });
    m.value = ns / kEpochs;
    return m;
}

Measured
timeScheduler(const Recording& rec, double budget_s)
{
    Measured m;
    struct Call
    {
        Scheduler* scheduler;
        CollectiveType type;
        Bytes size;
        int chunks;
        FlowClass flow;
    };
    std::vector<ScopeModels> models(rec.streams.size());
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    std::vector<Call> calls;
    for (std::size_t i = 0; i < rec.streams.size(); ++i) {
        const Stream& s = rec.streams[i];
        std::map<std::vector<ScopeDim>, Scheduler*> by_scope;
        for (const CollectiveRecord& c : s.collectives) {
            const LatencyModel& model = models[i].get(*s.topo, c.rec.scope);
            Scheduler*& sched = by_scope[c.rec.scope];
            if (sched == nullptr) {
                schedulers.push_back(makeScheduler(
                    s.config.scheduler, model, s.config.themis));
                sched = schedulers.back().get();
            }
            calls.push_back(Call{sched, c.rec.type,
                                 schedulableSize(c.rec.type, c.rec.size,
                                                 model.dimSizes()),
                                 c.chunks, c.rec.flow});
        }
    }
    std::size_t sink = 0;
    const double ns = medianOfReps(budget_s, [&] {
        const double t0 = nowNs();
        for (const Call& c : calls)
            sink += c.scheduler
                        ->scheduleCollective(c.type, c.size, c.chunks,
                                             c.flow)
                        .size();
        return nowNs() - t0;
    });
    if (sink == 0 && !calls.empty())
        m.fail("scheduler produced no chunk schedules");
    m.value = calls.empty() ? 0.0 : ns / static_cast<double>(calls.size());
    return m;
}

Measured
timeOrderPlanner(const Recording& rec, double budget_s)
{
    Measured m;
    auto cold = [&](bool enforce) {
        double total = 0.0;
        for (const Stream& s : rec.streams) {
            runtime::RuntimeConfig cfg = s.config;
            cfg.enforce_consistent_order = enforce;
            cfg.plan_cache = nullptr;
            for (const CollectiveRecord& c : s.collectives) {
                const CollectiveRequest req = requestOf(c);
                sim::EventQueue q;
                CommRuntime comm(q, *s.topo, cfg);
                const double t0 = nowNs();
                comm.issue(req);
                total += nowNs() - t0;
                q.run();
            }
        }
        return total;
    };
    const double ns = medianOfReps(budget_s,
                                   [&] { return cold(true) - cold(false); });
    const std::uint64_t n = rec.collectives();
    m.value = n > 0 ? ns / static_cast<double>(n) : 0.0;
    return m;
}

Measured
timePlanCacheLookups(const Recording& rec, const PlanCache& warm,
                     double budget_s)
{
    Measured m;
    std::vector<PlanKey> plan_keys;
    std::vector<StepKey> step_keys;
    for (const Stream& s : rec.streams) {
        ScopeModels models;
        for (const CollectiveRecord& c : s.collectives) {
            const LatencyModel& model = models.get(*s.topo, c.rec.scope);
            plan_keys.push_back(PlanKey::make(
                s.config.scheduler, s.config.themis, c.rec.type,
                schedulableSize(c.rec.type, c.rec.size, model.dimSizes()),
                c.chunks, model.fingerprint(), c.rec.flow.tier,
                s.config.priority.fingerprint()));
        }
        for (const OpRecord& r : s.ops) {
            const auto& c = s.collectives[static_cast<std::size_t>(
                r.op.tag.collective_id)];
            const LatencyModel& model = models.get(*s.topo, c.rec.scope);
            step_keys.push_back(StepKey{r.op.phase, r.op.entering,
                                        model.dimFingerprint(
                                            r.op.local_dim)});
        }
    }
    std::size_t hits = 0;
    const double ns = medianOfReps(budget_s, [&] {
        hits = 0;
        StepSummary out;
        const double t0 = nowNs();
        for (const PlanKey& k : plan_keys)
            hits += warm.findPlan(k) != nullptr;
        for (const StepKey& k : step_keys)
            hits += warm.findStep(k, out);
        return nowNs() - t0;
    });
    const std::size_t lookups = plan_keys.size() + step_keys.size();
    if (hits != lookups)
        m.fail(std::to_string(lookups - hits) + " of " +
               std::to_string(lookups) + " recorded keys missed");
    m.value = lookups > 0 ? ns / static_cast<double>(lookups) : 0.0;
    return m;
}

} // namespace perfbench
