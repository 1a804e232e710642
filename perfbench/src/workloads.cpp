#include "workloads.hpp"

#include <cmath>
#include <optional>

#include "cluster/cluster.hpp"
#include "models/model_zoo.hpp"
#include "stats/telemetry/run_report.hpp"
#include "stats/telemetry/telemetry.hpp"
#include "topology/presets.hpp"
#include "util.hpp"
#include "workload/convergence.hpp"

namespace perfbench {

using namespace themis;
using runtime::CommRuntime;
using stats::telemetry::Telemetry;

namespace {

PlanCache::Stats&
operator+=(PlanCache::Stats& a, const PlanCache::Stats& b)
{
    a.plan_hits += b.plan_hits;
    a.plan_misses += b.plan_misses;
    a.order_hits += b.order_hits;
    a.order_misses += b.order_misses;
    a.step_hits += b.step_hits;
    a.step_misses += b.step_misses;
    return a;
}

PlanCache::Stats
operator-(PlanCache::Stats a, const PlanCache::Stats& b)
{
    a.plan_hits -= b.plan_hits;
    a.plan_misses -= b.plan_misses;
    a.order_hits -= b.order_hits;
    a.order_misses -= b.order_misses;
    a.step_hits -= b.step_hits;
    a.step_misses -= b.step_misses;
    return a;
}

std::uint64_t
completedOps(CommRuntime& comm)
{
    std::uint64_t n = 0;
    for (int d = 0; d < comm.topology().numDims(); ++d)
        n += comm.engine(d).completedCount();
    return n;
}

std::vector<Bytes>
channelBytes(CommRuntime& comm)
{
    std::vector<Bytes> out;
    for (int d = 0; d < comm.topology().numDims(); ++d) {
        comm.engine(d).channel().sync();
        out.push_back(comm.engine(d).channel().progressedBytes());
    }
    return out;
}

bool
sameBits(const std::vector<Bytes>& a, const std::vector<Bytes>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!bitEquals(a[i], b[i]))
            return false;
    return true;
}

bool
telemetryOn(TelemetryMode mode, bool by_default)
{
    return mode == TelemetryMode::Default ? by_default
                                          : mode == TelemetryMode::On;
}

// ------------------------------------------------------- t1t_fullsim

class T1tFullsim : public Workload
{
  public:
    explicit T1tFullsim(bool telemetry) : telemetry_(telemetry) {}

    void
    setup() override
    {
        cache_ = std::make_unique<PlanCache>();
        cfg_ = runtime::themisScfConfig();
        cfg_.plan_cache = cache_.get();
        if (telemetry_) {
            telem_ = std::make_unique<Telemetry>();
            cfg_.telemetry = telem_.get();
        }
        queue_ = std::make_unique<sim::EventQueue>();
        comm_ = std::make_unique<CommRuntime>(
            *queue_, presets::byName("2D-SW_SW"), cfg_);
        loop_ = std::make_unique<workload::TrainingLoop>(
            *comm_, models::byName("Transformer-1T"));
        iterate(); // fills the plan cache
        base_stats_ = cache_->stats();
    }

    UnitResult
    unit(Recorder* rec) override
    {
        if (rec != nullptr) {
            rec->attach(*comm_);
            rec->beginStream(cfg_);
        }
        const workload::ConvergenceReport r = iterate();
        if (rec != nullptr) {
            rec->endStream(0, r.dim_bytes);
            rec->detach();
        }
        UnitResult out;
        out.ops = r.ops;
        if (!ref_)
            ref_ = r;
        else if (!workload::resultsBitIdentical(r, *ref_))
            out.error = "iteration diverged from the first steady "
                        "iteration";
        return out;
    }

    double
    simTimeMs() const override
    {
        return ref_ ? ref_->total.total / 1e6 : 0.0;
    }

    PlanCache::Stats
    cacheStats() const override
    {
        return cache_->stats() - base_stats_;
    }

    ConvergenceCounts
    convergence() const override
    {
        return ref_ ? ConvergenceCounts{ref_->epochs_simulated,
                                        ref_->epochs_replayed}
                    : ConvergenceCounts{};
    }

    bool hasLoop() const override { return true; }

    Recording
    record() override
    {
        // The same iteration epoch, driven asynchronously so the queue's
        // run() count is observable; a loop drained this way is
        // bit-identical to runIteration().
        Recorder rec;
        rec.attach(*comm_);
        rec.beginStream(cfg_);
        comm_->beginIterationEpoch();
        loop_->beginIterationAsync(nullptr);
        const std::size_t events = queue_->run();
        const CommRuntime::EpochStats s = comm_->finishIterationEpoch();
        rec.endStream(events, s.dim_bytes);
        rec.detach();
        Recording out = std::move(rec.recording());
        out.warm_cache = true;
        out.epochs = true;
        if (ref_ && !workload::bitIdentical(loop_->lastIteration(),
                                            ref_->last))
            out.invalid = "the recorded iteration diverged from the "
                          "untraced one";
        return out;
    }

    double
    loopIterationNs(double budget_s) override
    {
        return medianOfReps(budget_s, [this] {
            const double t0 = nowNs();
            iterate();
            return nowNs() - t0;
        });
    }

    double
    convergenceRunNs(int rounds) override
    {
        workload::ConvergenceOptions opts;
        opts.iterations = rounds;
        opts.replay = true;
        const double t0 = nowNs();
        workload::runConverged(*comm_, *loop_, opts);
        return nowNs() - t0;
    }

    std::string
    seedNote() const override
    {
        return "t1t_fullsim has no free input and ignores --seed";
    }

  private:
    workload::ConvergenceReport
    iterate()
    {
        workload::ConvergenceOptions opts;
        opts.iterations = 1;
        opts.replay = false;
        return workload::runConverged(*comm_, *loop_, opts);
    }

    bool telemetry_;
    std::unique_ptr<PlanCache> cache_;
    std::unique_ptr<Telemetry> telem_;
    runtime::RuntimeConfig cfg_;
    std::unique_ptr<sim::EventQueue> queue_;
    std::unique_ptr<CommRuntime> comm_;
    std::unique_ptr<workload::TrainingLoop> loop_;
    PlanCache::Stats base_stats_;
    std::optional<workload::ConvergenceReport> ref_;
};

// ------------------------------------------------ allreduce_enforced

class AllreduceEnforced : public Workload
{
  public:
    AllreduceEnforced(std::uint64_t seed, bool telemetry)
        : seed_(seed), telemetry_(telemetry)
    {}

    void
    setup() override
    {
        topos_ = presets::nextGenTopologies();
        configs_ = {runtime::baselineConfig(), runtime::themisFifoConfig(),
                    runtime::themisScfConfig()};
        for (auto& cfg : configs_)
            cfg.enforce_consistent_order = true;
        // Seed 0 runs Fig 8's sweep, 100 MB to 1 GB in 10 steps. Any
        // other seed draws the 10 sizes of each (topology, chunk count)
        // uniformly from 100 MB to 1 GB, one from each tenth of the
        // range so a pass still sweeps it; the three schedulers of a
        // topology share the sizes, as in Fig 8.
        constexpr int kSizes = 10;
        constexpr Bytes kMin = 100.0e6, kMax = 1.0e9;
        constexpr Bytes kStep = (kMax - kMin) / (kSizes - 1);
        constexpr Bytes kBand = (kMax - kMin) / kSizes;
        const std::vector<int> chunk_counts = {16, 64, 256};
        Rng rng(seed_);
        std::vector<Bytes> sizes;
        for (std::size_t k = 0; k < topos_.size() * chunk_counts.size();
             ++k)
            for (int i = 0; i < kSizes; ++i)
                sizes.push_back(seed_ == 0
                                    ? kMin + i * kStep
                                    : rng.uniform(kMin + i * kBand,
                                                  kMin + (i + 1) * kBand));
        cells_.clear();
        for (std::size_t t = 0; t < topos_.size(); ++t)
            for (std::size_t s = 0; s < configs_.size(); ++s)
                for (std::size_t c = 0; c < chunk_counts.size(); ++c)
                    for (int i = 0; i < kSizes; ++i)
                        cells_.push_back(Cell{
                            t, s,
                            sizes[(t * chunk_counts.size() + c) * kSizes +
                                  static_cast<std::size_t>(i)],
                            chunk_counts[c]});
        results_.assign(cells_.size(), CellResult{});
        next_ = 0;
    }

    UnitResult
    unit(Recorder* rec) override
    {
        const std::size_t i = next_ % cells_.size();
        if (i == 0) {
            // Each pass shares one fresh plan cache across its cells.
            if (pass_cache_)
                done_stats_ += pass_cache_->stats();
            pass_cache_ = std::make_unique<PlanCache>();
        }
        const Cell& cell = cells_[i];
        runtime::RuntimeConfig cfg = configs_[cell.sched];
        cfg.plan_cache = pass_cache_.get();
        std::optional<Telemetry> telem;
        if (telemetry_)
            cfg.telemetry = &telem.emplace();
        sim::EventQueue q;
        CommRuntime comm(q, topos_[cell.topo], cfg);
        if (rec != nullptr) {
            rec->attach(comm);
            rec->beginStream(cfg);
        }
        CollectiveRequest req;
        req.type = CollectiveType::AllReduce;
        req.size = cell.size;
        req.chunks = cell.chunks;
        const int id = comm.issue(req);
        const std::size_t events = q.run();
        CellResult res;
        res.duration = comm.record(id).duration();
        res.ops = completedOps(comm);
        res.dim_bytes = channelBytes(comm);
        if (rec != nullptr) {
            rec->endStream(events, res.dim_bytes);
            rec->detach();
        }
        UnitResult out;
        out.ops = res.ops;
        if (next_ < cells_.size()) {
            results_[i] = res;
        } else {
            const CellResult& ref = results_[i];
            if (!bitEquals(res.duration, ref.duration) ||
                res.ops != ref.ops || !sameBits(res.dim_bytes, ref.dim_bytes))
                out.error = "cell " + std::to_string(i) +
                            " diverged from its first pass";
        }
        if (!comm.record(id).done())
            out.error = "cell " + std::to_string(i) + " did not complete";
        ++next_;
        return out;
    }

    std::size_t unitsPerRound() const override { return cells_.size(); }

    double
    simTimeMs() const override
    {
        double ns = 0.0;
        for (const CellResult& r : results_)
            ns += r.duration;
        return ns / 1e6;
    }

    PlanCache::Stats
    cacheStats() const override
    {
        PlanCache::Stats s = done_stats_;
        if (pass_cache_)
            s += pass_cache_->stats();
        return s;
    }

    Recording
    record() override
    {
        Recorder rec;
        for (std::size_t k = 0; k < cells_.size(); ++k) {
            const UnitResult r = unit(&rec);
            if (!r.error.empty())
                rec.recording().invalid = r.error;
        }
        return std::move(rec.recording());
    }

    std::string
    seedNote() const override
    {
        return seed_ == 0 ? "seed 0: Fig 8 sizes 100 MB .. 1 GB"
                          : "sizes drawn uniformly from 100 MB .. 1 GB, "
                            "one per tenth of the range";
    }

  private:
    struct Cell
    {
        std::size_t topo;
        std::size_t sched;
        Bytes size;
        int chunks;
    };

    struct CellResult
    {
        TimeNs duration = 0.0;
        std::uint64_t ops = 0;
        std::vector<Bytes> dim_bytes;
    };

    std::uint64_t seed_;
    bool telemetry_;
    std::vector<Topology> topos_;
    std::vector<runtime::RuntimeConfig> configs_;
    std::vector<Cell> cells_;
    std::vector<CellResult> results_;
    std::size_t next_ = 0;
    std::unique_ptr<PlanCache> pass_cache_;
    PlanCache::Stats done_stats_;
};

// ------------------------------------------------------ cluster_2to3

class Cluster2to3 : public Workload
{
  public:
    static constexpr int kRounds = 120;

    Cluster2to3(std::uint64_t seed, bool telemetry)
        : seed_(seed), telemetry_(telemetry)
    {}

    void
    setup() override
    {
        topo_.emplace(presets::byName("2D-SW_SW"));
        cfg_ = runtime::themisScfConfig();
        cfg_.scheduler = SchedulerKind::ThemisPriority;
        cfg_.priority = PriorityPolicy::tiered(4.0);
        const workload::ModelGraph dlrm = models::byName("DLRM");
        // Seed 0 is the canonical 16 MB / 32 MB mix; any other seed
        // cycles through 16 mixes whose request sizes are scaled by a
        // factor drawn from 0.5 .. 1.5, one from each sixteenth of the
        // range, keeping the 200/300 us periods (the 2:3 cadence).
        Rng rng(seed_);
        const int mixes = seed_ == 0 ? 1 : 16;
        mixes_.clear();
        for (int k = 0; k < mixes; ++k) {
            const double f =
                seed_ == 0 ? 1.0
                           : rng.uniform(0.5 + static_cast<double>(k) / mixes,
                                         0.5 + (k + 1.0) / mixes);
            std::vector<cluster::JobSpec> specs;
            specs.push_back(cluster::JobSpec::training(
                dlrm, kRounds, 0.0, static_cast<int>(PriorityTier::Bulk)));
            specs.push_back(cluster::JobSpec::periodicInference(
                1.6e7 * f, 2.0e5, 0.0, 0.0,
                static_cast<int>(PriorityTier::Urgent)));
            specs.push_back(cluster::JobSpec::periodicInference(
                3.2e7 * f, 3.0e5, 0.0, 0.0,
                static_cast<int>(PriorityTier::Urgent)));
            mixes_.push_back(std::move(specs));
        }
        refs_.assign(mixes_.size(), std::nullopt);
        next_ = 0;
    }

    UnitResult
    unit(Recorder* rec) override
    {
        const std::size_t k = next_++ % mixes_.size();
        UnitResult out;
        const workload::ConvergenceReport r = runMix(k, kRounds, rec);
        out.ops = r.ops;
        if (!refs_[k])
            refs_[k] = r;
        else if (!workload::resultsBitIdentical(r, *refs_[k]))
            out.error = "mix " + std::to_string(k) +
                        " diverged from its first run";
        // Per-job conservation: the jobs' progressed bytes (channel
        // classes grouped by job) sum to the fabric total.
        std::vector<Bytes> per_job(mixes_[k].size(), 0.0);
        for (std::size_t c = 0; c < r.class_bytes.size(); ++c) {
            const auto j = static_cast<std::size_t>(
                accountingJob(static_cast<int>(c)));
            if (j < per_job.size())
                per_job[j] += r.class_bytes[c];
            else if (r.class_bytes[c] != 0.0)
                out.error = "bytes accounted to an unknown job";
        }
        Bytes jobs = 0.0, fabric = 0.0;
        for (Bytes b : per_job) {
            if (!(b > 0.0))
                out.error = "a job progressed no bytes";
            jobs += b;
        }
        for (Bytes b : r.dim_bytes)
            fabric += b;
        if (std::abs(jobs - fabric) > 1e-9 * fabric)
            out.error = "per-job bytes do not sum to the fabric total";
        last_ = ConvergenceCounts{r.epochs_simulated, r.epochs_replayed};
        return out;
    }

    double
    simTimeMs() const override
    {
        double sum = 0.0;
        int n = 0;
        for (const auto& r : refs_)
            if (r) {
                sum += r->total.total;
                ++n;
            }
        return n > 0 ? sum / n / 1e6 : 0.0;
    }

    std::size_t unitsPerRound() const override { return mixes_.size(); }

    /** The recording is the first mix's simulated rounds. */
    std::size_t recordedUnits() const override { return 1; }

    PlanCache::Stats cacheStats() const override { return stats_; }

    ConvergenceCounts convergence() const override { return last_; }

    bool hasLoop() const override { return true; }

    Recording
    record() override
    {
        Recorder rec;
        Mirror m(*this, 0);
        rec.attach(m.comm);
        std::string invalid;
        for (int round = 0; round < simulatedRounds(); ++round) {
            rec.beginStream(m.cfg);
            std::size_t events = 0;
            const auto [b, s] = m.round(round, &events);
            rec.endStream(events, s.dim_bytes);
            if (!refs_[0] ||
                !workload::bitIdentical(
                    b, refs_[0]->per_iteration[static_cast<std::size_t>(
                           round)]))
                invalid = "lockstep round " + std::to_string(round) +
                          " diverged from the cluster's own run";
        }
        rec.detach();
        Recording out = std::move(rec.recording());
        out.epochs = true;
        out.invalid = invalid;
        return out;
    }

    double
    loopIterationNs(double budget_s) override
    {
        const int rounds = simulatedRounds();
        return medianOfReps(budget_s, [&] {
            Mirror m(*this, 0);
            const double t0 = nowNs();
            for (int round = 0; round < rounds; ++round)
                m.round(round, nullptr);
            return (nowNs() - t0) / rounds;
        });
    }

    double
    convergenceRunNs(int rounds) override
    {
        const double t0 = nowNs();
        runMix(0, rounds, nullptr);
        return nowNs() - t0;
    }

    std::string
    seedNote() const override
    {
        return seed_ == 0 ? "seed 0: 16 MB / 32 MB requests"
                          : "16 mixes, request sizes scaled by factors "
                            "drawn from 0.5 .. 1.5, one per sixteenth";
    }

  private:
    /**
     * The cluster's lockstep round protocol driven directly on a
     * CommRuntime (what Cluster::runConverged does per simulated
     * round), so the recorder sees each round as its own stream and
     * the queue's run() count. record() checks every round against
     * the cluster's own per-round results bit for bit.
     */
    struct Mirror
    {
        PlanCache cache;
        runtime::RuntimeConfig cfg;
        sim::EventQueue queue;
        CommRuntime comm;
        const std::vector<cluster::JobSpec>& specs;
        std::vector<int> cadences;
        workload::TrainingLoop loop;

        Mirror(const Cluster2to3& w, std::size_t k)
            : cfg(withCache(w.cfg_, &cache)), comm(queue, *w.topo_, cfg),
              specs(w.mixes_[k]),
              cadences(cluster::JobScheduler(specs).lockstepPlan().cadences),
              loop(comm, specs[0].model, specs[0].roofline)
        {
            loop.setJob(0);
            loop.setTierOverride(specs[0].priority_tier);
        }

        std::pair<workload::IterationBreakdown, CommRuntime::EpochStats>
        round(int r, std::size_t* events)
        {
            comm.beginIterationEpoch();
            loop.beginIterationAsync(nullptr);
            std::vector<workload::IterationBreakdown> requests(specs.size());
            for (std::size_t j = 1; j < specs.size(); ++j) {
                if (r % cadences[j] != 0)
                    continue;
                CollectiveRequest req;
                req.type = specs[j].request_type;
                req.size = specs[j].request_size;
                req.chunks = 0;
                req.priority_tier =
                    cluster::JobScheduler::effectiveTier(specs[j]);
                req.job = static_cast<int>(j);
                const TimeNs issued = queue.now();
                comm.issue(req, [this, &requests, j, issued] {
                    requests[j].exposed_mp = queue.now() - issued;
                    requests[j].total = queue.now() - issued;
                });
            }
            const std::size_t ran = queue.run();
            if (events != nullptr)
                *events = ran;
            workload::IterationBreakdown b;
            b += loop.lastIteration();
            for (std::size_t j = 1; j < specs.size(); ++j)
                if (r % cadences[j] == 0)
                    b += requests[j];
            return {b, comm.finishIterationEpoch()};
        }

        static runtime::RuntimeConfig
        withCache(runtime::RuntimeConfig cfg, PlanCache* cache)
        {
            cfg.plan_cache = cache;
            cfg.telemetry = nullptr;
            return cfg;
        }
    };

    int
    simulatedRounds() const
    {
        return refs_[0] ? refs_[0]->epochs_simulated : 0;
    }

    workload::ConvergenceReport
    runMix(std::size_t k, int rounds, Recorder* rec)
    {
        PlanCache cache;
        std::optional<Telemetry> telem;
        runtime::RuntimeConfig cfg = cfg_;
        cfg.plan_cache = &cache;
        if (telemetry_)
            cfg.telemetry = &telem.emplace();
        sim::EventQueue q;
        cluster::Cluster cl(q, *topo_, cfg, mixes_[k]);
        if (rec != nullptr) {
            rec->attach(cl.runtime());
            rec->beginStream(cfg);
        }
        workload::ConvergenceOptions opts;
        opts.iterations = rounds;
        opts.replay = true;
        const workload::ConvergenceReport r = cl.runConverged(opts);
        if (rec != nullptr) {
            rec->endStream(0, r.dim_bytes);
            rec->detach();
        }
        // The run report, as --report builds it.
        const auto jobs = cl.lockstepJobStats(r.iterations);
        cl.runtime().publishTelemetry();
        stats::telemetry::RunReport report("jobs");
        report.setInfo("topology", topo_->name());
        report.setInfo("scheduler", schedulerKindName(cfg.scheduler));
        report.setInfo("policy", cfg.priority.describe());
        report.setNumber("rounds", r.iterations);
        report.setNumber("simulated_rounds", r.simulated_iterations);
        report.setNumber("replayed_rounds", r.replayed_iterations);
        report.setNumber("cycle_length", r.cycle_length);
        report.setNumber("total_ns", r.total.total);
        report.setNumber("utilization", r.utilization);
        for (const auto& js : jobs) {
            const std::string p = "job." + std::to_string(js.job) + ".";
            report.setNumber(p + "mean_iteration_ns", js.mean_iteration);
            report.setNumber(p + "mean_latency_ns", js.mean_latency);
        }
        if (telem) {
            report.attachMetrics(&telem->metrics);
            report.attachRecorder(&telem->recorder);
        }
        report_bytes_ += report.toJson().size();
        stats_ += cache.stats();
        return r;
    }

    std::uint64_t seed_;
    bool telemetry_;
    std::optional<Topology> topo_;
    runtime::RuntimeConfig cfg_;
    std::vector<std::vector<cluster::JobSpec>> mixes_;
    std::vector<std::optional<workload::ConvergenceReport>> refs_;
    std::size_t next_ = 0;
    PlanCache::Stats stats_;
    ConvergenceCounts last_;
    /** Serialized report sizes, summed so the report is not elided. */
    std::size_t report_bytes_ = 0;
};

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "t1t_fullsim", "allreduce_enforced", "cluster_2to3"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed,
             TelemetryMode telemetry)
{
    if (name == "t1t_fullsim")
        return std::make_unique<T1tFullsim>(telemetryOn(telemetry, false));
    if (name == "allreduce_enforced")
        return std::make_unique<AllreduceEnforced>(
            seed, telemetryOn(telemetry, false));
    if (name == "cluster_2to3")
        return std::make_unique<Cluster2to3>(seed,
                                             telemetryOn(telemetry, true));
    return nullptr;
}

} // namespace perfbench
