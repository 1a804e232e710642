#include "cluster/job_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "sim/sweep_runner.hpp"

namespace themis::cluster {

namespace {

/**
 * std::lcm of two positive cadences, saturating at int64 max instead
 * of overflowing (good enough for diagnostics).
 */
std::int64_t
lcmSaturating(std::int64_t a, std::int64_t b)
{
    constexpr std::int64_t kMax =
        std::numeric_limits<std::int64_t>::max();
    if (a > kMax / (b / std::gcd(a, b)))
        return kMax;
    return std::lcm(a, b);
}

} // namespace

JobScheduler::JobScheduler(std::vector<JobSpec> specs)
    : specs_(std::move(specs))
{
    if (specs_.empty())
        THEMIS_FATAL("cluster job mix is empty");
    if (static_cast<int>(specs_.size()) >
        runtime::kMaxJobsPerRuntime) {
        THEMIS_FATAL("cluster job mix has "
                     << specs_.size() << " jobs; the runtime's per-job "
                     << "accounting supports at most "
                     << runtime::kMaxJobsPerRuntime);
    }
    for (const JobSpec& spec : specs_) {
        spec.validate();
        if (spec.kind == JobKind::Training)
            ++training_jobs_;
    }
    for (const JobSpec& spec : specs_) {
        if (spec.kind == JobKind::PeriodicInference &&
            spec.max_requests == 0 && training_jobs_ == 0) {
            THEMIS_FATAL(
                "periodic job '"
                << spec.label()
                << "' is open-ended (max_requests = 0) but the mix has "
                   "no training job to bound the run; set "
                   "max_requests");
        }
    }
}

int
JobScheduler::effectiveTier(const JobSpec& spec)
{
    if (spec.priority_tier >= 0)
        return spec.priority_tier;
    return spec.kind == JobKind::PeriodicInference
               ? static_cast<int>(PriorityTier::Urgent)
               : -1; // training: per-domain defaults
}

void
JobScheduler::shiftArrivals(const std::vector<TimeNs>& offsets)
{
    THEMIS_ASSERT(offsets.size() == specs_.size(),
                  "offset vector rank " << offsets.size()
                                        << " != job count "
                                        << specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        THEMIS_ASSERT(offsets[i] >= 0.0,
                      "negative arrival offset " << offsets[i]);
        specs_[i].arrival += offsets[i];
    }
}

JobScheduler::LockstepPlan
JobScheduler::lockstepPlan(std::int64_t cycle_limit) const
{
    LockstepPlan out;
    out.cadences.assign(specs_.size(), 1);
    if (cycle_limit < 1) {
        out.reason = "cycle limit " + std::to_string(cycle_limit) +
                     " is not positive; need at least one round "
                     "(convergence replay refused)";
        return out;
    }

    // Lockstep rounds are anchored by training iterations: every
    // round restarts from quiescence, so a pure request stream has
    // nothing to pace it.
    if (training_jobs_ == 0) {
        out.reason =
            "mix has no training job; lockstep rounds are anchored "
            "by training iterations (convergence replay refused)";
        return out;
    }

    // Common start and a common training horizon.
    int iters = -1;
    for (const JobSpec& spec : specs_) {
        if (spec.arrival != 0.0) {
            out.reason =
                "job '" + spec.label() +
                "' arrives at a non-zero offset; lockstep rounds need "
                "a common start (convergence replay refused)";
            return out;
        }
        if (spec.kind != JobKind::Training)
            continue;
        if (iters < 0)
            iters = spec.iterations;
        if (spec.iterations != iters) {
            out.reason =
                "training jobs disagree on iteration counts; lockstep "
                "rounds need a common horizon (convergence replay "
                "refused)";
            return out;
        }
    }

    // Periodic jobs join by reinterpreting their periods as relative
    // round cadences: cadence_i = period_i / gcd(all periods). Only
    // open-ended streams qualify — a bounded stream stops mid-run, so
    // no round pattern of the mix can repeat forever.
    std::vector<std::size_t> periodic_idx;
    std::vector<std::int64_t> periods;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const JobSpec& spec = specs_[i];
        if (spec.kind != JobKind::PeriodicInference)
            continue;
        if (spec.max_requests > 0) {
            out.reason =
                "periodic job '" + spec.label() + "' is bounded (" +
                std::to_string(spec.max_requests) +
                " requests); it would stop mid-run and break the "
                "steady cycle (convergence replay refused)";
            return out;
        }
        const std::int64_t p = std::llround(spec.period);
        if (p <= 0) {
            std::ostringstream oss;
            oss << "periodic job '" << spec.label() << "' has period "
                << spec.period << " ns, which rounds to "
                << p
                << "; cadence derivation needs a positive integer "
                   "period (convergence replay refused)";
            out.reason = oss.str();
            return out;
        }
        periodic_idx.push_back(i);
        periods.push_back(p);
    }

    if (!periods.empty()) {
        std::int64_t g = periods.front();
        for (std::int64_t p : periods)
            g = std::gcd(g, p);
        std::vector<std::int64_t> cadences(periods.size());
        std::int64_t hyper = 1;
        for (std::size_t j = 0; j < periods.size(); ++j) {
            cadences[j] = periods[j] / g;
            hyper = lcmSaturating(hyper, cadences[j]);
        }
        if (hyper > cycle_limit) {
            // Diagnose the dominant contributors: the pair of
            // periodic jobs with the largest pairwise cadence lcm
            // (co-prime periods in the limit).
            std::size_t wa = 0, wb = periods.size() > 1 ? 1 : 0;
            std::int64_t worst = 0;
            for (std::size_t a = 0; a < periods.size(); ++a) {
                for (std::size_t b = a + 1; b < periods.size(); ++b) {
                    const std::int64_t l =
                        lcmSaturating(cadences[a], cadences[b]);
                    if (l > worst) {
                        worst = l;
                        wa = a;
                        wb = b;
                    }
                }
            }
            std::ostringstream oss;
            oss << "stepping hyper-period lcm = " << hyper
                << " rounds exceeds the cycle limit " << cycle_limit;
            if (periods.size() > 1) {
                oss << "; worst pair: '"
                    << specs_[periodic_idx[wa]].label() << "' (period "
                    << periods[wa] << " ns, cadence " << cadences[wa]
                    << ") and '" << specs_[periodic_idx[wb]].label()
                    << "' (period " << periods[wb] << " ns, cadence "
                    << cadences[wb] << "), pairwise lcm " << worst;
            }
            oss << "; co-prime (or nearly co-prime) periods never "
                   "reach a confirmable steady cycle — raise "
                   "--cycle-limit or adjust the periods (convergence "
                   "replay refused)";
            out.reason = oss.str();
            return out;
        }
        for (std::size_t j = 0; j < periods.size(); ++j)
            out.cadences[periodic_idx[j]] =
                static_cast<int>(cadences[j]);
        out.hyper_period = static_cast<int>(hyper);
    }

    out.eligible = true;
    return out;
}

JobScheduler::ReplayEligibility
JobScheduler::replayEligibility() const
{
    const LockstepPlan plan = lockstepPlan();
    ReplayEligibility out;
    out.eligible = plan.eligible;
    out.reason = plan.reason;
    return out;
}

OffsetSearchResult
searchPhaseOffsets(const Topology& topo,
                   const runtime::RuntimeConfig& config,
                   const std::vector<JobSpec>& specs,
                   const OffsetSearchOptions& options)
{
    THEMIS_ASSERT(options.steps >= 1, "need at least one candidate");
    THEMIS_ASSERT(options.iterations >= 1,
                  "need at least one iteration per candidate");
    // Validate the mix up front (and reuse the scheduler's checks).
    JobScheduler base(specs);

    // Reference period: the first training job's solo iteration time.
    std::size_t t0 = specs.size();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].kind == JobKind::Training) {
            t0 = i;
            break;
        }
    }
    if (t0 == specs.size())
        THEMIS_FATAL("phase-offset search needs at least one training "
                     "job (periodic cadences are fixed by spec)");
    TimeNs base_period = 0.0;
    {
        sim::EventQueue queue;
        runtime::CommRuntime comm(queue, topo, config);
        workload::TrainingLoop loop(comm, specs[t0].model,
                                    specs[t0].roofline);
        base_period = loop.runIteration().total;
    }
    THEMIS_ASSERT(base_period > 0.0, "solo iteration took no time");

    // Candidates simulate a short horizon (options.iterations per
    // training job): the searched quantity is the steady interleaving
    // pattern, which shows after a couple of iterations.
    std::vector<JobSpec> eval_specs = specs;
    for (JobSpec& spec : eval_specs)
        if (spec.kind == JobKind::Training)
            spec.iterations = options.iterations;

    const std::size_t n = specs.size();
    std::vector<std::vector<TimeNs>> offset_vectors;
    for (int f = 0; f < options.steps; ++f) {
        std::vector<TimeNs> offsets(n, 0.0);
        const double frac =
            static_cast<double>(f) / options.steps;
        for (std::size_t k = 0; k < n; ++k)
            offsets[k] = static_cast<double>(k) * frac * base_period;
        offset_vectors.push_back(std::move(offsets));
    }

    // Replay-eligible mixes ride the period-k convergence fast path:
    // each candidate becomes a lockstep run whose per-round phase
    // delays encode the offsets (arrival shifts cannot survive rounds
    // that restart from quiescence), steady cycles replay
    // analytically, and the metric is the mean round time — equal to
    // the summed training mean-iteration metric for training-only
    // mixes. Ineligible mixes keep the free-running evaluation.
    const auto plan = base.lockstepPlan();
    const auto metrics =
        plan.eligible
            ? sim::sweepIndexed(
                  offset_vectors.size(),
                  [&](std::size_t i, sim::EventQueue& queue) {
                      Cluster cell(queue, topo, config,
                                   JobScheduler(eval_specs));
                      workload::ConvergenceOptions copts;
                      copts.iterations = options.iterations;
                      const auto rep = cell.runConverged(
                          copts, offset_vectors[i]);
                      return rep.total.total / options.iterations;
                  },
                  sim::SweepOptions{options.threads})
            : sim::sweepIndexed(
                  offset_vectors.size(),
                  [&](std::size_t i, sim::EventQueue& queue) {
                      JobScheduler sched(eval_specs);
                      sched.shiftArrivals(offset_vectors[i]);
                      Cluster cell(queue, topo, config,
                                   std::move(sched));
                      const ClusterReport rep = cell.run();
                      double metric = 0.0;
                      bool any_training = false;
                      for (const JobStats& js : rep.jobs) {
                          if (js.kind != JobKind::Training)
                              continue;
                          any_training = true;
                          metric += js.mean_iteration;
                      }
                      return any_training ? metric : rep.makespan;
                  },
                  sim::SweepOptions{options.threads});

    OffsetSearchResult out;
    out.base_period = base_period;
    out.zero_metric = metrics.front();
    for (std::size_t i = 0; i < offset_vectors.size(); ++i) {
        out.candidates.push_back(
            OffsetCandidate{offset_vectors[i], metrics[i]});
        if (i == 0 || metrics[i] < out.best.metric)
            out.best = out.candidates.back();
    }
    return out;
}

} // namespace themis::cluster
