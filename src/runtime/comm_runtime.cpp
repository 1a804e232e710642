#include "runtime/comm_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/string_util.hpp"

namespace themis::runtime {

namespace {

/**
 * Count every record that @p row_of maps to a row of @p rows (its
 * index, or -1 for none) into that row: issued and completed
 * collectives, and the mean duration of the completed ones. The
 * rows' counts start at zero.
 */
template <typename Row, typename RowOf>
void
tallyRecords(const std::vector<CommRuntime::Record>& records,
             std::vector<Row>& rows, RowOf row_of)
{
    for (const auto& rec : records) {
        const int i = row_of(rec);
        if (i < 0)
            continue;
        Row& r = rows[static_cast<std::size_t>(i)];
        ++r.issued;
        if (rec.done()) {
            ++r.completed;
            r.mean_duration += rec.duration();
        }
    }
    for (Row& r : rows)
        if (r.completed > 0)
            r.mean_duration /= r.completed;
}

} // namespace

RuntimeConfig
baselineConfig()
{
    RuntimeConfig cfg;
    cfg.scheduler = SchedulerKind::Baseline;
    cfg.intra_policy = IntraDimPolicy::Fifo;
    return cfg;
}

RuntimeConfig
themisFifoConfig()
{
    RuntimeConfig cfg;
    cfg.scheduler = SchedulerKind::Themis;
    cfg.intra_policy = IntraDimPolicy::Fifo;
    return cfg;
}

RuntimeConfig
themisScfConfig()
{
    RuntimeConfig cfg;
    cfg.scheduler = SchedulerKind::Themis;
    cfg.intra_policy = IntraDimPolicy::Scf;
    return cfg;
}

CommRuntime::CommRuntime(sim::EventQueue& queue, Topology topo,
                         RuntimeConfig config)
    : queue_ref_(queue), topo_(std::move(topo)), config_(config),
      activity_(topo_.numDims())
{
    telem_ = config_.telemetry;
    if (telem_ != nullptr) {
        // Resolve the hot-path instruments once; registry references
        // are stable, so per-event publishing is pointer-deref cheap.
        auto& m = telem_->metrics;
        m_issued_ = &m.counter("runtime.collectives.issued");
        m_completed_ = &m.counter("runtime.collectives.completed");
        m_collective_ns_ = &m.histogram("runtime.collective_ns");
        m_epochs_ = &m.counter("runtime.epochs");
        m_epoch_ns_ = &m.histogram("runtime.epoch_ns");
        m_chunk_ops_ = &m.counter("runtime.chunk_ops");
        m_replans_ = &m.counter("adapt.replans");
        m_retries_ = &m.counter("fault.retries");
        m_backoff_ns_ = &m.histogram("fault.retry_backoff_ns");
        m_lost_bytes_ = &m.histogram("fault.retry_lost_bytes");
        m_fatal_ = &m.counter("fault.fatal_retries");
        m_replayed_ = &m.counter("replay.epochs_replayed");
    }
    std::vector<sim::SharedChannel*> channels;
    std::vector<Bandwidth> bws;
    for (int d = 0; d < topo_.numDims(); ++d) {
        engines_.push_back(std::make_unique<DimensionEngine>(
            queue_ref_, topo_.dim(d), d, config_.intra_policy,
            AdmissionConfig{}));
        engines_.back()->setPresenceListener(
            [this](int dim, bool present, TimeNs when) {
                activity_.onPresence(dim, present, when);
            });
        channels.push_back(&engines_.back()->channel());
        bws.push_back(topo_.dim(d).bandwidth());
    }
    utilization_ = std::make_unique<stats::UtilizationTracker>(
        std::move(channels), std::move(bws));
    if (config_.faults != nullptr) {
        config_.faults->validateForDims(topo_.numDims());
        std::vector<DimensionEngine*> raw;
        raw.reserve(engines_.size());
        for (auto& engine : engines_) {
            engine->armFaults(config_.retry);
            engine->setRetryListener(
                [this](int dim, Bytes lost, TimeNs backoff) {
                    utilization_->recordRetry(
                        static_cast<std::size_t>(dim), lost, backoff);
                    if (telem_ != nullptr) {
                        m_retries_->add();
                        m_backoff_ns_->record(backoff);
                        m_lost_bytes_->record(lost);
                        telem_->recorder.record(
                            stats::telemetry::FlightEvent{
                                telem_->absolute(queue_ref_.now()),
                                stats::telemetry::FlightKind::Retry,
                                dim, -1, lost});
                    }
                });
            engine->setFatalRetryListener(
                [this](const FatalRetryReport& report) {
                    if (!has_fatal_retry_) {
                        fatal_retry_ = report;
                        has_fatal_retry_ = true;
                    }
                    utilization_->recordFatalRetry(
                        static_cast<std::size_t>(report.dim));
                    if (telem_ != nullptr) {
                        m_fatal_->add();
                        telem_->recorder.record(
                            stats::telemetry::FlightEvent{
                                telem_->absolute(queue_ref_.now()),
                                stats::telemetry::FlightKind::
                                    FatalRetry,
                                report.dim, report.attempts,
                                report.lost_bytes});
                        if (telem_->trace != nullptr) {
                            char label[64];
                            std::snprintf(
                                label, sizeof(label),
                                "retry exhausted dim%d (attempt %d)",
                                report.dim + 1, report.attempts);
                            telem_->trace->instant(
                                stats::TraceWriter::kRunPid,
                                stats::TraceWriter::kFaultTid, label,
                                queue_ref_.now());
                        }
                    }
                });
            raw.push_back(engine.get());
        }
        fault_driver_ = std::make_unique<FaultDriver>(
            queue_ref_, *config_.faults, std::move(raw),
            utilization_.get());
        if (config_.adaptation.enabled) {
            if (!(config_.adaptation.replan_threshold >= 0.0))
                THEMIS_FATAL("adaptation replan_threshold must be "
                             ">= 0, got "
                             << config_.adaptation.replan_threshold);
            planned_factors_.assign(
                static_cast<std::size_t>(topo_.numDims()), 1.0);
            fault_driver_->setCapacityListener(
                [this](int dim) { onCapacityChange(dim); });
        }
    }
    if (telem_ != nullptr) {
        if (fault_driver_)
            fault_driver_->setTelemetry(telem_);
        if (telem_->trace != nullptr)
            attachTrace(*telem_->trace);
    }
}

void
CommRuntime::onCapacityChange(int dim)
{
    const double now =
        fault_driver_->planningFactor(dim);
    const double planned =
        planned_factors_[static_cast<std::size_t>(dim)];
    if (std::abs(now - planned) <=
        config_.adaptation.replan_threshold * planned)
        return;
    replan();
}

void
CommRuntime::replan()
{
    Fnv1a h;
    h.mix(std::uint64_t{0x4341}); // "CA" — capacity epoch domain
    bool clean = true;
    for (std::size_t d = 0; d < planned_factors_.size(); ++d) {
        planned_factors_[d] =
            fault_driver_->planningFactor(static_cast<int>(d));
        if (!bitEquals(planned_factors_[d], 1.0))
            clean = false;
        h.mix(planned_factors_[d]);
    }
    // A fully recovered fabric plans under fingerprint 0 again, so
    // post-fault plans come from the same cache entries (and are
    // bit-identical to) the pre-fault ones.
    capacity_fingerprint_ = clean ? 0 : h.value();
    // Retire every scope: schedulers hold references to their scope's
    // model, and in-flight sessions hold pointers into it too, so
    // states move to the graveyard until the fabric is quiescent. The
    // next issue() rebuilds against the new factors.
    for (auto& [scope, state] : scopes_)
        retired_scopes_.push_back(std::move(state));
    scopes_.clear();
    ++replan_count_;
    logDebug("adaptation t=", queue_ref_.now(), " re-plan #",
             replan_count_, " capacity epoch ", capacity_fingerprint_);
    if (telem_ != nullptr) {
        m_replans_->add();
        telem_->recorder.record(stats::telemetry::FlightEvent{
            telem_->absolute(queue_ref_.now()),
            stats::telemetry::FlightKind::Replan, -1,
            static_cast<int>(replan_count_),
            static_cast<double>(capacity_fingerprint_ != 0)});
        if (telem_->trace != nullptr) {
            char label[48];
            std::snprintf(label, sizeof(label), "re-plan #%llu",
                          static_cast<unsigned long long>(
                              replan_count_));
            telem_->trace->instant(stats::TraceWriter::kRunPid,
                                   stats::TraceWriter::kAdaptTid,
                                   label, queue_ref_.now());
        }
    }
}

std::vector<ScopeDim>
CommRuntime::normalizeScope(const std::vector<ScopeDim>& scope) const
{
    std::vector<ScopeDim> out;
    if (scope.empty()) {
        for (int d = 0; d < topo_.numDims(); ++d)
            out.push_back(ScopeDim{d, topo_.dim(d).size});
        return out;
    }
    for (std::size_t i = 0; i < scope.size(); ++i) {
        const int d = scope[i].dim;
        if (d < 0 || d >= topo_.numDims())
            THEMIS_FATAL("collective scope references dimension "
                         << d << " outside the " << topo_.numDims()
                         << "D topology");
        if (i > 0 && d <= scope[i - 1].dim)
            THEMIS_FATAL("collective scope must list dimensions in "
                         "strictly increasing order");
        const int full = topo_.dim(d).size;
        int participants =
            scope[i].participants > 0 ? scope[i].participants : full;
        if (participants < 2 || participants > full)
            THEMIS_FATAL("scope participants " << participants
                                               << " invalid for dim of "
                                               << full << " NPUs");
        out.push_back(ScopeDim{d, participants});
    }
    return out;
}

CommRuntime::ScopeState&
CommRuntime::scopeState(const std::vector<ScopeDim>& scope)
{
    auto it = scopes_.find(scope);
    if (it != scopes_.end())
        return it->second;
    ScopeState state;
    state.model = std::make_unique<LatencyModel>(
        LatencyModel::fromScope(topo_, scope));
    if (capacity_fingerprint_ != 0) {
        // Degraded capacity epoch: plan against the fabric as it is.
        // The clean path (fingerprint 0) never reaches here, so
        // fault-free runs build bit-identical models.
        std::vector<double> factors;
        factors.reserve(scope.size());
        for (const auto& s : scope)
            factors.push_back(
                planned_factors_[static_cast<std::size_t>(s.dim)]);
        state.model = std::make_unique<LatencyModel>(
            state.model->scaledBy(factors));
    }
    state.scheduler =
        makeScheduler(config_.scheduler, *state.model);
    return scopes_.emplace(scope, std::move(state)).first->second;
}

const LatencyModel&
CommRuntime::modelForScope(const std::vector<ScopeDim>& scope)
{
    return *scopeState(normalizeScope(scope)).model;
}

CollectiveSession::SchedulePtr
CommRuntime::planFor(ScopeState& state, const PlanKey& key,
                     CollectiveType type, Bytes size, int chunks,
                     const FlowClass& flow)
{
    PlanCache* cache = config_.plan_cache;
    if (cache == nullptr) {
        return std::make_shared<const std::vector<ChunkSchedule>>(
            state.scheduler->scheduleCollective(type, size, chunks,
                                                flow));
    }
    if (auto plan = cache->findPlan(key))
        return plan;
    return cache->storePlan(
        key, state.scheduler->scheduleCollective(type, size, chunks,
                                                 flow));
}

PlanCache::OrderPtr
CommRuntime::keepOrders(const OrderKey& key,
                        std::vector<std::vector<OpKey>> orders)
{
    if (config_.plan_cache != nullptr)
        return config_.plan_cache->storeOrders(key, std::move(orders));
    return std::make_shared<const std::vector<std::vector<OpKey>>>(
        std::move(orders));
}

bool
CommRuntime::pristine(const std::vector<DimensionEngine*>& engines) const
{
    // Not now() > 0: the same float offsets from another origin can
    // split ties differently from the shadow's t = 0 run.
    if (fault_driver_ || outstanding_ != 0 || queue_ref_.now() != 0.0)
        return false;
    for (const DimensionEngine* e : engines)
        if (e->queuedCount() != 0 || e->activeCount() != 0 ||
            e->bypassStreak() != 0 || !e->channel().atVirtualOrigin() ||
            e->channel().capacity() != e->config().bandwidth())
            return false;
    return true;
}

void
CommRuntime::enforceOrders(int id, const PlanKey& key,
                           const CollectiveSession::SchedulePtr& schedules,
                           const LatencyModel& model,
                           const std::vector<ScopeDim>& scope,
                           const FlowClass& flow,
                           const std::vector<DimensionEngine*>& engines)
{
    OrderKey order_key;
    order_key.plan = key;
    order_key.intra_policy = config_.intra_policy;
    PlanCache::OrderPtr orders;
    if (config_.plan_cache != nullptr)
        orders = config_.plan_cache->findOrders(order_key);
    if (orders == nullptr && pristine(engines)) {
        // The real run is the shadow simulation: let the engines
        // record its start orders as it goes.
        observed_ = Observation{id, order_key, schedules, &model};
        for (DimensionEngine* engine : engines)
            engine->observeOrder(id);
        return;
    }
    if (orders == nullptr)
        orders = keepOrders(
            order_key,
            loneRunStartOrders(key.type, *schedules, plannedDims(scope),
                               model, config_.intra_policy, flow,
                               config_.plan_cache));
    THEMIS_ASSERT(orders->size() == scope.size(),
                  "order plan rank mismatch");
    for (std::size_t local = 0; local < scope.size(); ++local)
        engines[local]->setEnforcedOrder(id, (*orders)[local]);
}

void
CommRuntime::materializeObserved()
{
    const Record& rec = records_[static_cast<std::size_t>(observed_.id)];
    const PlanCache::OrderPtr orders = keepOrders(
        observed_.key,
        loneRunStartOrders(rec.type, *observed_.schedules,
                           plannedDims(rec.scope), *observed_.model,
                           config_.intra_policy, rec.flow,
                           config_.plan_cache));
    for (std::size_t local = 0; local < rec.scope.size(); ++local)
        engines_[static_cast<std::size_t>(rec.scope[local].dim)]
            ->setEnforcedOrder(rec.id, (*orders)[local]);
    observed_ = Observation{};
}

int
CommRuntime::issue(const CollectiveRequest& request, Callback on_done)
{
    const std::vector<ScopeDim> scope = normalizeScope(request.scope);
    THEMIS_ASSERT(request.job >= 0 && request.job < kMaxJobsPerRuntime,
                  "job index " << request.job << " outside [0, "
                               << kMaxJobsPerRuntime << ")");
    if (outstanding_ == 0) {
        // Fault events that came due while the fabric idled apply
        // now, before planning and the window snapshot: the reopening
        // collective must plan under (and the window must open under)
        // the capacities the timeline prescribes for this instant.
        // (Request validation runs above so a rejected issue leaves
        // no window open.)
        if (fault_driver_)
            fault_driver_->onWindowStart(queue_ref_.now());
        utilization_->windowStart(queue_ref_.now());
    }
    ScopeState& state = scopeState(scope);

    const int chunks =
        request.chunks > 0 ? request.chunks : config_.default_chunks;
    const Bytes size = schedulableSize(request.type, request.size,
                                       state.model->dimSizes());
    FlowClass flow = config_.priority.flowFor(request.priority_tier);
    flow.job = request.job;
    if (request.job > max_job_seen_)
        max_job_seen_ = request.job;
    live_jobs_.insert(request.job);
    const PlanKey key =
        PlanKey::make(config_.scheduler, ThemisConfig{}, request.type,
                      size, chunks, state.model->fingerprint(),
                      flow.tier, config_.priority.fingerprint(),
                      capacity_fingerprint_);
    CollectiveSession::SchedulePtr schedules =
        planFor(state, key, request.type, size, chunks, flow);

    const int id = static_cast<int>(records_.size());
    Record rec;
    rec.id = id;
    rec.type = request.type;
    rec.size = request.size;
    rec.scope = scope;
    rec.issued = queue_ref_.now();
    rec.priority_tier = request.priority_tier;
    rec.flow = flow;
    rec.job = request.job;
    records_.push_back(rec);
    if (on_done)
        callbacks_[id] = std::move(on_done);

    if (telem_ != nullptr) {
        m_issued_->add();
        telem_->recorder.record(stats::telemetry::FlightEvent{
            telem_->absolute(rec.issued),
            stats::telemetry::FlightKind::CollectiveIssued, id,
            rec.job, size});
    }

    if (epoch_active_) {
        // Plan-level fingerprint component: what was issued, when,
        // and under which (fully plan-determining) cache key.
        epoch_hash_.mix(std::uint64_t{0x4953}); // "IS"
        epoch_hash_.mix(static_cast<std::uint64_t>(id));
        epoch_hash_.mix(planKeyHash(key));
        epoch_hash_.mix(static_cast<std::uint64_t>(flow.tier));
        epoch_hash_.mix(flow.weight);
        // Job identity is part of the trace: a multi-job epoch whose
        // issue interleaving shifts between jobs must not fingerprint
        // equal to one that merely issued the same shapes.
        epoch_hash_.mix(static_cast<std::uint64_t>(flow.job));
        epoch_hash_.mix(rec.issued);
    }

    std::vector<DimensionEngine*>& engines = engine_scratch_;
    engines.clear();
    engines.reserve(scope.size());
    for (const auto& s : scope)
        engines.push_back(engines_[static_cast<std::size_t>(s.dim)].get());

    if (config_.enforce_consistent_order) {
        // This issue is the only thing that can perturb an observed
        // collective, so its orders are fixed before anything starts.
        if (observed_.id >= 0)
            materializeObserved();
        enforceOrders(id, key, schedules, *state.model, scope, flow,
                      engines);
    }

    ++outstanding_;

    auto on_session_done = [this](CollectiveSession& s) {
        onCollectiveDone(s.id());
    };
    CollectiveSession* session;
    if (sessions_live_ < sessions_.size()) {
        // Epoch session pool: recycle the slot in place.
        session = sessions_[sessions_live_].get();
        session->reset(id, request.type, std::move(schedules), engines,
                       *state.model, on_session_done, flow,
                       config_.plan_cache);
    } else {
        sessions_.push_back(std::make_unique<CollectiveSession>(
            id, request.type, std::move(schedules), engines,
            *state.model, queue_ref_, on_session_done, flow,
            config_.plan_cache));
        session = sessions_.back().get();
    }
    ++sessions_live_;
    session->start();
    return id;
}

void
CommRuntime::beginIterationEpoch()
{
    THEMIS_ASSERT(!epoch_active_, "iteration epoch already open");
    THEMIS_ASSERT(outstanding_ == 0,
                  "iteration epoch with " << outstanding_
                                          << " collectives in flight");
    THEMIS_ASSERT(queue_ref_.empty(),
                  "iteration epoch with pending events");
    // Fold the elapsed epoch into the fault timeline's absolute base
    // before the clock rebases under it. Telemetry and trace time
    // bases advance in lockstep so the run timeline stays monotonic
    // across the rebase.
    if (fault_driver_)
        fault_driver_->onEpochRebase(queue_ref_.now());
    if (telem_ != nullptr)
        telem_->time_base += queue_ref_.now();
    if (trace_ != nullptr)
        trace_->advanceTimeBase(queue_ref_.now());
    queue_ref_.rebaseToZero();
    // Epoch mode keeps per-epoch records only: ids, like the clock,
    // restart at zero, so a thousand-iteration run does not retain a
    // thousand iterations of Record history (and classReports() keeps
    // describing the same epoch as the channels' per-epoch byte
    // accounting). All callbacks have fired (outstanding_ == 0).
    THEMIS_ASSERT(callbacks_.empty(),
                  "uncollected completion callbacks at epoch start");
    records_.clear();
    epoch_hash_ = Fnv1a{};
    epoch_completed_base_.clear();
    for (auto& engine : engines_) {
        engine->beginIterationEpoch();
        engine->armFingerprint(&epoch_hash_);
        epoch_completed_base_.push_back(engine->completedCount());
    }
    utilization_->epochReset();
    activity_.reset();
    sessions_live_ = 0; // recycle the previous epoch's sessions
    epoch_active_ = true;
}

CommRuntime::EpochStats
CommRuntime::finishIterationEpoch()
{
    THEMIS_ASSERT(epoch_active_, "no iteration epoch open");
    THEMIS_ASSERT(outstanding_ == 0,
                  "closing an epoch with " << outstanding_
                                           << " collectives in flight");
    EpochStats s;
    s.duration = queue_ref_.now();
    s.active_time = utilization_->activeTime();
    s.collectives = static_cast<int>(records_.size());
    int num_classes = 1;
    for (std::size_t d = 0; d < engines_.size(); ++d) {
        sim::SharedChannel& ch = engines_[d]->channel();
        ch.sync();
        s.dim_bytes.push_back(ch.progressedBytes());
        num_classes = std::max(num_classes, ch.numClasses());
        s.ops += engines_[d]->completedCount() -
                 epoch_completed_base_[d];
    }
    s.class_bytes.assign(static_cast<std::size_t>(num_classes), 0.0);
    for (const auto& engine : engines_)
        for (int c = 0; c < num_classes; ++c)
            s.class_bytes[static_cast<std::size_t>(c)] +=
                engine->channel().classProgressedBytes(c);
    // Close the fingerprint over the aggregate epoch observables plus
    // the one piece of cross-epoch hidden scheduling state (the
    // engines' anti-starvation streaks).
    epoch_hash_.mix(std::uint64_t{0x4550}); // "EP"
    epoch_hash_.mix(s.duration);
    epoch_hash_.mix(s.active_time);
    epoch_hash_.mix(static_cast<std::uint64_t>(s.collectives));
    epoch_hash_.mix(s.ops);
    for (Bytes b : s.dim_bytes)
        epoch_hash_.mix(b);
    for (Bytes b : s.class_bytes)
        epoch_hash_.mix(b);
    for (const auto& engine : engines_)
        epoch_hash_.mix(
            static_cast<std::uint64_t>(engine->bypassStreak()));
    // Fault-engine observables: per-dimension retries, lost bytes and
    // link downtime this epoch. All-zero on fault-free runs (with or
    // without an armed driver), so arming alone leaves the
    // fingerprint's inputs — and thus steady-state detection —
    // untouched.
    for (std::size_t d = 0; d < engines_.size(); ++d) {
        epoch_hash_.mix(utilization_->retries()[d]);
        epoch_hash_.mix(utilization_->retryLostBytes()[d]);
        epoch_hash_.mix(utilization_->downTime()[d]);
    }
    // Adaptation state the next epoch plans under: a constant 0 on
    // clean (or non-adaptive) runs, so it perturbs nothing; once a
    // re-plan changes the capacity epoch, steady-state detection must
    // see the hidden planning-factor state, not just the plan keys
    // already issued.
    epoch_hash_.mix(capacity_fingerprint_);
    s.fingerprint = epoch_hash_.value();
    for (auto& engine : engines_)
        engine->disarmFingerprint();
    epoch_active_ = false;
    if (telem_ != nullptr) {
        m_epochs_->add();
        m_epoch_ns_->record(s.duration);
        m_chunk_ops_->add(s.ops);
        telem_->recorder.record(stats::telemetry::FlightEvent{
            telem_->absolute(s.duration),
            stats::telemetry::FlightKind::EpochClosed, -1,
            s.collectives, s.duration});
    }
    return s;
}

void
CommRuntime::noteReplayedEpoch(TimeNs d)
{
    if (fault_driver_)
        fault_driver_->skipReplayedEpoch(d);
    if (telem_ != nullptr) {
        telem_->time_base += d;
        m_replayed_->add();
        telem_->recorder.record(stats::telemetry::FlightEvent{
            telem_->absolute(queue_ref_.now()),
            stats::telemetry::FlightKind::ReplaySkip, -1, -1, d});
    }
    if (trace_ != nullptr)
        trace_->advanceTimeBase(d);
}

bool
CommRuntime::EpochStats::identicalTo(const EpochStats& o) const
{
    if (fingerprint != o.fingerprint ||
        !bitEquals(duration, o.duration) ||
        !bitEquals(active_time, o.active_time) ||
        collectives != o.collectives || ops != o.ops ||
        dim_bytes.size() != o.dim_bytes.size() ||
        class_bytes.size() != o.class_bytes.size())
        return false;
    for (std::size_t i = 0; i < dim_bytes.size(); ++i)
        if (!bitEquals(dim_bytes[i], o.dim_bytes[i]))
            return false;
    for (std::size_t i = 0; i < class_bytes.size(); ++i)
        if (!bitEquals(class_bytes[i], o.class_bytes[i]))
            return false;
    return true;
}

void
CommRuntime::onCollectiveDone(int id)
{
    auto& rec = records_[static_cast<std::size_t>(id)];
    THEMIS_ASSERT(!rec.done(), "collective " << id << " finished twice");
    rec.completed = queue_ref_.now();
    --outstanding_;
    if (telem_ != nullptr) {
        m_completed_->add();
        m_collective_ns_->record(rec.duration());
        telem_->recorder.record(stats::telemetry::FlightEvent{
            telem_->absolute(rec.completed),
            stats::telemetry::FlightKind::CollectiveDone, id, rec.job,
            rec.duration()});
    }
    if (outstanding_ == 0) {
        utilization_->windowEnd(queue_ref_.now());
        // Disarm the pending fault event: with no work outstanding it
        // would only stall queue.run(); the next window start catches
        // up on anything that comes due during the idle gap.
        if (fault_driver_)
            fault_driver_->onWindowEnd(queue_ref_.now());
        // Quiescent: no session can still point into a scope state
        // retired by a mid-flight re-plan, so the graveyard drains.
        retired_scopes_.clear();
    }
    if (config_.enforce_consistent_order) {
        if (id == observed_.id) {
            // Nothing perturbed it: the observed starts are the orders
            // a shadow simulation would have derived.
            if (config_.plan_cache != nullptr) {
                std::vector<std::vector<OpKey>> orders;
                for (const auto& s : rec.scope)
                    orders.push_back(
                        engines_[static_cast<std::size_t>(s.dim)]
                            ->takeObservedOrder(id));
                config_.plan_cache->storeOrders(observed_.key,
                                                std::move(orders));
            }
            observed_ = Observation{};
        }
        for (const auto& s : rec.scope) {
            engines_[static_cast<std::size_t>(s.dim)]
                ->clearEnforcedOrder(id);
        }
    }
    auto cb = callbacks_.find(id);
    if (cb != callbacks_.end()) {
        Callback fn = std::move(cb->second);
        callbacks_.erase(cb);
        fn();
    }
}

const CommRuntime::Record&
CommRuntime::record(int id) const
{
    THEMIS_ASSERT(id >= 0 && id < static_cast<int>(records_.size()),
                  "unknown collective id " << id);
    return records_[static_cast<std::size_t>(id)];
}

DimensionEngine&
CommRuntime::engine(int global_dim)
{
    THEMIS_ASSERT(global_dim >= 0 && global_dim < topo_.numDims(),
                  "bad dimension " << global_dim);
    return *engines_[static_cast<std::size_t>(global_dim)];
}

std::vector<std::pair<int, DimensionConfig>>
CommRuntime::plannedDims(const std::vector<ScopeDim>& scope) const
{
    std::vector<std::pair<int, DimensionConfig>> dims;
    for (const ScopeDim& s : scope) {
        DimensionConfig dim = topo_.dim(s.dim);
        if (capacity_fingerprint_ != 0) {
            // The shadow must replay the degraded fabric the orders
            // will run on, or its op interleaving would mispredict.
            dim.link_bw_gbps *=
                planned_factors_[static_cast<std::size_t>(s.dim)];
        }
        dims.emplace_back(s.dim, std::move(dim));
    }
    return dims;
}

void
CommRuntime::attachTrace(stats::TraceWriter& trace)
{
    trace_ = &trace;
    trace.setProcessName(stats::TraceWriter::kFabricPid, "fabric");
    for (auto& engine : engines_) {
        // Direct engine hook, not a FinishListener lambda: the span
        // fires once per chunk op, and std::function dispatch is
        // measurable against the <=10% telemetry overhead budget.
        engine->attachTrace(&trace);
    }
}

void
CommRuntime::finalizeStats()
{
    activity_.finalize(queue_ref_.now());
    publishTelemetry();
}

void
CommRuntime::publishTelemetry()
{
    if (telem_ == nullptr)
        return;
    for (std::size_t d = 0; d < engines_.size(); ++d) {
        engines_[d]->channel().sync();
        char prefix[32];
        std::snprintf(prefix, sizeof(prefix), "engine.dim%d",
                      static_cast<int>(d) + 1);
        engines_[d]->publishMetrics(telem_->metrics, prefix);
    }
    auto& m = telem_->metrics;
    m.gauge("runtime.session_slots")
        .set(static_cast<double>(sessionSlotCount()));
    m.gauge("runtime.live_jobs")
        .set(static_cast<double>(liveJobCount()));
    m.gauge("adapt.capacity_degraded")
        .set(capacity_fingerprint_ != 0 ? 1.0 : 0.0);
}

std::vector<CommRuntime::ClassReport>
CommRuntime::classReports()
{
    // The channels account per (job, tier) pair (accountingClass());
    // tier rows aggregate over jobs. Tiers present: whatever the
    // channels currently track, plus the retired-job aggregates,
    // plus every tier a record was mapped to (a class may have
    // issued-but-untransferred collectives).
    std::set<int> acct;
    for (const auto& engine : engines_) {
        engine->channel().sync();
        for (const int c : engine->channel().classIds())
            acct.insert(c);
    }
    int num_tiers = 1;
    for (const int c : acct)
        num_tiers = std::max(num_tiers, accountingTier(c) + 1);
    for (int t = 0; t < kNumPriorityTiers; ++t)
        if (retired_tiers_[static_cast<std::size_t>(t)].progressed >
            0.0)
            num_tiers = std::max(num_tiers, t + 1);
    for (const auto& rec : records_)
        num_tiers = std::max(num_tiers, rec.flow.tier + 1);

    std::vector<ClassReport> out(
        static_cast<std::size_t>(num_tiers));
    for (int t = 0; t < num_tiers; ++t) {
        ClassReport& r = out[static_cast<std::size_t>(t)];
        r.tier = t;
        r.weight = config_.priority.flowFor(t).weight;
        if (t < kNumPriorityTiers) {
            // Departed tenants' contribution, re-normalized against
            // the *current* active time so it stays commensurable
            // with the live classes' utilization shares.
            const auto& ret =
                retired_tiers_[static_cast<std::size_t>(t)];
            r.progressed += ret.progressed;
            r.utilization +=
                utilization_->utilizationOf(ret.window_bytes);
        }
    }
    for (const int c : acct) {
        ClassReport& r =
            out[static_cast<std::size_t>(accountingTier(c))];
        for (const auto& engine : engines_)
            r.progressed +=
                engine->channel().classProgressedBytes(c);
        r.utilization += utilization_->classUtilization(c);
    }
    tallyRecords(records_, out,
                 [](const Record& rec) { return rec.flow.tier; });
    return out;
}

std::vector<CommRuntime::JobReport>
CommRuntime::jobReports()
{
    for (const auto& engine : engines_)
        engine->channel().sync();
    // One row per live job, ascending (live_jobs_ is ordered).
    std::vector<JobReport> out;
    out.reserve(live_jobs_.size());
    for (const int j : live_jobs_) {
        out.emplace_back();
        out.back().job = j;
    }
    // Records and classes of retired jobs have no row, so they simply
    // don't attribute here.
    const auto rowOfJob = [&out](int job) {
        const auto it = std::lower_bound(
            out.begin(), out.end(), job,
            [](const JobReport& r, int j) { return r.job < j; });
        return it != out.end() && it->job == job
                   ? static_cast<int>(it - out.begin())
                   : -1;
    };
    for (const auto& engine : engines_) {
        for (const int c : engine->channel().classIds()) {
            const int i = rowOfJob(accountingJob(c));
            if (i >= 0)
                out[static_cast<std::size_t>(i)].progressed +=
                    engine->channel().classProgressedBytes(c);
        }
    }
    const auto& wb = utilization_->classWindowBytes();
    for (JobReport& r : out) {
        for (int t = 0; t < kNumPriorityTiers; ++t) {
            const auto it =
                wb.find(accountingClass(FlowClass{t, 1.0, r.job}));
            if (it != wb.end())
                r.window_bytes += it->second;
        }
        r.utilization = utilization_->utilizationOf(r.window_bytes);
    }
    tallyRecords(records_, out,
                 [&](const Record& rec) { return rowOfJob(rec.job); });
    return out;
}

CommRuntime::JobReport
CommRuntime::retireJob(int job)
{
    THEMIS_ASSERT(job >= 0 && job < kMaxJobsPerRuntime,
                  "job index " << job << " outside [0, "
                               << kMaxJobsPerRuntime << ")");
    std::vector<JobReport> row(1);
    JobReport& r = row.front();
    r.job = job;
    for (const auto& engine : engines_)
        engine->channel().sync();
    // Final channel accounting, folded into the per-tier retired
    // aggregates as it is read so classReports() totals survive the
    // erase below.
    for (int t = 0; t < kNumPriorityTiers; ++t) {
        const int c = accountingClass(FlowClass{t, 1.0, job});
        RetiredTierAcct& ret =
            retired_tiers_[static_cast<std::size_t>(t)];
        Bytes progressed = 0.0;
        for (const auto& engine : engines_)
            progressed += engine->channel().classProgressedBytes(c);
        // Tracker first (it reads the channels), then the channels.
        const Bytes window = utilization_->retireClass(c);
        for (const auto& engine : engines_)
            engine->channel().retireClass(c);
        r.progressed += progressed;
        r.window_bytes += window;
        ret.progressed += progressed;
        ret.window_bytes += window;
    }
    r.utilization = utilization_->utilizationOf(r.window_bytes);
    tallyRecords(records_, row, [job](const Record& rec) {
        return rec.job == job ? 0 : -1;
    });
    live_jobs_.erase(job);
    return r;
}

} // namespace themis::runtime
