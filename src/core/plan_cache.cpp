#include "core/plan_cache.hpp"

#include <mutex>

#include "common/hash.hpp"

namespace themis {

PlanKey
PlanKey::make(SchedulerKind scheduler, const ThemisConfig& themis,
              CollectiveType type, Bytes size, int chunks,
              std::uint64_t model_fingerprint, int flow_tier,
              std::uint64_t priority_fingerprint,
              std::uint64_t capacity_fingerprint)
{
    PlanKey key;
    key.scheduler = scheduler;
    // The baseline scheduler ignores ThemisConfig entirely; keep the
    // defaults so every baseline request shares one entry per
    // (type, size, chunks, model).
    if (scheduler == SchedulerKind::Themis ||
        scheduler == SchedulerKind::ThemisPriority)
        key.themis = themis;
    // Only the priority-aware variant plans by flow class; every
    // other scheduler shares one entry across tiers and policies.
    // Its plans differ solely on the urgent threshold-bypass, so the
    // tier normalizes to that bit — Bulk and Standard requests of
    // the same shape share one entry instead of duplicating a full
    // plan derivation per tier.
    if (scheduler == SchedulerKind::ThemisPriority) {
        key.flow_tier =
            flow_tier >= static_cast<int>(PriorityTier::Urgent) ? 1
                                                                : 0;
        key.priority_fingerprint = priority_fingerprint;
    }
    key.type = type;
    key.size = size;
    key.chunks = chunks;
    key.model_fingerprint = model_fingerprint;
    key.capacity_fingerprint = capacity_fingerprint;
    return key;
}

bool
PlanKey::operator==(const PlanKey& o) const
{
    // Doubles compare by bit pattern, agreeing with planKeyHash.
    return scheduler == o.scheduler &&
           themis.init_loads_with_fixed_delay ==
               o.themis.init_loads_with_fixed_delay &&
           type == o.type &&
           bitEquals(size, o.size) && chunks == o.chunks &&
           model_fingerprint == o.model_fingerprint &&
           flow_tier == o.flow_tier &&
           priority_fingerprint == o.priority_fingerprint &&
           capacity_fingerprint == o.capacity_fingerprint;
}

bool
StepKey::operator==(const StepKey& o) const
{
    return phase == o.phase && bitEquals(entering, o.entering) &&
           dim_fingerprint == o.dim_fingerprint;
}

bool
OrderKey::operator==(const OrderKey& o) const
{
    return plan == o.plan && intra_policy == o.intra_policy;
}

std::uint64_t
planKeyHash(const PlanKey& k)
{
    Fnv1a h;
    h.mix(static_cast<std::uint64_t>(k.scheduler));
    // Retired knobs mix their paper values: golden fingerprints hold.
    h.mix(std::uint64_t{1}); // use_threshold
    h.mix(1.0 / 16.0);       // threshold probe fraction
    h.mix(static_cast<std::uint64_t>(
        k.themis.init_loads_with_fixed_delay));
    h.mix(std::uint64_t{0}); // account_ag_pass
    h.mix(std::uint64_t{0}); // carry_load_across_collectives
    h.mix(static_cast<std::uint64_t>(k.type));
    h.mix(k.size);
    h.mix(static_cast<std::uint64_t>(k.chunks));
    h.mix(k.model_fingerprint);
    h.mix(static_cast<std::uint64_t>(k.flow_tier));
    h.mix(k.priority_fingerprint);
    h.mix(k.capacity_fingerprint);
    return h.value();
}

std::size_t
PlanCache::PlanKeyHash::operator()(const PlanKey& k) const
{
    return static_cast<std::size_t>(planKeyHash(k));
}

std::size_t
PlanCache::StepKeyHash::operator()(const StepKey& k) const
{
    Fnv1a h;
    h.mix(static_cast<std::uint64_t>(k.phase));
    h.mix(k.entering);
    h.mix(k.dim_fingerprint);
    return static_cast<std::size_t>(h.value());
}

std::size_t
PlanCache::OrderKeyHash::operator()(const OrderKey& k) const
{
    Fnv1a h;
    h.mix(PlanKeyHash{}(k.plan));
    h.mix(static_cast<std::uint64_t>(k.intra_policy));
    return static_cast<std::size_t>(h.value());
}

PlanCache::PlanPtr
PlanCache::findPlan(const PlanKey& key) const
{
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = plans_.find(key);
        if (it != plans_.end()) {
            plan_hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    plan_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
}

PlanCache::PlanPtr
PlanCache::storePlan(const PlanKey& key, std::vector<ChunkSchedule> plan)
{
    auto value = std::make_shared<const std::vector<ChunkSchedule>>(
        std::move(plan));
    std::unique_lock<std::shared_mutex> lock(mutex_);
    return plans_.try_emplace(key, std::move(value)).first->second;
}

PlanCache::OrderPtr
PlanCache::findOrders(const OrderKey& key) const
{
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = orders_.find(key);
        if (it != orders_.end()) {
            order_hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    order_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
}

PlanCache::OrderPtr
PlanCache::storeOrders(const OrderKey& key,
                       std::vector<std::vector<OpKey>> orders)
{
    auto value =
        std::make_shared<const std::vector<std::vector<OpKey>>>(
            std::move(orders));
    std::unique_lock<std::shared_mutex> lock(mutex_);
    return orders_.try_emplace(key, std::move(value)).first->second;
}

bool
PlanCache::findStep(const StepKey& key, StepSummary& out) const
{
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = steps_.find(key);
        if (it != steps_.end()) {
            step_hits_.fetch_add(1, std::memory_order_relaxed);
            out = it->second;
            return true;
        }
    }
    step_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
PlanCache::storeStep(const StepKey& key, const StepSummary& summary)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    steps_.try_emplace(key, summary);
}

std::size_t
PlanCache::stepCount() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return steps_.size();
}

std::size_t
PlanCache::planCount() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return plans_.size();
}

std::size_t
PlanCache::orderCount() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return orders_.size();
}

PlanCache::Stats
PlanCache::stats() const
{
    Stats s;
    s.plan_hits = plan_hits_.load(std::memory_order_relaxed);
    s.plan_misses = plan_misses_.load(std::memory_order_relaxed);
    s.order_hits = order_hits_.load(std::memory_order_relaxed);
    s.order_misses = order_misses_.load(std::memory_order_relaxed);
    s.step_hits = step_hits_.load(std::memory_order_relaxed);
    s.step_misses = step_misses_.load(std::memory_order_relaxed);
    return s;
}

} // namespace themis
