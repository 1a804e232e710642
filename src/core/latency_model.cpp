#include "core/latency_model.hpp"

#include "common/error.hpp"
#include "common/hash.hpp"

namespace themis {

LatencyModel::LatencyModel(std::vector<DimensionConfig> dims)
    : dims_(std::move(dims))
{
    if (dims_.empty())
        THEMIS_FATAL("latency model needs at least one dimension");
    Fnv1a hash;
    for (const auto& d : dims_) {
        d.validate();
        sizes_.push_back(d.size);
        Fnv1a dim_hash;
        for (Fnv1a* h : {&hash, &dim_hash}) {
            h->mix(static_cast<std::uint64_t>(d.kind));
            h->mix(static_cast<std::uint64_t>(d.size));
            h->mix(d.link_bw_gbps);
            h->mix(static_cast<std::uint64_t>(d.links_per_npu));
            h->mix(d.step_latency_ns);
            h->mix(static_cast<std::uint64_t>(d.in_network_offload));
        }
        dim_fingerprints_.push_back(dim_hash.value());
    }
    fingerprint_ = hash.value();
}

LatencyModel
LatencyModel::fromTopology(const Topology& topo)
{
    return LatencyModel(topo.dims());
}

LatencyModel
LatencyModel::fromScope(const Topology& topo,
                        const std::vector<ScopeDim>& scope)
{
    if (scope.empty())
        return fromTopology(topo);
    std::vector<DimensionConfig> dims;
    for (const auto& s : scope) {
        DimensionConfig cfg = topo.dim(s.dim);
        if (s.participants > 0) {
            if (s.participants > cfg.size)
                THEMIS_FATAL("scope wants " << s.participants
                                            << " participants in a dim of "
                                            << cfg.size << " NPUs");
            cfg.size = s.participants;
            // A clique sub-group only needs participants-1 links; the
            // surplus cannot be used within the smaller group.
            if (cfg.kind == DimKind::FullyConnected &&
                cfg.links_per_npu > cfg.size - 1) {
                cfg.links_per_npu = cfg.size - 1;
            }
        }
        dims.push_back(cfg);
    }
    return LatencyModel(std::move(dims));
}

LatencyModel
LatencyModel::scaledBy(const std::vector<double>& factors) const
{
    THEMIS_ASSERT(factors.size() == dims_.size(),
                  "scaledBy wants one factor per dimension, got "
                      << factors.size() << " for " << dims_.size());
    std::vector<DimensionConfig> dims = dims_;
    for (std::size_t d = 0; d < dims.size(); ++d) {
        THEMIS_ASSERT(factors[d] > 0.0,
                      "scaledBy factor " << factors[d] << " on dim "
                                         << d << " must be positive");
        dims[d].link_bw_gbps *= factors[d];
    }
    return LatencyModel(std::move(dims));
}

TimeNs
LatencyModel::transferTime(Phase phase, Bytes entering, int d) const
{
    return chunkTransferTime(phase, entering, dim(d));
}

TimeNs
LatencyModel::opTime(Phase phase, Bytes entering, int d) const
{
    return chunkOpTime(phase, entering, dim(d));
}

TimeNs
LatencyModel::collectiveFixedDelay(CollectiveType type, int d) const
{
    return typeFixedDelay(type, dim(d));
}

std::vector<TimeNs>
LatencyModel::stageLoads(Bytes size,
                         const std::vector<StageAssignment>& stages) const
{
    std::vector<TimeNs> loads(static_cast<std::size_t>(numDims()), 0.0);
    Bytes current = size;
    for (const auto& st : stages) {
        loads[static_cast<std::size_t>(st.dim)] +=
            transferTime(st.phase, current, st.dim);
        current = sizeAfterPhase(st.phase, current, dim(st.dim).size);
    }
    return loads;
}

} // namespace themis
