#include "npu/npu_machine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace themis::npu {

namespace {

/** splitmix64, for deterministic per-op skew. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

class Simulation
{
  public:
    Simulation(const Topology& topo, CollectiveType type,
               const std::vector<ChunkSchedule>& schedules,
               const NpuSimConfig& config)
        : topo_(topo), type_(type), schedules_(schedules),
          config_(config), machine_(dimSizes(topo))
    {
        THEMIS_ASSERT(!schedules_.empty(), "no chunk schedules");
        num_npus_ = machine_.numNpus();
        num_chunks_ = static_cast<int>(schedules_.size());
        num_stages_ =
            static_cast<int>(schedules_.front().stages.size());
        for (const auto& s : schedules_) {
            THEMIS_ASSERT(static_cast<int>(s.stages.size()) ==
                              num_stages_,
                          "ragged chunk schedules unsupported");
        }
        ops_.resize(static_cast<std::size_t>(num_npus_) * num_chunks_ *
                    num_stages_);
        const int dims = topo_.numDims();
        engines_.resize(static_cast<std::size_t>(num_npus_) * dims);
        for (int n = 0; n < num_npus_; ++n) {
            for (int d = 0; d < dims; ++d) {
                engineAt(n, d).channel =
                    std::make_unique<sim::SharedChannel>(
                        queue_, topo_.dim(d).bandwidth());
            }
        }
        if (!config_.enforced_order.empty()) {
            THEMIS_ASSERT(static_cast<int>(
                              config_.enforced_order.size()) == dims,
                          "enforced order rank mismatch");
        }
    }

    NpuRunResult
    run()
    {
        for (int n = 0; n < num_npus_; ++n)
            for (int c = 0; c < num_chunks_; ++c)
                enqueueStage(n, c, 0, schedules_[static_cast<
                                          std::size_t>(c)].size);
        queue_.run();

        NpuRunResult result;
        result.makespan = queue_.now();
        result.egress_bytes.assign(
            static_cast<std::size_t>(num_npus_),
            std::vector<Bytes>(static_cast<std::size_t>(topo_.numDims()),
                               0.0));
        std::size_t incomplete = 0;
        for (const auto& op : ops_) {
            if (op.exists && !op.completed)
                ++incomplete;
        }
        for (int n = 0; n < num_npus_; ++n) {
            for (int d = 0; d < topo_.numDims(); ++d) {
                auto& ch = *engineAt(n, d).channel;
                ch.sync();
                result.egress_bytes[static_cast<std::size_t>(n)]
                                   [static_cast<std::size_t>(d)] =
                    ch.progressedBytes();
            }
        }
        result.stuck_ops = incomplete;
        result.completed = incomplete == 0 && allStagesDone();
        return result;
    }

  private:
    struct OpState
    {
        bool exists = false;
        bool started = false;
        bool send_done = false;
        bool completed = false;
        int recv_needed = 0;
        Bytes entering = 0.0;
        TimeNs transfer_time = 0.0;
        TimeNs fixed_delay = 0.0;
        std::uint64_t arrival_seq = 0;
    };

    struct Engine
    {
        std::unique_ptr<sim::SharedChannel> channel;
        std::vector<std::size_t> queued; // op indices
        std::vector<std::size_t> active;
        std::size_t enforced_next = 0;
    };

    static std::vector<int>
    dimSizes(const Topology& topo)
    {
        std::vector<int> sizes;
        for (const auto& d : topo.dims())
            sizes.push_back(d.size);
        return sizes;
    }

    std::size_t
    opIndex(int npu, int chunk, int stage) const
    {
        return (static_cast<std::size_t>(npu) * num_chunks_ + chunk) *
                   num_stages_ +
               static_cast<std::size_t>(stage);
    }

    Engine&
    engineAt(int npu, int dim)
    {
        return engines_[static_cast<std::size_t>(npu) *
                            topo_.numDims() +
                        static_cast<std::size_t>(dim)];
    }

    const StageAssignment&
    stageOf(int chunk, int stage) const
    {
        return schedules_[static_cast<std::size_t>(chunk)]
            .stages[static_cast<std::size_t>(stage)];
    }

    /** NPUs whose sends this op must wait for. */
    std::vector<int>
    sendersOf(int npu, int dim) const
    {
        const auto& cfg = topo_.dim(dim);
        const auto group = machine_.peerGroup(npu, dim);
        const int pos = machine_.positionInGroup(npu, dim);
        const int p = cfg.size;
        std::vector<int> senders;
        if (cfg.in_network_offload ||
            cfg.kind == DimKind::FullyConnected) {
            for (int member : group) {
                if (member != npu)
                    senders.push_back(member);
            }
        } else if (cfg.kind == DimKind::Ring) {
            senders.push_back(
                group[static_cast<std::size_t>((pos - 1 + p) % p)]);
        } else {
            for (int mask = 1; mask < p; mask <<= 1) {
                senders.push_back(
                    group[static_cast<std::size_t>(pos ^ mask)]);
            }
        }
        return senders;
    }

    /** NPUs that wait for this op's send (inverse of sendersOf). */
    std::vector<int>
    receiversOf(int npu, int dim) const
    {
        const auto& cfg = topo_.dim(dim);
        if (cfg.kind == DimKind::Ring && !cfg.in_network_offload) {
            const auto group = machine_.peerGroup(npu, dim);
            const int pos = machine_.positionInGroup(npu, dim);
            return {group[static_cast<std::size_t>(
                (pos + 1) % cfg.size)]};
        }
        return sendersOf(npu, dim); // symmetric relations otherwise
    }

    void
    enqueueStage(int npu, int chunk, int stage, Bytes entering)
    {
        const auto& st = stageOf(chunk, stage);
        const std::size_t idx = opIndex(npu, chunk, stage);
        OpState& op = ops_[idx];
        THEMIS_ASSERT(!op.exists, "stage enqueued twice");
        op.exists = true;
        op.entering = entering;
        // Reuse the runtime's lumped cost construction.
        auto probe = runtime::makeChunkOp(
            runtime::OpTag{0, chunk, stage}, st.phase, st.dim, st.dim,
            entering, topo_.dim(st.dim), [](const runtime::ChunkOp&) {});
        op.transfer_time = probe.transfer_time;
        op.fixed_delay = probe.fixed_delay;
        op.arrival_seq = arrival_counter_++;

        Engine& engine = engineAt(npu, st.dim);
        engine.queued.push_back(idx);
        tryStart(npu, st.dim);
    }

    /** The runtime engines' admission rule, at its defaults. */
    bool
    admissionAllows(const Engine& engine) const
    {
        constexpr runtime::AdmissionConfig admission{};
        if (engine.active.empty())
            return true;
        if (static_cast<int>(engine.active.size()) >=
            admission.max_parallel_ops) {
            return false;
        }
        TimeNs transfer_sum = 0.0;
        TimeNs max_delay = 0.0;
        for (std::size_t idx : engine.active) {
            transfer_sum += ops_[idx].transfer_time;
            max_delay = std::max(max_delay, ops_[idx].fixed_delay);
        }
        return transfer_sum <
               admission.latency_headroom * max_delay;
    }

    /** Queue slot to start next, or npos. */
    std::size_t
    nextQueuedSlot(int npu, int dim)
    {
        Engine& engine = engineAt(npu, dim);
        if (engine.queued.empty())
            return static_cast<std::size_t>(-1);
        std::vector<std::size_t> candidates;
        if (!config_.enforced_order.empty()) {
            const auto& order =
                config_.enforced_order[static_cast<std::size_t>(dim)];
            if (engine.enforced_next >= order.size())
                return static_cast<std::size_t>(-1);
            const OpKey& expected = order[engine.enforced_next];
            for (std::size_t q = 0; q < engine.queued.size(); ++q) {
                const std::size_t idx = engine.queued[q];
                const int chunk = static_cast<int>(
                    idx / num_stages_ % num_chunks_);
                const int stage =
                    static_cast<int>(idx % num_stages_);
                if (chunk == expected.chunk_id &&
                    stage == expected.stage_index) {
                    candidates.push_back(q);
                }
            }
        } else {
            for (std::size_t q = 0; q < engine.queued.size(); ++q)
                candidates.push_back(q);
        }
        if (candidates.empty())
            return static_cast<std::size_t>(-1);
        std::vector<QueuedOpView> views;
        views.reserve(candidates.size());
        for (std::size_t q : candidates) {
            const OpState& op = ops_[engine.queued[q]];
            const int chunk = static_cast<int>(
                engine.queued[q] / num_stages_ % num_chunks_);
            views.push_back(QueuedOpView{
                op.arrival_seq, op.transfer_time + op.fixed_delay,
                chunk});
        }
        return candidates[pickNextOp(config_.policy, views)];
    }

    void
    tryStart(int npu, int dim)
    {
        while (true) {
            Engine& engine = engineAt(npu, dim);
            const std::size_t slot = nextQueuedSlot(npu, dim);
            if (slot == static_cast<std::size_t>(-1))
                return;
            if (!admissionAllows(engine))
                return;
            const std::size_t idx = engine.queued[slot];
            engine.queued.erase(engine.queued.begin() +
                                static_cast<long>(slot));
            if (!config_.enforced_order.empty())
                ++engine.enforced_next;
            engine.active.push_back(idx);
            startOp(npu, dim, idx);
        }
    }

    void
    startOp(int npu, int dim, std::size_t idx)
    {
        OpState& op = ops_[idx];
        op.started = true;
        const int chunk =
            static_cast<int>(idx / num_stages_ % num_chunks_);
        const int stage = static_cast<int>(idx % num_stages_);
        // Receive requirement: peers whose sends have not drained yet.
        op.recv_needed = 0;
        for (int sender : sendersOf(npu, dim)) {
            if (!ops_[opIndex(sender, chunk, stage)].send_done)
                ++op.recv_needed;
        }
        TimeNs delay = op.fixed_delay;
        if (config_.max_skew_ns > 0.0) {
            const std::uint64_t h =
                mix(mix(mix(config_.seed ^ static_cast<std::uint64_t>(
                                               npu)) ^
                        static_cast<std::uint64_t>(chunk)) ^
                    static_cast<std::uint64_t>(stage));
            delay += config_.max_skew_ns *
                     (static_cast<double>(h >> 11) / 9007199254740992.0);
        }
        queue_.scheduleAfter(delay, [this, npu, dim, idx] {
            engineAt(npu, dim).channel->begin(
                ops_[idx].transfer_time *
                    topo_.dim(dim).bandwidth(),
                [this, npu, dim, idx] { onSendDone(npu, dim, idx); });
        });
    }

    void
    onSendDone(int npu, int dim, std::size_t idx)
    {
        OpState& op = ops_[idx];
        op.send_done = true;
        const int chunk =
            static_cast<int>(idx / num_stages_ % num_chunks_);
        const int stage = static_cast<int>(idx % num_stages_);
        // Notify receivers that were waiting on this send.
        for (int receiver : receiversOf(npu, dim)) {
            OpState& ro = ops_[opIndex(receiver, chunk, stage)];
            if (ro.started && !ro.completed) {
                THEMIS_ASSERT(ro.recv_needed > 0,
                              "receive accounting underflow");
                --ro.recv_needed;
                maybeComplete(receiver, dim, chunk, stage);
            }
        }
        maybeComplete(npu, dim, chunk, stage);
    }

    void
    maybeComplete(int npu, int dim, int chunk, int stage)
    {
        const std::size_t idx = opIndex(npu, chunk, stage);
        OpState& op = ops_[idx];
        if (op.completed || !op.send_done || op.recv_needed > 0)
            return;
        op.completed = true;
        Engine& engine = engineAt(npu, dim);
        engine.active.erase(std::find(engine.active.begin(),
                                      engine.active.end(), idx));
        // Advance the chunk to its next stage on this NPU.
        if (stage + 1 < num_stages_) {
            const Bytes after = sizeAfterPhase(
                stageOf(chunk, stage).phase, op.entering,
                topo_.dim(stageOf(chunk, stage).dim).size);
            enqueueStage(npu, chunk, stage + 1, after);
        }
        tryStart(npu, dim);
    }

    bool
    allStagesDone() const
    {
        for (const auto& op : ops_) {
            if (!op.exists || !op.completed)
                return false;
        }
        return true;
    }

    const Topology& topo_;
    CollectiveType type_;
    const std::vector<ChunkSchedule>& schedules_;
    NpuSimConfig config_;
    LogicalMachine machine_;
    sim::EventQueue queue_;
    int num_npus_ = 0;
    int num_chunks_ = 0;
    int num_stages_ = 0;
    std::vector<OpState> ops_;
    std::vector<Engine> engines_;
    std::uint64_t arrival_counter_ = 0;
};

} // namespace

NpuRunResult
simulatePerNpu(const Topology& topo, CollectiveType type,
               const std::vector<ChunkSchedule>& schedules,
               const NpuSimConfig& config)
{
    Simulation sim(topo, type, schedules, config);
    return sim.run();
}

} // namespace themis::npu
