#include "recorder.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "common/error.hpp"

namespace perfbench {

using themis::TimeNs;
using themis::runtime::ChunkOp;
using themis::runtime::CommRuntime;
using themis::runtime::OpTag;

std::uint64_t
packTag(const OpTag& tag)
{
    return static_cast<std::uint64_t>(tag.collective_id) << 40 |
           static_cast<std::uint64_t>(tag.chunk_id) << 16 |
           static_cast<std::uint64_t>(tag.stage_index);
}

TimeNs
beginTime(const OpRecord& r)
{
    const TimeNs latency = r.op.steps[0].latency;
    return latency > 0.0 ? r.start + latency : r.start;
}

namespace {

template <typename Key>
std::vector<std::size_t>
sortedIndices(std::size_t n, Key key)
{
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                         return key(a) < key(b);
                     });
    return idx;
}

} // namespace

std::vector<std::size_t>
Stream::byArrival() const
{
    return sortedIndices(ops.size(), [this](std::size_t i) {
        const OpRecord& r = ops[i];
        return std::make_tuple(r.arrival, r.arrival_key,
                               r.op.tag.collective_id, r.op.tag.chunk_id);
    });
}

std::vector<std::size_t>
Stream::byStart() const
{
    return sortedIndices(ops.size(), [this](std::size_t i) {
        return std::make_tuple(ops[i].start, ops[i].start_seq);
    });
}

std::vector<std::size_t>
Stream::byBegin() const
{
    return sortedIndices(ops.size(), [this](std::size_t i) {
        return std::make_tuple(beginTime(ops[i]), ops[i].start_seq);
    });
}

std::vector<std::size_t>
Stream::byIssue() const
{
    return sortedIndices(collectives.size(), [this](std::size_t i) {
        const CollectiveRecord& c = collectives[i];
        return std::make_tuple(c.rec.issued, c.issue_key, c.rec.id);
    });
}

std::uint64_t
Recording::ops() const
{
    std::uint64_t n = 0;
    for (const Stream& s : streams)
        n += s.ops.size();
    return n;
}

std::uint64_t
Recording::collectives() const
{
    std::uint64_t n = 0;
    for (const Stream& s : streams)
        n += s.collectives.size();
    return n;
}

std::uint64_t
Recording::events() const
{
    std::uint64_t n = 0;
    for (const Stream& s : streams)
        n += s.events;
    return n;
}

Recorder::Recorder(bool keep) : keep_(keep) {}

void
Recorder::attach(CommRuntime& comm)
{
    comm_ = &comm;
    for (int d = 0; d < comm.topology().numDims(); ++d) {
        auto& engine = comm.engine(d);
        engine.setStartListener(
            [this, d](const OpTag& tag) { onStart(d, tag); });
        engine.setFinishListener(
            [this](const ChunkOp& op, TimeNs started) {
                onFinish(op, started);
            });
    }
}

void
Recorder::detach()
{
    if (comm_ == nullptr)
        return;
    for (int d = 0; d < comm_->topology().numDims(); ++d) {
        comm_->engine(d).setStartListener(nullptr);
        comm_->engine(d).setFinishListener(nullptr);
    }
    comm_ = nullptr;
}

void
Recorder::beginStream(const themis::runtime::RuntimeConfig& config)
{
    THEMIS_ASSERT(comm_ != nullptr, "recorder is not attached");
    current_ = Stream{};
    current_.topo =
        std::make_shared<const themis::Topology>(comm_->topology());
    current_.config = config;
    current_.config.plan_cache = nullptr;
    current_.config.telemetry = nullptr;
    current_.starts.resize(
        static_cast<std::size_t>(comm_->topology().numDims()));
    captured_ = comm_->records().size();
    start_seq_.clear();
}

void
Recorder::syncRecords()
{
    const auto& records = comm_->records();
    // Iteration epochs restart record ids at zero.
    if (records.size() < captured_)
        captured_ = 0;
    for (; captured_ < records.size(); ++captured_) {
        CollectiveRecord c;
        c.rec = records[captured_];
        c.issue_key = 2 * events_seen_;
        current_.collectives.push_back(std::move(c));
    }
}

void
Recorder::onStart(int dim, const OpTag& tag)
{
    syncRecords();
    current_.starts[static_cast<std::size_t>(dim)].push_back(tag);
    start_seq_[packTag(tag)] = events_seen_;
    recording_.pending_samples.push_back(
        static_cast<double>(comm_->queue().pendingCount()));
    recording_.queued_samples.push_back(
        static_cast<double>(comm_->engine(dim).queuedCount()));
    ++events_seen_;
}

void
Recorder::onFinish(const ChunkOp& op, TimeNs started)
{
    syncRecords();
    OpRecord r;
    r.op = op;
    r.op.on_complete = nullptr;
    r.start = started;
    r.finish = comm_->queue().now();
    const auto it = start_seq_.find(packTag(op.tag));
    if (it != start_seq_.end()) {
        r.start_seq = it->second;
        start_seq_.erase(it);
    }
    r.finish_seq = events_seen_;
    current_.ops.push_back(std::move(r));
    recording_.pending_samples.push_back(
        static_cast<double>(comm_->queue().pendingCount()));
    ++events_seen_;
}

void
Recorder::endStream(std::uint64_t events,
                    const std::vector<themis::Bytes>& dim_bytes)
{
    syncRecords();
    Stream s = std::move(current_);
    current_ = Stream{};
    if (!keep_) {
        // Timing the hooks only: keep the sample buffers bounded too.
        recording_.pending_samples.clear();
        recording_.queued_samples.clear();
        return;
    }
    s.events = events;
    s.dim_bytes = dim_bytes;
    std::unordered_map<std::uint64_t, std::size_t> by_tag;
    by_tag.reserve(s.ops.size());
    for (std::size_t i = 0; i < s.ops.size(); ++i)
        by_tag.emplace(packTag(s.ops[i].op.tag), i);
    for (std::size_t c = 0; c < s.collectives.size(); ++c)
        THEMIS_ASSERT(s.collectives[c].rec.id == static_cast<int>(c),
                      "recorded collective ids are not dense");
    for (OpRecord& r : s.ops) {
        const OpTag& tag = r.op.tag;
        auto& coll =
            s.collectives[static_cast<std::size_t>(tag.collective_id)];
        coll.chunks = std::max(coll.chunks, tag.chunk_id + 1);
        if (tag.stage_index == 0) {
            r.arrival = coll.rec.issued;
            r.arrival_key = coll.issue_key;
        } else {
            OpTag prev = tag;
            --prev.stage_index;
            const auto it = by_tag.find(packTag(prev));
            THEMIS_ASSERT(it != by_tag.end(),
                          "recorded op has no predecessor stage");
            const OpRecord& p = s.ops[it->second];
            r.arrival = p.finish;
            // Successor stages are enqueued right after the
            // predecessor's finish hook, before the next hook event.
            r.arrival_key = 2 * p.finish_seq + 1;
        }
    }
    recording_.streams.push_back(std::move(s));
}

} // namespace perfbench
