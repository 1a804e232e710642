/**
 * @file
 * Records a workload's collective and chunk-op stream through the
 * simulator's public hooks only:
 *
 *  - DimensionEngine::setStartListener / setFinishListener on every
 *    engine of a CommRuntime (op start order, and each finished op with
 *    its start time);
 *  - CommRuntime::records() (the issued collectives, read lazily at the
 *    next hook call after each issue);
 *  - EventQueue::pendingCount() and DimensionEngine::queuedCount(),
 *    sampled at every op start and finish.
 *
 * One Stream is one self-contained simulation: an iteration epoch, one
 * All-Reduce cell, or one lockstep round. Arrival times are derived
 * when a stream closes: stage 0 of a chunk arrives when its collective
 * was issued, stage s > 0 when stage s - 1 finished. The replays in
 * replay.hpp feed these streams into each layer in isolation.
 */

#ifndef PERFBENCH_RECORDER_HPP
#define PERFBENCH_RECORDER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/comm_runtime.hpp"

namespace perfbench {

/** One chunk op as an engine executed it. */
struct OpRecord
{
    /** The op itself (its completion callback cleared). */
    themis::runtime::ChunkOp op;

    themis::TimeNs start = 0.0;
    themis::TimeNs finish = 0.0;

    /** Hook-event index of the op's start and finish. */
    std::uint64_t start_seq = 0;
    std::uint64_t finish_seq = 0;

    /** Derived at stream close: when the op reached its engine, plus a
     *  tie-break key ordering same-time arrivals as they happened. */
    themis::TimeNs arrival = 0.0;
    std::uint64_t arrival_key = 0;
};

/** One issued collective. */
struct CollectiveRecord
{
    themis::runtime::CommRuntime::Record rec;

    /** Chunks the collective was split into (from its ops). */
    int chunks = 0;

    /** Tie-break key: 2 x the hook-event index it was issued before. */
    std::uint64_t issue_key = 0;
};

/** Everything one self-contained simulation did; see file comment. */
struct Stream
{
    std::shared_ptr<const themis::Topology> topo;

    /** The runtime configuration (plan cache and telemetry cleared). */
    themis::runtime::RuntimeConfig config;

    /** In issue order; index == collective id. */
    std::vector<CollectiveRecord> collectives;

    /** In finish order. */
    std::vector<OpRecord> ops;

    /** Op start order per global dimension. */
    std::vector<std::vector<themis::runtime::OpTag>> starts;

    /** Bytes each dimension's channel progressed, read from the runtime. */
    std::vector<themis::Bytes> dim_bytes;

    /** EventQueue::run() return value (handlers executed). */
    std::uint64_t events = 0;

    /** Op indices sorted by arrival (arrival, arrival_key, id, chunk). */
    std::vector<std::size_t> byArrival() const;

    /** Op indices sorted by start (start, start_seq). */
    std::vector<std::size_t> byStart() const;

    /** Op indices sorted by transfer begin (start + latency, start_seq). */
    std::vector<std::size_t> byBegin() const;

    /** Collective ids sorted by issue (issued, issue_key, id). */
    std::vector<std::size_t> byIssue() const;
};

/** Transfer begin time of a recorded (single-step) op. */
themis::TimeNs beginTime(const OpRecord& r);

/** A workload's recorded traffic. */
struct Recording
{
    std::vector<Stream> streams;

    /**
     * True when the workload runs with a warm plan cache (every plan a
     * hit); replays that need a cache warm theirs first. False: each
     * replay repetition starts from an empty cache shared by the
     * streams in order, as the workload's unit does.
     */
    bool warm_cache = false;

    /**
     * True when the streams are iteration epochs of one long-lived
     * runtime (an iteration, a lockstep round); false when each stream
     * ran on a runtime of its own (an All-Reduce cell).
     */
    bool epochs = false;

    /** pendingCount() / queuedCount() at every op start and finish. */
    std::vector<double> pending_samples;
    std::vector<double> queued_samples;

    /**
     * Non-empty when the recorded run itself diverged from the
     * workload's untraced result; every replay is then invalid.
     */
    std::string invalid;

    std::uint64_t ops() const;
    std::uint64_t collectives() const;
    std::uint64_t events() const;
};

/** Hooks a CommRuntime's engines and fills a Recording. */
class Recorder
{
  public:
    /**
     * @param keep false drops every stream at endStream() (the hooks
     *        still do all their work): used to time the hooks' cost.
     */
    explicit Recorder(bool keep = true);

    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /** Install the listeners on every engine of @p comm. */
    void attach(themis::runtime::CommRuntime& comm);

    /** Remove the listeners (the runtime must still be alive). */
    void detach();

    /** Open a stream of the attached runtime run under @p config. */
    void beginStream(const themis::runtime::RuntimeConfig& config);

    /** Close the current stream and derive its arrival times. */
    void endStream(std::uint64_t events,
                   const std::vector<themis::Bytes>& dim_bytes);

    Recording& recording() { return recording_; }

  private:
    void onStart(int dim, const themis::runtime::OpTag& tag);
    void onFinish(const themis::runtime::ChunkOp& op,
                  themis::TimeNs started);
    /** Capture collectives issued since the last hook call. */
    void syncRecords();

    bool keep_;
    themis::runtime::CommRuntime* comm_ = nullptr;
    Recording recording_;
    Stream current_;
    std::size_t captured_ = 0;
    std::uint64_t events_seen_ = 0;
    /** Packed op tag -> start hook index of the ops in flight. */
    std::unordered_map<std::uint64_t, std::uint64_t> start_seq_;
};

/** Pack an op tag into one key (collective, chunk, stage). */
std::uint64_t packTag(const themis::runtime::OpTag& tag);

} // namespace perfbench

#endif // PERFBENCH_RECORDER_HPP
