/**
 * @file
 * Conservative parallel discrete-event executor: shards one
 * simulation across worker threads without changing a single output
 * byte.
 *
 * ## Partition
 *
 * Execution is split into domains: domain 0 (the coordinator) runs
 * the trace frontend, every migration manager/engine, interval
 * timers and channel completion events; domain 1+i runs DRAM
 * channel i's controller. Channels are the finest partition the
 * memory system admits — they share no state and talk to the rest of
 * the system only through (a) enqueues from the coordinator and (b)
 * completion events back to it. Crucially the partition is fixed by
 * the *model*, not by the shard count: `--shards N` only distributes
 * the per-channel timing wheels over N worker threads, so the
 * canonical event order (common/event_queue.h) — and therefore
 * stdout, stats JSON and trace bytes — is invariant across N.
 *
 * ## Synchronization (conservative, null-message-free)
 *
 * The only channel -> coordinator traffic is the CAS completion,
 * whose delay is bounded below by
 *
 *     L = min over device specs of (min(tCL, tCWL) + tBL) + extraLatency
 *
 * so a window [W, W + L) can execute with no feedback: phase A runs
 * the coordinator's events below the horizon (deferring enqueues into
 * per-channel inboxes tagged with the calling event's canonical key),
 * phase B runs every channel's events merged with its inbox in key
 * order on the worker threads, and the barrier merges completion
 * outboxes — all provably at or beyond W + L — back into the
 * coordinator's wheel. Coordinator -> channel traffic has zero
 * lookahead, which is why it is phase-ordered (A before B) instead of
 * horizon-bounded. The executor asserts both horizon invariants: no
 * event beyond the window bound executes, and no merged event lands
 * in the coordinator's past (a violation panics — never silently
 * reorders).
 *
 * Why conservative rather than optimistic (Time Warp)? Rollback would
 * need checkpointing of controller slabs, stats counters and tracer
 * buffers — large, hot state — and the proof obligation here is
 * byte-identical output, which is trivial to establish for an
 * executor that never mis-speculates and brutal for one that must
 * unwind. The DRAM CAS latency gives a fat, static lookahead anyway,
 * so the conservative horizon costs little parallelism.
 *
 * ## Serialization points
 *
 * The interval sampler (statsIntervalPs > 0) reads channel counters
 * mid-run, which pierces the domain partition. Sampler instants are
 * exact period multiples, so any window starting on one is executed
 * as a single-threaded *boundary step*: a merged key-order sweep of
 * every domain's events at that instant, reproducing the serial
 * interleaving the sampler would have observed.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/event_queue.h"
#include "common/perf.h"
#include "common/tracer.h"
#include "dram/channel.h"
#include "mem/request.h"

namespace mempod {

class MemorySystem;

/** Conservative PDES executor over one coordinator + channel lanes. */
class ParallelExecutor
{
  public:
    /**
     * Reads the coordinator's probes once: with a tracer attached it
     * builds one staging tracer per domain and attaches each to its
     * queue (lanes carry nothing else); with a host profiler it sizes
     * the shard lanes. Host time flows one way — out — so the monitor
     * cannot perturb event order.
     *
     * @param coordinator The simulation's main queue (domain 0).
     * @param num_channels One lane (domain, wheel) per channel.
     * @param shards Worker-thread count; clamped to [1, num_channels].
     * @param lookahead_ps Minimum channel->coordinator event delay.
     * @param sample_period_ps statsIntervalPs, 0 when not sampling.
     */
    ParallelExecutor(EventQueue &coordinator, std::size_t num_channels,
                     unsigned shards, TimePs lookahead_ps,
                     TimePs sample_period_ps);
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Per-channel queues, channel order; for MemorySystem's ShardPlan. */
    std::vector<EventQueue *> channelQueues();
    const EventQueue &channelQueue(std::size_t ch) const;

    /** Resolve memory-model pointers once the MemorySystem exists. */
    void bindChannels(MemorySystem &mem);

    /** Termination predicate, checked after every coordinator event. */
    void setDrained(std::function<bool()> fn) { drained_ = std::move(fn); }

    /** Merge the staged per-domain trace records into `master`. */
    void absorbTraces(Tracer &master);

    /**
     * MemorySystem::access hand-off: defer `req`'s enqueue on channel
     * `ch` into that lane's inbox, positioned at the calling event's
     * canonical key and carrying the reserved key its scheduleTick
     * would have consumed in the serial run.
     */
    void dispatch(std::size_t ch, Request req, ChannelAddr where);

    enum class Step
    {
        kWindow,   //!< executed one horizon window (or boundary step)
        kFinished, //!< drained() hit; the run is complete
        kIdle,     //!< no events anywhere — deadlock upstream
    };

    /** Execute the next window. */
    Step runWindow();

    bool finished() const { return finished_; }

    // -- Introspection (scaling reports, property tests) --
    TimePs lookaheadPs() const { return lookahead_; }
    unsigned shards() const { return shards_; }
    std::size_t numLanes() const { return lanes_.size(); }
    std::uint64_t windows() const { return windows_; }
    std::uint64_t samplerSyncs() const { return samplerSyncs_; }
    /** [start, end) of the most recent window; 0/0 before the first. */
    TimePs lastWindowStartPs() const { return lastWindowStart_; }
    TimePs lastWindowEndPs() const { return lastWindowEnd_; }
    /** Events executed across the coordinator and every lane. */
    std::uint64_t totalExecuted() const;
    /** Executed-event counts: index 0 coordinator, 1+i channel i. */
    std::vector<std::uint64_t> perDomainExecuted() const;
    /** Events executed by worker shard `s` (its lanes summed). */
    std::uint64_t perShardExecuted(unsigned s) const;

    /** Smallest completion slack over the horizon seen so far, ps
     *  (~0ull before the first merge). Perf-only near-miss gauge. */
    std::uint64_t minHorizonSlackPs() const { return minSlack_; }

  private:
    /** One deferred coordinator -> channel enqueue. */
    struct Delivery
    {
        EventKey pos;      //!< calling event's key: merge position
        EventKey reserved; //!< key for the applied enqueue's schedule
        Request req;
        ChannelAddr where;
    };

    /** One channel domain: its wheel, inbox and staging tracer. */
    struct Lane
    {
        EventQueue q;
        std::vector<Delivery> inbox;
        std::size_t inboxPos = 0;
        MemoryModel *chan = nullptr;
        std::unique_ptr<Tracer> staging;
    };

    /** Run one lane up to (exclusive) canonical key `bound`. */
    void runLane(Lane &lane, const EventKey &bound);
    /** Phase B: run every lane to `bound` on the worker threads. */
    void runPhaseB(const EventKey &bound);
    /** Merge lane outboxes into the coordinator; asserts the horizon. */
    void mergeOutboxes(TimePs window_end);
    /** Single-threaded merged sweep of all events at instant `t`. */
    Step boundaryStep(TimePs t);
    void applyDelivery(Lane &lane, Delivery &d);
    void workerLoop(unsigned shard);

    EventQueue &coord_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    unsigned shards_;
    TimePs lookahead_;
    TimePs samplePeriod_;
    std::function<bool()> drained_;
    std::unique_ptr<Tracer> coordStaging_;

    PerfMonitor *const pm_; //!< the coordinator's, fixed at construction
    Log2Histogram *slackHist_ = nullptr; //!< resolved in the constructor
    std::uint64_t minSlack_ = ~std::uint64_t{0};

    bool finished_ = false;
    std::uint64_t windows_ = 0;
    std::uint64_t samplerSyncs_ = 0;
    TimePs lastWindowStart_ = 0;
    TimePs lastWindowEnd_ = 0;

    // Worker handshake: generation-counted barrier. All lane state is
    // handed between the coordinator and workers through mu_, so every
    // phase transition is a happens-before edge (ThreadSanitizer-clean
    // by construction, not by annotation).
    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable cvWork_;
    std::condition_variable cvDone_;
    std::uint64_t gen_ = 0;
    unsigned pending_ = 0;
    EventKey bound_{};
    bool shutdown_ = false;
};

} // namespace mempod
