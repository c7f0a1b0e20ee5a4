/**
 * @file
 * The migration driver/datapath (Section 4.4): executes page (or
 * line) swaps by issuing the full read/write traffic through the
 * normal memory controllers — for a 2 KB page, 32 reads of each
 * migration candidate followed by 32 write-backs of each, exactly as
 * the paper models it. Swap ops run with configurable parallelism
 * (MemPod: one engine per Pod; HMA/THM: one centralized engine;
 * CAMEO: per-channel concurrency).
 *
 * Each op names its owner and the owner's key for it; the engine
 * tells the owner when the op starts moving data and when it commits
 * or is dropped (SwapOwner). Ops hold plain data only: queued ops
 * copy as bytes, and line requests carry an {engine, op} completion
 * handle.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/event_queue.h"
#include "common/metrics.h"
#include "common/slab.h"
#include "common/types.h"
#include "mem/memory_system.h"
#include "mem/request.h"

namespace mempod {

/**
 * Whoever submitted a swap and is told how it goes. The set is
 * closed: each mechanism's SwapGuard. `key` is the owner's own name
 * for the swap.
 */
class SwapOwner
{
  public:
    /**
     * The engine begins moving the swap's data. Demand blocking must
     * begin here, not at scheduling time: a queued candidate is still
     * serviceable at its old location until its swap actually starts.
     */
    virtual void start(std::uint64_t key) = 0;

    /** The swap is durable (`committed`) or was dropped unstarted. */
    virtual void finish(std::uint64_t key, bool committed) = 0;

  protected:
    SwapOwner() = default;
    ~SwapOwner() = default;
    // Every queued op holds the owner's address: owners stay put.
    SwapOwner(const SwapOwner &) = delete;
    SwapOwner &operator=(const SwapOwner &) = delete;
};

/** Executes queued page/line swaps through the memory system. */
class MigrationEngine final : private Completer
{
  public:
    /** One swap between the data at two physical locations. */
    struct SwapOp
    {
        Addr locA = 0;           //!< first page/line physical base
        Addr locB = 0;           //!< second page/line physical base
        std::uint32_t lines = 0; //!< line transfers per side
        SwapOwner *owner = nullptr; //!< told of start and finish
        std::uint64_t key = 0;      //!< the owner's name for the swap
        /** Migration-lifecycle flow id (0 = not traced). */
        std::uint64_t traceId = 0;
    };

    struct Stats
    {
        std::uint64_t opsCommitted = 0;
        std::uint64_t opsDropped = 0; //!< cleared before starting
        std::uint64_t linesMoved = 0;
        std::uint64_t bytesMoved = 0;
    };

    /**
     * @param trace_track Tracer track name for this engine's swap
     *        spans ("pod0.engine", "hma.engine", ...).
     */
    MigrationEngine(EventQueue &eq, MemorySystem &mem,
                    std::uint32_t max_in_flight_ops = 1,
                    std::string trace_track = "engine");

    /** Queue a swap (its owner must be set); starts immediately if a
     *  slot is free. */
    void submit(SwapOp op);

    /** Drop ops not yet started (stale candidates at a new interval). */
    void clearQueued();

    std::size_t queuedOps() const { return queue_.size(); }
    std::uint32_t activeOps() const { return active_; }
    bool busy() const { return active_ > 0 || !queue_.empty(); }

    const Stats &stats() const { return stats_; }

    /** Register op/traffic counters and queue gauges under `prefix`. */
    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const;

  private:
    /**
     * A started swap, held in the ops_ slab; each line request's
     * completion handle names it by slab index.
     */
    struct OpState
    {
        SwapOp op;
        std::uint32_t linesLeft = 0; //!< of the current phase
        bool writing = false;
    };

    void tryStart();
    void run(SwapOp op);
    /** Issue one phase: every line of both sides, reads or writes. */
    void issuePhase(std::uint32_t ref);
    /** One line of op `ref` finished. */
    void complete(std::uint32_t ref, TimePs finish) override;
    void finish(std::uint32_t ref);

    EventQueue &eq_;
    MemorySystem &mem_;
    std::uint32_t maxInFlight_;
    std::string traceTrack_;
    std::uint32_t active_ = 0;
    std::deque<SwapOp> queue_;
    Slab<OpState> ops_; //!< started ops; indices are completion refs
    Stats stats_;
};

} // namespace mempod
