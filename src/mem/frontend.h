/**
 * @file
 * Trace-replay frontend approximating Ramulator's simple CPU model:
 * requests enter the memory system at their trace timestamps, subject
 * to an MSHR-style cap on outstanding misses (resource-induced
 * stalls), and an intake freeze hook used to model HMA's sorting
 * penalty. AMMAT is accumulated here with a fixed denominator equal to
 * the original trace length.
 */
#pragma once

#include <cstdint>

#include "common/event_queue.h"
#include "common/metrics.h"
#include "common/slab.h"
#include "common/stats.h"
#include "common/tracer.h"
#include "mem/address_map.h"
#include "mem/manager.h"
#include "trace/record.h"
#include "trace/source.h"

namespace mempod {

/** Replays a trace stream through a MemoryManager. */
class TraceFrontend final : private Completer
{
  public:
    /**
     * @param eq Global event queue.
     * @param manager Mechanism under test.
     * @param placement OS allocation stand-in (core-local -> physical).
     * @param max_outstanding MSHR-style cap on in-flight demands.
     */
    TraceFrontend(EventQueue &eq, MemoryManager &manager,
                  const LogicalToPhysical &placement,
                  std::uint32_t max_outstanding = 64);

    /**
     * Provide the record stream (kept by reference; must outlive the
     * run). The frontend holds a one-record lookahead, so a streaming
     * source replays in O(1) memory. Resets the source and primes the
     * lookahead.
     */
    void setSource(TraceSource &source);

    /** Schedule the first arrival. */
    void start();

    /** Freeze intake until `until` (HMA sort stall). */
    void stallUntil(TimePs until);

    /**
     * Fast-forward mode (sampled simulation): demands keep flowing —
     * every tracker, remap table and decision ledger downstream stays
     * warm, and completed_/per-core issue counters still advance — but
     * stall-time, MSHR-wait and latency-histogram accounting is
     * suppressed, so measurement-window deltas are untouched by
     * warm-up traffic. Because the functional warm model completes
     * instantly, the pump also admits future-timestamped records
     * early, bounded by the next scheduled event, collapsing
     * per-record pump events into one sweep per window/timer
     * boundary. Record-index tracer sampling is fidelity-independent,
     * so the set of traced demand ids matches a detailed replay
     * either way.
     */
    void setFastForward(bool on) { fastForward_ = on; }

    /** True while in a fast-forward window. */
    bool fastForward() const { return fastForward_; }

    /**
     * Suspend the cores for `duration` (HMA's OS sorting interrupt):
     * no requests are issued meanwhile and the remaining trace shifts
     * later by `duration`, so the pause does not masquerade as memory
     * stall time — the cost of the long epoch is the *stale placement*
     * it forces, exactly as in the paper's evaluation.
     */
    void suspendCores(TimePs duration);

    /** All records admitted and completed. */
    bool done() const;

    /** Demand requests admitted but not yet completed. */
    std::uint32_t outstanding() const { return outstanding_; }

    /** Total memory stall time over all completed demands (ps). */
    double totalStallPs() const { return totalStallPs_; }

    /** Summed admission delay behind the MSHR cap / intake stalls. */
    std::uint64_t mshrWaitPs() const { return mshrWaitPs_; }

    /** AMMAT in picoseconds: total stall / original trace length. */
    double ammatPs() const;

    /** Per-request latency distribution. */
    const Log2Histogram &latencyHistogramNs() const { return latencyNs_; }

    std::uint64_t completed() const { return completed_; }

    /** Demand requests admitted so far. */
    std::uint64_t issued() const { return issued_; }

    /** Per-core AMMAT in picoseconds (index = core id). */
    std::vector<double> perCoreAmmatPs() const;

    /** Cores that issued at least one request so far. */
    std::size_t coresSeen() const { return perCore_.size(); }

    /**
     * Register frontend instruments under "frontend.*" and per-core
     * issued/completed/stall/AMMAT under "core<i>.*" for cores
     * [0, num_cores).
     */
    void registerMetrics(MetricRegistry &reg,
                         std::uint32_t num_cores) const;

  private:
    /** What a demand's completion needs, parked while it is in flight. */
    struct InFlight
    {
        TimePs arrival = 0;
        std::uint64_t traceId = 0;
        std::uint8_t core = 0;
        bool ff = false; //!< admitted during fast-forward
    };

    void pump();
    void schedulePump(TimePs when);
    /** Account one demand's completion; `ref` indexes inFlight_. */
    void complete(std::uint32_t ref, TimePs fin) override;

    /** Tracer track for a core's demand spans ("core<i>"). */
    static std::uint32_t coreTrack(Tracer &tr, std::uint8_t core);

    EventQueue &eq_;
    MemoryManager &manager_;
    const LogicalToPhysical &placement_;
    TraceSource *source_ = nullptr;
    std::uint64_t totalRecords_ = 0;

    /** One-record lookahead: the next record to admit, if any. */
    TraceRecord head_;
    bool headValid_ = false;

    std::uint32_t maxOutstanding_;
    bool fastForward_ = false;
    bool inPump_ = false; //!< guards against pump reentry on instant completion
    std::uint32_t outstanding_ = 0;
    /** In-flight demands (at most maxOutstanding_); refs index it. */
    Slab<InFlight> inFlight_;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
    TimePs stalledUntil_ = 0;
    TimePs timeShift_ = 0; //!< accumulated core-suspension time
    TimePs pumpScheduledAt_ = kTimeNever;

    double totalStallPs_ = 0.0;
    std::uint64_t mshrWaitPs_ = 0; //!< attribution: admit - arrival
    Log2Histogram latencyNs_;

    struct PerCore
    {
        double stallPs = 0.0;
        std::uint64_t requests = 0;
        std::uint64_t completed = 0;
        Log2Histogram latencyNs;
    };
    std::vector<PerCore> perCore_;
};

} // namespace mempod
