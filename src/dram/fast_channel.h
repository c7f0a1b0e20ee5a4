/**
 * @file
 * FastChannel: the degenerate fast memory model — a fixed per-tier
 * service latency plus a bandwidth-capped queue, no bank state
 * (SimpleDram-style). One completion event per request instead of the
 * detailed controller's tick/arbitration cascade, so a fast-tier line
 * costs one event where the detailed model spends roughly ten.
 *
 * Model:
 *   issue  = max(now, data-bus free)       (bandwidth cap: one burst
 *   busFree = issue + tBL                   every tBL picoseconds)
 *   finish = issue + tRCD + tCL + tBL + extra_latency
 *
 * The service latency folds the average row activation in (every
 * access pays tRCD, none pays tRP), which keeps the constant within
 * the detailed model's hit/miss envelope without tracking rows. The
 * completion delta is always >= tRCD + tCL + tBL + extra, which
 * dominates the PDES lookahead bound (min(tCL, tCWL) + tBL + extra),
 * so the fast model is safe under any shard count.
 *
 * Statistics: reads/writes, bus occupancy, demand queue-wait/service
 * attribution and queue depth are maintained with the same meanings
 * as the detailed controller; bank-level counters (row hits, ACT/PRE,
 * refresh) stay zero because the model has no such state.
 *
 * dram.model=fast makes it the measured model of every channel; in a
 * sampled run its measurement windows alternate with the functional
 * warm model's fast-forward windows, as the detailed model's do.
 */
#pragma once

#include <cstdint>
#include <string>

#include "common/event_queue.h"
#include "common/slab.h"
#include "common/types.h"
#include "dram/memory_model.h"
#include "dram/spec.h"
#include "dram/telemetry.h"
#include "mem/request.h"

namespace mempod {

/** Fixed-latency, bandwidth-capped memory model for one channel. */
class FastChannel final : public MemoryModel
{
  public:
    /**
     * @param eq Event queue hosting this channel's completions.
     * @param spec Device description; only tRCD/tCL/tBL are read.
     * @param name For diagnostics and telemetry ("fast0", ...).
     * @param extra_latency_ps Fixed interconnect latency added to
     *        every completion, as in the detailed controller.
     * @param in_flight The memory system's in-flight line count.
     */
    FastChannel(EventQueue &eq, const DramSpec &spec, std::string name,
                TimePs extra_latency_ps = 5000,
                std::uint64_t *in_flight = nullptr);

    void enqueue(Request req, ChannelAddr where) override;

    /** Requests accepted whose completion has not fired yet. */
    std::size_t
    queued() const
    {
        return static_cast<std::size_t>(stats_.queuedNow);
    }

    const ChannelStats &stats() const override { return stats_; }
    const DramSpec &spec() const override { return spec_; }
    const std::string &name() const override { return name_; }

    ChannelTelemetry telemetry() const override;

    const ChannelHostStats &hostStats() const override
    {
        return hostStats_;
    }

    /** The model's fixed request service latency. */
    TimePs servicePs() const { return servicePs_; }

  private:
    EventQueue &eq_;
    DramSpec spec_;
    std::string name_;

    TimePs servicePs_ = 0; //!< tRCD + tCL + tBL + extra latency
    TimePs burstPs_ = 0;   //!< data-bus occupancy per request (tBL)
    TimePs busFreeAt_ = 0; //!< bandwidth cap: next issue opportunity

    /** Each request's completion handle until its completion event. */
    Slab<Completion> slots_;

    ChannelStats stats_;
    ChannelHostStats hostStats_; //!< all zero: no ticks, no arbiter
};

} // namespace mempod
