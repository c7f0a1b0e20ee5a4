/**
 * @file
 * FunctionalModel: the zero-latency, zero-event warm model of sampled
 * runs. Every request completes synchronously inside enqueue() — the
 * line leaves the memory system's in-flight count and its owner
 * completes at the current simulated time before enqueue() returns,
 * and nothing is ever scheduled.
 *
 * This is what makes SMARTS-style fast-forward windows cheap: the
 * whole policy stack (MEA trackers, remap tables, epoch timers, the
 * decision ledger) sees the full demand and migration stream, while
 * the memory system costs a couple of counter increments per line
 * instead of an event cascade. It observes no stall time, so it is
 * never a measurement model: dram.model has no spelling for it.
 *
 * Serial-kernel only: synchronous completion would run manager and
 * frontend code on a shard worker under the PDES executor, so the
 * Simulation refuses to combine sampling with sim.shards > 0.
 */
#pragma once

#include <cstdint>
#include <string>

#include "common/event_queue.h"
#include "common/types.h"
#include "dram/memory_model.h"
#include "dram/spec.h"
#include "dram/telemetry.h"
#include "mem/request.h"

namespace mempod {

/** Instant-completion memory model for one channel. */
class FunctionalModel final : public MemoryModel
{
  public:
    FunctionalModel(EventQueue &eq, const DramSpec &spec,
                    std::string name, std::uint64_t *in_flight = nullptr)
        : MemoryModel(in_flight),
          eq_(eq),
          spec_(spec),
          name_(std::move(name))
    {
    }

    void enqueue(Request req, ChannelAddr where) override;

    const ChannelStats &stats() const override { return stats_; }
    const DramSpec &spec() const override { return spec_; }
    const std::string &name() const override { return name_; }

    ChannelTelemetry telemetry() const override;

    const ChannelHostStats &hostStats() const override
    {
        return hostStats_;
    }

  private:
    EventQueue &eq_;
    DramSpec spec_;
    std::string name_;

    ChannelStats stats_;         //!< only reads/writes ever move
    ChannelHostStats hostStats_; //!< all zero
};

} // namespace mempod
