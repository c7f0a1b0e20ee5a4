/**
 * @file
 * FunctionalModel: the zero-latency, zero-event warming model. Every
 * request completes synchronously inside enqueue() — the completion
 * hook and the request's owner complete at the current simulated
 * time before enqueue() returns, and nothing is ever scheduled.
 *
 * This is what makes SMARTS-style fast-forward windows cheap: the
 * whole policy stack (MEA trackers, remap tables, epoch timers, the
 * decision ledger) sees the full demand and migration stream, while
 * the memory system costs a couple of counter increments per line
 * instead of an event cascade.
 *
 * Serial-kernel only: synchronous completion would run manager and
 * frontend code on a shard worker under the PDES executor, so the
 * Simulation refuses to combine this model with sim.shards > 0.
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
                    std::string name)
        : eq_(eq), spec_(spec), name_(std::move(name))
    {
    }

    FunctionalModel(const FunctionalModel &) = delete;
    FunctionalModel &operator=(const FunctionalModel &) = delete;

    void enqueue(Request req, ChannelAddr where) override;

    void
    setCompletionHook(std::function<void(TimePs)> hook) override
    {
        completionHook_ = std::move(hook);
    }

    /** Nothing ever stays queued: completion is synchronous. */
    std::size_t queued() const override { return 0; }
    bool idle() const override { return true; }

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
    std::function<void(TimePs)> completionHook_;

    ChannelStats stats_;         //!< only reads/writes ever move
    ChannelHostStats hostStats_; //!< all zero
};

} // namespace mempod
