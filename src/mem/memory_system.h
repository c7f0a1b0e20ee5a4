/**
 * @file
 * The physical memory system: all fast + slow channels behind one
 * decode/dispatch facade. Managers direct post-remap physical
 * addresses here; the MemorySystem decodes them, tracks tier/kind
 * statistics and forwards to the owning channel's memory model: its
 * measured model, or during a sampled run's fast-forward windows its
 * functional warm model.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "common/metrics.h"
#include "dram/channel.h"
#include "dram/functional_model.h"
#include "dram/memory_model.h"
#include "dram/telemetry.h"
#include "mem/address_map.h"
#include "mem/request.h"

namespace mempod {

/**
 * Sharded-run wiring for the memory system. `channelQueues[i]` hosts
 * channel i's controller events (its own timing wheel under the PDES
 * executor) and `dispatch` replaces the synchronous enqueue in
 * access() with a deferred hand-off the executor applies in canonical
 * event order. Both referents must outlive the MemorySystem. The
 * serial simulation passes no plan and behaves exactly as before.
 */
struct ShardPlan
{
    std::vector<EventQueue *> channelQueues;
    std::function<void(std::size_t ch, Request req, ChannelAddr where)>
        dispatch;
};

/** All channels of the two-level memory plus shared statistics. */
class MemorySystem
{
  public:
    struct Stats
    {
        std::uint64_t demandFast = 0; //!< demand lines served by HBM
        std::uint64_t demandSlow = 0;
        std::uint64_t migrationFast = 0; //!< migration lines on HBM
        std::uint64_t migrationSlow = 0;
        std::uint64_t bookkeepingFast = 0;
        std::uint64_t bookkeepingSlow = 0;

        std::uint64_t
        migrationLines() const
        {
            return migrationFast + migrationSlow;
        }
        std::uint64_t
        bookkeepingLines() const
        {
            return bookkeepingFast + bookkeepingSlow;
        }
        std::uint64_t
        linesByKindTier(Request::Kind kind, MemTier tier) const;
    };

    /**
     * @param measured Every channel's measured model (dram.model); it
     *        owns the channel's base telemetry name.
     * @param sampled Also build one functional warm model per channel
     *        (named "<base>.warm") for setWarm(). Unsampled systems
     *        build exactly one model per channel.
     */
    MemorySystem(EventQueue &eq, const SystemGeometry &geom,
                 const DramSpec &fast, const DramSpec &slow,
                 TimePs extra_latency_ps = 5000,
                 ControllerPolicy policy = {},
                 const ShardPlan *plan = nullptr,
                 DramModel measured = DramModel::kDetailed,
                 bool sampled = false);

    // Every model holds the address of inFlight_: the system stays put.
    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /** Dispatch one line transfer at a physical address. */
    void access(Request req);

    const AddressMap &map() const { return map_; }
    const SystemGeometry &geom() const { return map_.geom(); }

    std::size_t numChannels() const { return measured_.size(); }
    /** Channel i's measured model. */
    MemoryModel &channel(std::size_t i) { return *measured_[i]; }
    const MemoryModel &
    channel(std::size_t i) const
    {
        return *measured_[i];
    }

    /**
     * Route subsequent enqueues to the warm models (`on`) or back to
     * the measured ones, which first forgive the time they sat idle
     * (MemoryModel::resumeAt). Requests already accepted finish under
     * the model that accepted them. Panics turning warm on in a
     * system built unsampled.
     */
    void setWarm(bool on);

    /** Line transfers dispatched but not yet completed. */
    std::uint64_t inFlight() const { return inFlight_; }

    const Stats &stats() const { return stats_; }

    /**
     * Read-only per-channel telemetry views, one per channel in
     * channel order. Captured once at construction; the counters
     * behind the pointers stay live for the system's lifetime.
     */
    const std::vector<ChannelTelemetry> &
    telemetry() const
    {
        return views_;
    }

    /** Aggregate row-buffer hit rate over one tier's channels. */
    double rowHitRate(MemTier tier) const;

    /** Aggregate row-buffer hit rate over all channels. */
    double rowHitRate() const;

    /** Aggregate CAS row hits / misses over one tier's channels. */
    std::uint64_t rowHits(MemTier tier) const;
    std::uint64_t rowMisses(MemTier tier) const;

    /**
     * Register tier aggregates under "mem.*" plus every channel (and
     * bank) under "mem.<channel-name>.*".
     */
    void registerMetrics(MetricRegistry &reg) const;

  private:
    /** Register one channel's instruments from its telemetry view. */
    void registerChannelMetrics(MetricRegistry &reg,
                                const std::string &prefix,
                                const ChannelTelemetry &v) const;

    EventQueue &eq_;
    AddressMap map_;
    std::function<void(std::size_t, Request, ChannelAddr)> dispatch_;
    std::vector<std::unique_ptr<MemoryModel>> measured_;
    /** One per channel on sampled systems, empty otherwise. */
    std::vector<std::unique_ptr<FunctionalModel>> warmModels_;
    std::vector<ChannelTelemetry> views_;
    bool warm_ = false;
    std::uint64_t inFlight_ = 0;
    Stats stats_;
};

} // namespace mempod
