/**
 * @file
 * One memory Pod (Figure 5): the MEA activity-tracking unit, the
 * per-Pod remap table with its inverted fast-slot view, the request
 * forwarding path, and the Pod-local migration driver. Pods operate
 * fully independently; migrations never cross Pod boundaries.
 */
#pragma once

#include <cstdint>
#include <optional>

#include "common/event_queue.h"
#include "core/migration_engine.h"
#include "core/remap_table.h"
#include "core/swap_guard.h"
#include "mem/manager.h"
#include "mem/memory_system.h"
#include "sim/mechanism_params.h"
#include "sim/metadata_path.h"
#include "tracking/mea.h"

namespace mempod {

/** A Pod: clustered MCs with private migration machinery. */
class Pod
{
  public:
    Pod(std::uint32_t id, EventQueue &eq, MemorySystem &mem,
        const PodParams &params);

    /** Forward one demand access whose home page belongs to this Pod. */
    void handleDemand(Demand d);

    /** Interval boundary: pick hot pages and schedule migrations. */
    void onInterval();

    /**
     * Pod-level conservation laws: committed swaps must match the
     * engine's commit count; with `paranoid`, additionally verify the
     * remap table is still a permutation. Panics on violation.
     */
    void validateInvariants(bool paranoid) const;

    std::uint32_t id() const { return id_; }
    MeaTracker &mea() { return mea_; }
    const RemapTable &remap() const { return remap_; }
    const MigrationEngine &engine() const { return engine_; }
    const SwapGuard &guard() const { return guard_; }
    const MigrationStats &stats() const { return stats_; }
    const MetadataPath *metaPath() const
    {
        return metaPath_ ? &*metaPath_ : nullptr;
    }

    /** Parked demands + queued/active migration work. */
    std::uint64_t pendingWork() const;

    /** Register this Pod's instruments under "pod<id>.*". */
    void registerMetrics(MetricRegistry &reg) const;

    /** Modeled hardware cost of this Pod's structures, in bits. */
    std::uint64_t trackingStorageBits() const
    {
        return mea_.storageBits();
    }
    std::uint64_t remapStorageBits() const
    {
        return remap_.storageBitsRemap();
    }

  private:
    /** Stage 2: after any metadata-cache fill, check migration locks. */
    void proceed(std::uint64_t local, Demand d);

    /** Stage 3: translate through the remap table and dispatch. */
    void issueToCurrentLocation(std::uint64_t local, Demand d);

    /** Physical byte address of a pod-local slot. */
    Addr addrOfSlot(std::uint64_t slot) const;

    /** Backing-store address of a metadata block (in fast memory). */
    Addr backingAddrOfBlock(std::uint64_t block) const;

    void scheduleSwap(std::uint64_t hot_local,
                      std::uint64_t victim_resident,
                      std::uint32_t tracker_count);

    std::uint32_t id_;
    EventQueue &eq_;
    MemorySystem &mem_;
    PodParams params_;
    MeaTracker mea_;
    RemapTable remap_;
    MigrationEngine engine_;
    std::optional<MetadataPath> metaPath_;
    MigrationStats stats_;
    SwapGuard guard_; //!< pod-local pages under a scheduled swap
};

} // namespace mempod
