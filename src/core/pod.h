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
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/event_queue.h"
#include "core/migration_engine.h"
#include "core/remap_table.h"
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

    /**
     * Forward one demand access whose home page belongs to this Pod.
     * @param home_page Global page id of the OS-assigned home.
     * @param offset_in_page Byte offset of the line within the page.
     * @param d The demand (d.homeAddr is already decomposed into the
     *        first two parameters; only the remaining fields matter).
     */
    void handleDemand(PageId home_page, std::uint64_t offset_in_page,
                      Demand d);

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
    const MigrationStats &stats() const { return stats_; }
    const MetadataPath *metaPath() const
    {
        return metaPath_ ? &*metaPath_ : nullptr;
    }

    /** Blocked demands + queued/active migration work. */
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
    struct BlockedReq
    {
        std::uint64_t offset;
        AccessType type;
        TimePs arrival;
        std::uint8_t core;
        std::uint64_t traceId; //!< 0 = request not sampled
        TimePs parkedAt;       //!< when a swap lock parked it
        MemoryManager::CompletionFn done;
    };

    /** Stage 2: after any metadata-cache fill, check migration locks. */
    void proceed(std::uint64_t local, BlockedReq r);

    /** Stage 3: translate through the remap table and dispatch. */
    void issueToCurrentLocation(std::uint64_t local, BlockedReq r);

    /** Physical byte address of a pod-local slot. */
    Addr addrOfSlot(std::uint64_t slot) const;

    /** Backing-store address of a metadata block (in fast memory). */
    Addr backingAddrOfBlock(std::uint64_t block) const;

    std::uint64_t findVictimSlot(
        const std::unordered_set<std::uint64_t> &hot_set);

    void scheduleSwap(std::uint64_t hot_local,
                      std::uint64_t victim_resident,
                      std::uint32_t tracker_count);

    void unlockAndDrain(std::uint64_t local);

    /** Tracer track for this Pod's lifecycle events ("pod<id>"). */
    std::uint32_t podTrack(Tracer &tr) const;

    static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

    std::uint32_t id_;
    EventQueue &eq_;
    MemorySystem &mem_;
    PodParams params_;
    MeaTracker mea_;
    RemapTable remap_;
    MigrationEngine engine_;
    std::optional<MetadataPath> metaPath_;

    std::uint64_t victimScan_ = 0; //!< rotating fast-slot pointer
    /** Pages with a scheduled or active swap (candidate exclusion). */
    std::unordered_set<std::uint64_t> migrating_;
    /** Pages whose swap has *started* (demands must block). */
    std::unordered_set<std::uint64_t> locked_;
    std::unordered_map<std::uint64_t, std::vector<BlockedReq>> blocked_;
    std::uint64_t blockedCount_ = 0;

    MigrationStats stats_;
};

} // namespace mempod
