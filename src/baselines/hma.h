/**
 * @file
 * HMA baseline (Meswani et al., HPCA 2015): a HW/SW mechanism with one
 * full counter per page, OS-driven any-to-any migration at very large
 * epochs, and a fixed sorting penalty that freezes memory intake at
 * every epoch boundary (the paper models 7 ms after generously
 * discounting a measured 1.95 s quicksort). HMA needs no remap table
 * at runtime — the OS rewrites page tables — so lookups are free, but
 * its counters are large (16 bits x every page = 9 MB) and its epochs
 * 2000x longer than MemPod's.
 */
#pragma once

#include <cstdint>
#include <functional>

#include "common/event_queue.h"
#include "core/migration_engine.h"
#include "core/remap_table.h"
#include "core/swap_guard.h"
#include "mem/manager.h"
#include "mem/memory_system.h"
#include "sim/mechanism_params.h"
#include "sim/metadata_path.h"
#include "tracking/full_counters.h"

#include <optional>

namespace mempod {

/** Full-counter, OS-epoch migration manager. */
class HmaManager : public MemoryManager
{
  public:
    HmaManager(EventQueue &eq, MemorySystem &mem, const HmaParams &params);

    void handleDemand(Demand d) override;

    void start() override;

    std::string name() const override { return "HMA"; }

    const MigrationStats &migrationStats() const override
    {
        return mstats_;
    }

    std::uint64_t pendingWork() const override;

    /**
     * Committed swaps must match the engine's commit count; with
     * `paranoid`, additionally verify the OS placement view is still
     * a permutation. Panics on violation.
     */
    void validateInvariants(bool paranoid) const override;

    void
    registerMetrics(MetricRegistry &reg) override
    {
        MemoryManager::registerMetrics(reg);
        engine_.registerMetrics(reg, "hma.engine");
        if (metaPath_)
            metaPath_->registerMetrics(reg, "hma.meta_cache");
        reg.addGauge("hma.placement.occupied_fast_slots",
                     "fast slots holding a page other than their home",
                     [this] {
                         return static_cast<double>(
                             placement_.occupiedFastSlots());
                     });
        reg.addGauge("hma.placement.occupancy",
                     "fraction of fast slots holding a migrated page",
                     [this] { return placement_.fastOccupancy(); });
    }

    /** Receives the sort *duration* each epoch (core freeze). */
    void setCoreStallHook(std::function<void(TimePs)> hook) override
    {
        stallHook_ = std::move(hook);
    }

    const FullCounters &counters() const { return counters_; }
    const RemapTable &placement() const { return placement_; }
    const MigrationEngine &engine() const { return engine_; }
    const SwapGuard &guard() const { return guard_; }
    const HmaParams &params() const { return params_; }

    /** Modeled tracking storage (Table 1): 16 bits per page. */
    std::uint64_t trackingStorageBits() const
    {
        return counters_.storageBits();
    }

  private:
    void onInterval();
    void issueToCurrentLocation(Demand d);

    /** Count/park/issue; stage after any counter-cache fill. */
    void proceed(Demand d);

    EventQueue &eq_;
    MemorySystem &mem_;
    HmaParams params_;
    FullCounters counters_;
    RemapTable placement_; //!< models the OS page-table view
    MigrationEngine engine_;
    SwapGuard guard_; //!< pages under a scheduled swap
    std::optional<MetadataPath> metaPath_;
    std::function<void(TimePs)> stallHook_;
    PeriodicTimer epochTimer_;
};

} // namespace mempod
