/**
 * @file
 * THM baseline (Sim et al., MICRO-47): transparent hardware management
 * with migrations restricted to *segments* — one fast page plus N slow
 * pages (N = slow:fast capacity ratio). A per-segment competing
 * counter triggers a threshold-based swap of the winning slow page
 * with the current fast-resident page. Cheap bookkeeping, limited
 * flexibility: at most one hot page per segment can live in fast
 * memory, and unlucky counter races admit cold pages (false
 * positives) — the tradeoffs Table 1 of the paper records.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/divisor.h"
#include "common/event_queue.h"
#include "common/flat_map.h"
#include "core/migration_engine.h"
#include "core/swap_guard.h"
#include "mem/manager.h"
#include "mem/memory_system.h"
#include "sim/mechanism_params.h"
#include "sim/metadata_path.h"
#include "tracking/competing_counter.h"

namespace mempod {

/** Segment-restricted threshold-triggered migration manager. */
class ThmManager : public MemoryManager
{
  public:
    ThmManager(EventQueue &eq, MemorySystem &mem, const ThmParams &params);

    void handleDemand(Demand d) override;

    std::string name() const override { return "THM"; }

    std::uint64_t pendingWork() const override;

    /**
     * Committed swaps must match the engine's commit count; with
     * `paranoid`, additionally verify every segment's member->slot
     * table is still a permutation. Panics on violation.
     */
    void validateInvariants(bool paranoid) const override;

    void
    registerMetrics(MetricRegistry &reg) override
    {
        MemoryManager::registerMetrics(reg);
        engine_.registerMetrics(reg, "thm.engine");
        if (metaPath_)
            metaPath_->registerMetrics(reg, "thm.meta_cache");
        reg.addGauge("thm.segments_allocated",
                     "segments with live counter/remap state", [this] {
                         return static_cast<double>(segs_.size());
                     });
    }

    std::uint64_t numSegments() const { return numSegments_; }
    std::uint64_t slowPerSegment() const { return ratio_; }

    /** Modeled tracking storage (Table 1): 8 bits per segment. */
    std::uint64_t trackingStorageBits() const
    {
        return numSegments_ * params_.counterBits;
    }

    /** Modeled remap storage: one fast-slot pointer per segment. */
    std::uint64_t remapStorageBits() const;

    /** Current fast-resident member of a segment (0 = original). */
    std::uint32_t fastResidentMember(std::uint64_t seg) const;

    const MigrationEngine &engine() const { return engine_; }
    const ThmParams &params() const { return params_; }

  private:
    /** Per-segment migration state, allocated on first touch. */
    struct SegState
    {
        CompetingCounter cc;
        std::vector<std::uint8_t> slotOf; //!< member -> slot (0 = fast)
    };

    /**
     * The segment's state, allocated on first touch. The reference
     * lasts until the next first touch (see flat_map.h).
     */
    SegState &segState(std::uint64_t seg);

    /** (segment, member) of a home page; member 0 is the fast page. */
    std::pair<std::uint64_t, std::uint32_t> segmentOf(PageId page) const;

    /** Home page of (segment, slot). */
    PageId pageAt(std::uint64_t seg, std::uint32_t slot) const;

    void proceed(Demand d);
    void issueAt(std::uint64_t seg, std::uint32_t slot, Demand d);
    void scheduleSwap(std::uint64_t seg, std::uint32_t member);

    EventQueue &eq_;
    MemorySystem &mem_;
    ThmParams params_;
    std::uint64_t ratio_;
    Divisor ratioDiv_; //!< ratio_, for segmentOf on every demand
    std::uint64_t numSegments_;
    FlatMap<SegState> segs_; //!< segment -> its state
    MigrationEngine engine_;
    SwapGuard guard_; //!< segments under a scheduled swap
    std::optional<MetadataPath> metaPath_;
};

} // namespace mempod
