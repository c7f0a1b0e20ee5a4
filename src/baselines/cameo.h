/**
 * @file
 * CAMEO baseline (Chou, Jaleel, Qureshi, MICRO-47): cache-line (64 B)
 * granularity flat-space management. Lines form congruence groups of
 * one fast line plus N slow lines; *every* access to a slow line
 * triggers an immediate swap with the group's fast line (event-based
 * trigger, no activity tracking). Line-location state is packed per
 * group; swaps move 2 x 64 B. At high slow:fast ratios the groups
 * thrash — the pathology Figure 8 of the paper shows as a 41% AMMAT
 * degradation.
 */
#pragma once

#include <cstdint>

#include "common/divisor.h"
#include "common/event_queue.h"
#include "common/flat_map.h"
#include "core/migration_engine.h"
#include "core/swap_guard.h"
#include "mem/manager.h"
#include "mem/memory_system.h"
#include "sim/mechanism_params.h"

namespace mempod {

/** Line-granularity swap-on-access migration manager. */
class CameoManager : public MemoryManager
{
  public:
    CameoManager(EventQueue &eq, MemorySystem &mem,
                 const CameoParams &params);

    void handleDemand(Demand d) override;

    std::string name() const override { return "CAMEO"; }

    std::uint64_t pendingWork() const override;

    /**
     * Committed swaps must match the engine's commit count; with
     * `paranoid`, additionally verify every group's packed slot state
     * is still a permutation. Panics on violation.
     */
    void validateInvariants(bool paranoid) const override;

    void
    registerMetrics(MetricRegistry &reg) override
    {
        MemoryManager::registerMetrics(reg);
        engine_.registerMetrics(reg, "cameo.engine");
        reg.attachCounter("cameo.swaps_skipped",
                          "swaps skipped by the queued-swap bound",
                          &swapsSkipped_);
        reg.addGauge("cameo.groups_allocated",
                     "congruence groups with live location state",
                     [this] {
                         return static_cast<double>(groups_.size());
                     });
    }

    std::uint64_t numGroups() const { return fastLines_; }
    std::uint64_t slowPerGroup() const { return ratio_; }

    /** Swaps skipped due to the queued-swap bound. */
    std::uint64_t swapsSkipped() const { return swapsSkipped_; }

    /** Line-location-table storage (Table 1): one entry per line. */
    std::uint64_t remapStorageBits() const;

    /** Current slot of `member` within `group` (0 = fast). */
    std::uint32_t slotOfMember(std::uint64_t group,
                               std::uint32_t member) const;

    const MigrationEngine &engine() const { return engine_; }

  private:
    /**
     * Per-group location state packed in a word: 4 bits per member
     * (slot index), plus "fast line used since last swap" and "group
     * ever migrated" flags for wasted-migration accounting.
     */
    static constexpr std::uint64_t kUsedFlag = 1ull << 62;
    static constexpr std::uint64_t kMigratedFlag = 1ull << 63;

    std::uint64_t identityState() const;
    /**
     * The group's packed state, allocated on first touch. The reference
     * lasts until the next first touch (see flat_map.h).
     */
    std::uint64_t &groupState(std::uint64_t group);

    static std::uint32_t
    unpackSlot(std::uint64_t state, std::uint32_t member)
    {
        return (state >> (4 * member)) & 0xF;
    }
    static void
    packSlot(std::uint64_t &state, std::uint32_t member,
             std::uint32_t slot)
    {
        state &= ~(0xFull << (4 * member));
        state |= static_cast<std::uint64_t>(slot & 0xF) << (4 * member);
    }

    /** (group, member) of a home line; member 0 is the fast line. */
    std::pair<std::uint64_t, std::uint32_t> groupOf(LineId line) const;

    /** Home line of (group, slot). */
    LineId lineAt(std::uint64_t group, std::uint32_t slot) const;

    void proceed(Demand d);
    void scheduleSwap(std::uint64_t group, std::uint32_t member);

    EventQueue &eq_;
    MemorySystem &mem_;
    CameoParams params_;
    std::uint64_t fastLines_;
    std::uint64_t ratio_;
    Divisor ratioDiv_; //!< ratio_, for groupOf on every demand
    FlatMap<std::uint64_t> groups_; //!< group -> packed state
    MigrationEngine engine_;
    SwapGuard guard_; //!< line groups under a scheduled swap
    std::uint64_t swapsSkipped_ = 0;
};

} // namespace mempod
