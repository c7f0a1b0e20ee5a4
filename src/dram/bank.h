/**
 * @file
 * Struct-of-arrays DRAM bank timing state. One BankStateArray holds
 * every bank of a channel: open rows, the next-ready time of each
 * command class per bank, and the per-rank activation windows (tRRD
 * and the rolling four-ACT tFAW window). Command legality and the
 * ready-time bumps come from the precomputed CommandTimingTable, so
 * issuing a command is table-lookup max-folding, never per-command
 * arithmetic.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "dram/spec.h"

namespace mempod {

/** Timing state of all banks in one channel (open-page policy). */
class BankStateArray
{
  public:
    static constexpr std::int64_t kNoRow = -1;

    /**
     * @param table Constraint table; must outlive this object.
     * @param num_banks Rank-merged bank count (ranks x banksPerRank).
     * @param banks_per_rank Banks per rank, for rank-scope windows.
     */
    BankStateArray(const CommandTimingTable &table,
                   std::uint32_t num_banks,
                   std::uint32_t banks_per_rank);

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(openRow_.size());
    }

    /** Row currently latched in bank `b`'s row buffer, or kNoRow. */
    std::int64_t openRow(std::uint32_t b) const { return openRow_[b]; }
    bool isOpen(std::uint32_t b) const { return openRow_[b] != kNoRow; }

    /** Bank-local earliest issue time of `c` at bank `b`. */
    TimePs
    readyAt(std::uint32_t b, DramCmd c) const
    {
        return ready_[cmdIndex(c)][b];
    }

    /**
     * Earliest ACT issue time at bank `b`, folding in the rank's tRRD
     * spacing and the rolling four-ACT (tFAW) window.
     */
    TimePs
    actReadyAt(std::uint32_t b) const
    {
        const std::uint32_t rank = rankOf_[b];
        TimePs earliest = std::max(ready_[cmdIndex(DramCmd::kAct)][b],
                                   rankActReady_[rank]);
        if (fawCount_[rank] >= 4) {
            // The oldest of the last four ACTs gates the next one.
            earliest = std::max(
                earliest, fawRing_[rank][fawHead_[rank]] + tbl_.fawPs);
        }
        return earliest;
    }

    /** Apply an ACTIVATE at time `now`. */
    void activate(TimePs now, std::uint32_t b, std::int64_t row);

    /** Apply a PRECHARGE at time `now`. */
    void precharge(TimePs now, std::uint32_t b);

    /** Apply a read CAS at `now`; returns the data-end time. */
    TimePs read(TimePs now, std::uint32_t b);

    /** Apply a write CAS at `now`; returns the data-end time. */
    TimePs write(TimePs now, std::uint32_t b);

    /** Push bank `b`'s command windows past a refresh ending `until`. */
    void blockUntil(std::uint32_t b, TimePs until);

    /**
     * Per-bank command counters as flat arrays sized numBanks(); the
     * addresses are stable for the object's lifetime, so telemetry
     * can attach to them directly.
     */
    const std::uint64_t *activateCounts() const { return acts_.data(); }
    const std::uint64_t *readCounts() const { return reads_.data(); }
    const std::uint64_t *writeCounts() const { return writes_.data(); }

  private:
    /** Fold table row `c` into bank `b`'s ready times at `now`. */
    void applyBankRow(DramCmd c, std::uint32_t b, TimePs now);

    const CommandTimingTable &tbl_;

    std::vector<std::int64_t> openRow_;
    /** Rank index of each bank, for the rank-scope windows. */
    std::vector<std::uint32_t> rankOf_;
    /** ready_[cmd][bank]: earliest issue time per command class. */
    std::array<std::vector<TimePs>, kNumDramCmds> ready_;

    /** Per-rank tRRD gate (earliest next ACT in the rank). */
    std::vector<TimePs> rankActReady_;
    /** Per-rank ring of the last four ACT times (tFAW). */
    std::vector<std::array<TimePs, 4>> fawRing_;
    std::vector<std::uint8_t> fawHead_;
    std::vector<std::uint8_t> fawCount_;

    std::vector<std::uint64_t> acts_;
    std::vector<std::uint64_t> reads_;
    std::vector<std::uint64_t> writes_;
};

} // namespace mempod
