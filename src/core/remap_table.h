/**
 * @file
 * Per-Pod remap table (Section 5.2): a full permutation between a
 * Pod's original page ids and their current locations, plus the
 * inverted view needed to find the original page residing in each
 * fast slot when choosing an eviction victim.
 *
 * Pod-local page ids: [0, fastSlots) are fast-memory locations,
 * [fastSlots, numPages) are slow-memory locations. Initially the
 * mapping is the identity (every page at its home).
 *
 * The modeled hardware table is dense (one entry per page, costed by
 * storageBitsRemap()), but the simulator stores only the ids that are
 * off identity: one FlatMap entry {location, resident} per id whose
 * page has left its home slot. A page is at its home exactly when its
 * home slot holds it, so both halves leave and return to identity
 * together, and the map holds exactly the non-fixed points of the
 * permutation. A swap moves only the two pages it exchanges, so it
 * adds at most two entries: the map never holds more than
 * min(2 x committed swaps, numPages) entries, and a run's remap state
 * grows with its migrations, not with capacity.
 */
#pragma once

#include <cstdint>

#include "common/flat_map.h"
#include "common/log.h"

namespace mempod {

/** Bidirectional page-location permutation for one Pod. */
class RemapTable
{
  public:
    /** An off-identity id's two halves of the permutation. */
    struct Entry
    {
        std::uint32_t location = 0; //!< where page `id` now lives
        std::uint32_t resident = 0; //!< the page now in slot `id`
    };

    /** The stored off-identity ids; absent ids map to themselves. */
    using Moved = FlatMap<Entry>;

    /**
     * @param num_pages Pages managed by this Pod (fast + slow).
     * @param fast_slots How many of them are fast-memory locations.
     */
    RemapTable(std::uint64_t num_pages, std::uint64_t fast_slots);

    /** Current location (slot) of original page `orig`. */
    std::uint64_t
    locationOf(std::uint64_t orig) const
    {
        MEMPOD_ASSERT(orig < numPages_, "remap lookup out of range");
        const Entry *e = moved_.find(orig);
        return e ? e->location : orig;
    }

    /** Original page currently residing in `slot`. */
    std::uint64_t
    residentOf(std::uint64_t slot) const
    {
        MEMPOD_ASSERT(slot < numPages_, "inverted lookup out of range");
        const Entry *e = moved_.find(slot);
        return e ? e->resident : slot;
    }

    /** Exchange the locations of two original pages. */
    void swap(std::uint64_t orig_a, std::uint64_t orig_b);

    std::uint64_t numPages() const { return numPages_; }
    std::uint64_t fastSlots() const { return fastSlots_; }

    /** Is `orig` currently resident in fast memory? */
    bool
    inFast(std::uint64_t orig) const
    {
        return locationOf(orig) < fastSlots_;
    }

    /** nextVictimSlot() result when every fast slot is rejected. */
    static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

    /**
     * Rotating victim scan (MemPod and HMA): starting after the last
     * slot returned, the first fast slot whose resident page `skip`
     * does not reject (hot or already migrating), else kNoSlot.
     */
    template <typename Skip>
    std::uint64_t
    nextVictimSlot(Skip &&skip)
    {
        for (std::uint64_t n = 0; n < fastSlots_; ++n) {
            const std::uint64_t slot = victimScan_;
            victimScan_ = (victimScan_ + 1) % fastSlots_;
            if (!skip(residentOf(slot)))
                return slot;
        }
        return kNoSlot;
    }

    /** True when no page has migrated. */
    bool isIdentity() const { return moved_.empty(); }

    /** Off-identity ids stored: at most 2 x swaps and numPages(). */
    std::uint64_t movedEntries() const { return moved_.size(); }

    /** Fast slots currently holding a page other than their home. */
    std::uint64_t occupiedFastSlots() const { return occupiedFast_; }

    /** occupiedFastSlots() / fastSlots(), the remap-table occupancy. */
    double
    fastOccupancy() const
    {
        return fastSlots_ ? static_cast<double>(occupiedFast_) /
                                static_cast<double>(fastSlots_)
                          : 0.0;
    }

    /** Modeled hardware cost: one location entry per page. */
    std::uint64_t storageBitsRemap() const;

    /** Modeled hardware cost of the inverted fast-slot table. */
    std::uint64_t storageBitsInverted() const;

    /**
     * Verify the bijection law over the stored entries
     * (checkPermutation) and the fast-occupancy count; panics on
     * corruption. O(stored entries), not O(pages).
     */
    void checkConsistency() const;

  private:
    /** `id`'s entry, inserted as identity when absent. */
    Entry &entryFor(std::uint64_t id);

    /** Erase `id`'s entry if it is back at identity. */
    void dropIfHome(std::uint64_t id);

    std::uint64_t numPages_;
    std::uint64_t fastSlots_;
    std::uint64_t occupiedFast_ = 0; //!< fast slots holding a guest page
    std::uint64_t victimScan_ = 0;   //!< rotating victim-scan pointer
    Moved moved_; //!< off-identity id -> {location, resident}
};

} // namespace mempod
