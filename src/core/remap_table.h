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
 */
#pragma once

#include <cstdint>
#include <vector>

namespace mempod {

/** Bidirectional page-location permutation for one Pod. */
class RemapTable
{
  public:
    /**
     * @param num_pages Pages managed by this Pod (fast + slow).
     * @param fast_slots How many of them are fast-memory locations.
     */
    RemapTable(std::uint64_t num_pages, std::uint64_t fast_slots);

    /** Current location (slot) of original page `orig`. */
    std::uint64_t locationOf(std::uint64_t orig) const;

    /** Original page currently residing in `slot`. */
    std::uint64_t residentOf(std::uint64_t slot) const;

    /** Exchange the locations of two original pages. */
    void swap(std::uint64_t orig_a, std::uint64_t orig_b);

    std::uint64_t numPages() const { return location_.size(); }
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
    bool isIdentity() const;

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

    /** Verify the bijection law (checkPermutation); panics on corruption. */
    void checkConsistency() const;

  private:
    std::uint64_t fastSlots_;
    std::uint64_t occupiedFast_ = 0; //!< fast slots holding a guest page
    std::uint64_t victimScan_ = 0;   //!< rotating victim-scan pointer
    std::vector<std::uint32_t> location_; //!< orig -> slot
    std::vector<std::uint32_t> resident_; //!< slot -> orig
};

} // namespace mempod
