#include "core/remap_table.h"

#include <bit>

#include "common/log.h"
#include "sim/validate.h"

namespace mempod {

RemapTable::RemapTable(std::uint64_t num_pages, std::uint64_t fast_slots)
    : fastSlots_(fast_slots)
{
    MEMPOD_ASSERT(num_pages > 0, "empty remap table");
    MEMPOD_ASSERT(fast_slots <= num_pages, "more fast slots than pages");
    MEMPOD_ASSERT(num_pages <= ~std::uint32_t{0},
                  "pod page count exceeds 32-bit entry encoding");
    location_.resize(num_pages);
    resident_.resize(num_pages);
    for (std::uint64_t i = 0; i < num_pages; ++i) {
        location_[i] = static_cast<std::uint32_t>(i);
        resident_[i] = static_cast<std::uint32_t>(i);
    }
}

std::uint64_t
RemapTable::locationOf(std::uint64_t orig) const
{
    MEMPOD_ASSERT(orig < location_.size(), "remap lookup out of range");
    return location_[orig];
}

std::uint64_t
RemapTable::residentOf(std::uint64_t slot) const
{
    MEMPOD_ASSERT(slot < resident_.size(), "inverted lookup out of range");
    return resident_[slot];
}

void
RemapTable::swap(std::uint64_t orig_a, std::uint64_t orig_b)
{
    MEMPOD_ASSERT(orig_a < location_.size() && orig_b < location_.size(),
                  "swap out of range");
    const std::uint32_t loc_a = location_[orig_a];
    const std::uint32_t loc_b = location_[orig_b];
    // Incremental occupancy bookkeeping: count displaced fast slots
    // before and after so occupiedFastSlots() stays O(1).
    auto displaced_fast = [this](std::uint64_t slot) {
        return slot < fastSlots_ && resident_[slot] != slot;
    };
    const std::uint64_t before = (displaced_fast(loc_a) ? 1u : 0u) +
                                 (displaced_fast(loc_b) ? 1u : 0u);
    location_[orig_a] = loc_b;
    location_[orig_b] = loc_a;
    resident_[loc_a] = static_cast<std::uint32_t>(orig_b);
    resident_[loc_b] = static_cast<std::uint32_t>(orig_a);
    const std::uint64_t after = (displaced_fast(loc_a) ? 1u : 0u) +
                                (displaced_fast(loc_b) ? 1u : 0u);
    occupiedFast_ += after;
    MEMPOD_ASSERT(occupiedFast_ >= before, "occupancy underflow");
    occupiedFast_ -= before;
}

bool
RemapTable::isIdentity() const
{
    for (std::uint64_t i = 0; i < location_.size(); ++i)
        if (location_[i] != i)
            return false;
    return true;
}

std::uint64_t
RemapTable::storageBitsRemap() const
{
    const std::uint64_t entry_bits =
        std::bit_width(location_.size() - 1);
    return location_.size() * entry_bits;
}

std::uint64_t
RemapTable::storageBitsInverted() const
{
    const std::uint64_t entry_bits =
        std::bit_width(location_.size() - 1);
    return fastSlots_ * entry_bits;
}

void
RemapTable::checkConsistency() const
{
    checkPermutation("remap table", location_, resident_);
}

} // namespace mempod
