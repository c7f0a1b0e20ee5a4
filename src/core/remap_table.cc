#include "core/remap_table.h"

#include <bit>

#include "common/log.h"
#include "sim/validate.h"

namespace mempod {

RemapTable::RemapTable(std::uint64_t num_pages, std::uint64_t fast_slots)
    : numPages_(num_pages), fastSlots_(fast_slots)
{
    MEMPOD_ASSERT(num_pages > 0, "empty remap table");
    MEMPOD_ASSERT(fast_slots <= num_pages, "more fast slots than pages");
    MEMPOD_ASSERT(num_pages <= ~std::uint32_t{0},
                  "pod page count exceeds 32-bit entry encoding");
}

RemapTable::Entry &
RemapTable::entryFor(std::uint64_t id)
{
    const auto [e, inserted] = moved_.tryEmplace(id);
    if (inserted)
        *e = {static_cast<std::uint32_t>(id),
              static_cast<std::uint32_t>(id)};
    return *e;
}

void
RemapTable::dropIfHome(std::uint64_t id)
{
    moved_.erase(id, [id](const Entry &e) {
        return e.location == id && e.resident == id;
    });
}

void
RemapTable::swap(std::uint64_t orig_a, std::uint64_t orig_b)
{
    MEMPOD_ASSERT(orig_a < numPages_ && orig_b < numPages_,
                  "swap out of range");
    if (orig_a == orig_b)
        return;
    const std::uint64_t loc_a = locationOf(orig_a);
    const std::uint64_t loc_b = locationOf(orig_b);
    // Incremental occupancy bookkeeping: count displaced fast slots
    // before and after so occupiedFastSlots() stays O(1).
    auto displaced_fast = [this](std::uint64_t slot, std::uint64_t page) {
        return slot < fastSlots_ && page != slot ? 1u : 0u;
    };
    const std::uint64_t before =
        displaced_fast(loc_a, orig_a) + displaced_fast(loc_b, orig_b);
    // Each entryFor() may rehash, so no reference is held across calls.
    entryFor(orig_a).location = static_cast<std::uint32_t>(loc_b);
    entryFor(orig_b).location = static_cast<std::uint32_t>(loc_a);
    entryFor(loc_a).resident = static_cast<std::uint32_t>(orig_b);
    entryFor(loc_b).resident = static_cast<std::uint32_t>(orig_a);
    for (const std::uint64_t id : {orig_a, orig_b, loc_a, loc_b})
        dropIfHome(id);
    const std::uint64_t after =
        displaced_fast(loc_a, orig_b) + displaced_fast(loc_b, orig_a);
    occupiedFast_ += after;
    MEMPOD_ASSERT(occupiedFast_ >= before, "occupancy underflow");
    occupiedFast_ -= before;
}

std::uint64_t
RemapTable::storageBitsRemap() const
{
    const std::uint64_t entry_bits = std::bit_width(numPages_ - 1);
    return numPages_ * entry_bits;
}

std::uint64_t
RemapTable::storageBitsInverted() const
{
    const std::uint64_t entry_bits = std::bit_width(numPages_ - 1);
    return fastSlots_ * entry_bits;
}

void
RemapTable::checkConsistency() const
{
    checkPermutation("remap table", numPages_, moved_);
    // Every stored fast id is a fast slot holding a guest page.
    std::uint64_t guests = 0;
    moved_.forEach([&](std::uint64_t id, const Entry &) {
        guests += id < fastSlots_ ? 1 : 0;
    });
    if (guests != occupiedFast_)
        MEMPOD_PANIC("invariant violated [remap_occupancy]: remap table "
                     "counts %llu occupied fast slots but %llu hold a "
                     "guest page",
                     static_cast<unsigned long long>(occupiedFast_),
                     static_cast<unsigned long long>(guests));
}

} // namespace mempod
