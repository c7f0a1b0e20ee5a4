/**
 * @file
 * DenseRemap: the plain reference a RemapTable is checked against, the
 * permutation (id -> slot) and its inverse (slot -> id) as two dense
 * vectors, starting at the identity. The remap-table unit tests drive
 * it with the same swaps as the table; the ledger-replay oracle
 * replays a run's committed decisions onto it.
 */
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

namespace mempod {

struct DenseRemap
{
    std::vector<std::uint32_t> location, resident;

    explicit DenseRemap(std::uint64_t pages)
        : location(pages), resident(pages)
    {
        std::iota(location.begin(), location.end(), 0u);
        std::iota(resident.begin(), resident.end(), 0u);
    }

    /** Exchange the locations of pages `a` and `b`. */
    void
    swap(std::uint64_t a, std::uint64_t b)
    {
        const std::uint32_t la = location[a], lb = location[b];
        location[a] = lb;
        location[b] = la;
        resident[la] = static_cast<std::uint32_t>(b);
        resident[lb] = static_cast<std::uint32_t>(a);
    }

    /** Ids away from their home slot. */
    std::uint64_t
    movedIds() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t i = 0; i < location.size(); ++i)
            n += location[i] != i ? 1 : 0;
        return n;
    }

    /** Fast slots (the first `fast_slots`) holding a guest page. */
    std::uint64_t
    occupiedFast(std::uint64_t fast_slots) const
    {
        std::uint64_t n = 0;
        for (std::uint64_t s = 0; s < fast_slots; ++s)
            n += resident[s] != s ? 1 : 0;
        return n;
    }
};

} // namespace mempod
