/**
 * @file
 * The (id, count) pair that activity trackers (Section 4.2 of the
 * paper) report: MEA and the Full Counters baseline both observe a
 * stream of page ids and rank the pages they consider hot.
 */
#pragma once

#include <cstdint>

namespace mempod {

/** A tracked (id, count) pair. */
struct TrackedEntry
{
    std::uint64_t id = 0;
    std::uint64_t count = 0;

    bool
    operator==(const TrackedEntry &o) const
    {
        return id == o.id && count == o.count;
    }
};

} // namespace mempod
