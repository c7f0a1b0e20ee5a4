/**
 * @file
 * The Full Counters (FC) baseline tracker: one saturating access
 * counter per memory page, as used by HMA and by the Section 3
 * accuracy study. Exact counting, but linear storage (the paper's
 * 1+8 GB system needs 4.5 M counters = 9 MB at 16 bits) and an
 * expensive sort at every epoch.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tracking/tracker.h"

namespace mempod {

/** Dense per-page counters with touched-set tracking for cheap topN. */
class FullCounters
{
  public:
    /**
     * @param num_ids Total pages tracked (one counter each).
     * @param counter_bits Saturating counter width (paper: 16).
     */
    explicit FullCounters(std::uint64_t num_ids,
                          std::uint32_t counter_bits = 16);

    /** Record one access to `id`. */
    void touch(std::uint64_t id);

    /** Clear interval state. */
    void reset();

    /** All touched pages, count desc (exact ranking). */
    std::vector<TrackedEntry> snapshot() const;

    /** The n most-accessed pages of the interval. */
    std::vector<TrackedEntry> topN(std::size_t n) const;

    std::uint64_t count(std::uint64_t id) const;
    std::uint64_t touchedCount() const { return touched_.size(); }

    /** Modeled hardware cost in bits: one counter per page. */
    std::uint64_t storageBits() const
    {
        return numIds_ * counterBits_;
    }

  private:
    std::uint64_t numIds_;
    std::uint32_t counterBits_;
    std::uint32_t counterMax_;
    std::vector<std::uint16_t> counters_;
    std::vector<std::uint64_t> touched_; //!< ids with nonzero count
};

} // namespace mempod
