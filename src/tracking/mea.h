/**
 * @file
 * The Majority Element Algorithm (MEA) activity tracker — the paper's
 * central contribution (Section 3, Algorithm 1). A map of K entries
 * associates page ids with small saturating counters:
 *
 *  - id present            -> increment its counter (saturating);
 *  - id absent, free entry -> insert with count 1;
 *  - id absent, map full   -> decrement every counter and evict zeros.
 *
 * All three operations are single-cycle in hardware (parallel
 * decrement/compare); here they are O(1)/O(K) with K <= 512. Because
 * the access stream rarely satisfies the formal majority condition,
 * MEA acts as an approximation that *favors recency over quantity*
 * (the paper's key observation), which makes it a better predictor of
 * next-interval hot pages than exact full counters.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "tracking/tracker.h"

namespace mempod {

/** MEA frequent-elements tracker with saturating counters. */
class MeaTracker
{
  public:
    /**
     * @param entries Number of map entries K (counters).
     * @param counter_bits Width of each saturating counter (paper: 2).
     * @param id_bits Width of the page-id tag (paper: 21 per Pod);
     *        only used for storage-cost reporting.
     */
    MeaTracker(std::uint32_t entries, std::uint32_t counter_bits = 2,
               std::uint32_t id_bits = 21);

    /** Record one access to `id`. */
    void touch(std::uint64_t id);

    /** Clear interval state. */
    void reset();

    /** Entries currently tracked (count desc, id asc). */
    std::vector<TrackedEntry> snapshot() const;

    /** Ids currently tracked (unsorted membership test set). */
    std::vector<std::uint64_t> trackedIds() const;

    bool contains(std::uint64_t id) const { return map_.contains(id); }

    /** Current counter value for `id` (0 when untracked) — the
     *  decision-time snapshot the migration ledger records. */
    std::uint32_t countOf(std::uint64_t id) const
    {
        const std::uint32_t *count = map_.find(id);
        return count ? *count : 0;
    }

    std::uint32_t entries() const { return entries_; }
    std::uint32_t counterBits() const { return counterBits_; }
    std::uint32_t counterMax() const { return counterMax_; }
    std::size_t size() const { return map_.size(); }

    /** Modeled hardware cost in bits: K * (id + counter). */
    std::uint64_t storageBits() const;

    /** Number of decrement-all sweeps performed (operation (c)). */
    std::uint64_t sweeps() const { return sweeps_; }

    /** Entries erased at count zero during sweeps. */
    std::uint64_t evictions() const { return evictions_; }

    /** Full tracker clears (interval boundaries). */
    std::uint64_t resets() const { return resets_; }

  private:
    std::uint32_t entries_;
    std::uint32_t counterBits_;
    std::uint32_t counterMax_;
    std::uint32_t idBits_;
    FlatMap<std::uint32_t> map_; //!< page id -> saturating count
    std::uint64_t sweeps_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t resets_ = 0;
};

} // namespace mempod
