/**
 * @file
 * Configuration knobs for every migration mechanism, in one data-only
 * header. SimConfig embeds these by value, and pulling them out of the
 * mechanism headers is what lets sim/config.h stay free of mechanism
 * code: the mechanisms include this header (not the other way
 * around), and only buildManager (sim/simulation.h) ties a Mechanism
 * tag to a concrete manager class.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace mempod {

/** Per-Pod configuration knobs. */
struct PodParams
{
    std::uint32_t meaEntries = 64;    //!< K counters (paper optimum)
    std::uint32_t meaCounterBits = 2; //!< paper optimum at 50 us
    /** Migration cap per interval; 0 means "up to K". */
    std::uint32_t maxMigrationsPerInterval = 0;
    /**
     * Minimum MEA count for a tracked page to be migration-worthy.
     * Entries at count 1 are often one-touch insertions that survived
     * the last sweep by luck; moving them rarely amortizes the swap.
     */
    std::uint32_t minHotCount = 3;
    /** Remap-table cache (Figure 9); disabled = free on-chip lookups. */
    bool metaCacheEnabled = false;
    std::uint64_t metaCacheBytes = 16 * 1024;
    std::uint32_t metaCacheAssoc = 8;
    std::uint32_t remapEntryBytes = 4; //!< packed remap entry size
};

/** MemPod configuration. */
struct MemPodParams
{
    TimePs interval = 50_us; //!< migration epoch (paper optimum)
    PodParams pod;
};

/** HMA configuration. */
struct HmaParams
{
    TimePs interval = 100_ms;     //!< paper's optimal epoch
    TimePs sortStall = 7_ms;      //!< intake freeze per epoch
    std::uint32_t counterBits = 16;
    std::uint32_t threshold = 16; //!< min accesses to migrate a page
    std::uint32_t maxMigrationsPerInterval = 2048;
    /** Counter cache (Figure 9); disabled = free on-chip counters. */
    bool metaCacheEnabled = false;
    std::uint64_t metaCacheBytes = 16 * 1024;
    std::uint32_t metaCacheAssoc = 8;
    std::uint32_t counterEntryBytes = 2; //!< 16-bit packed counters
};

/** THM configuration. */
struct ThmParams
{
    std::uint32_t threshold = 16;  //!< competing-counter trigger
    std::uint32_t counterBits = 8; //!< paper: 8 bits per fast page
    /** Segment-state cache (Figure 9); disabled = free lookups. */
    bool metaCacheEnabled = false;
    std::uint64_t metaCacheBytes = 16 * 1024;
    std::uint32_t metaCacheAssoc = 8;
    std::uint32_t segEntryBytes = 4; //!< counter + remap state packed
};

/** CAMEO configuration. */
struct CameoParams
{
    /** Concurrent line swaps (swaps ride the MC queues, not a CPU). */
    std::uint32_t engineParallelism = 8;
    /**
     * Backpressure bound on queued swaps: beyond it new slow accesses
     * skip their swap instead of queueing unboundedly (the demand
     * itself is never skipped).
     */
    std::size_t maxQueuedSwaps = 256;
};

} // namespace mempod
