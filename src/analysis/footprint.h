/**
 * @file
 * Offline trace characterization: traffic concentration (what share
 * of accesses the hottest N pages absorb — the quantity that decides
 * whether page migration can pay), working-set growth over time, and
 * per-core composition. Used by tools/trace_tool and by tests that
 * pin down the synthetic workloads' shapes.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/source.h"

namespace mempod {

/** Concentration and footprint statistics of one trace. */
struct FootprintStats
{
    std::uint64_t totalAccesses = 0;
    std::uint64_t distinctPages = 0; //!< (core, page) pairs

    /**
     * Traffic concentration curve: share of all accesses absorbed by
     * the hottest 1 / 10 / 100 / 1k / 10k pages (cumulative, 0..1).
     */
    std::vector<double> concentration; //!< size 5

    /** Share of pages touched exactly once. */
    double singleTouchFraction = 0.0;

    /** Gini-style skew index: 0 = uniform, ->1 = fully concentrated. */
    double skewIndex = 0.0;

    /**
     * Working-set curve: distinct pages touched within consecutive
     * windows of `windowRequests` accesses.
     */
    std::uint64_t windowRequests = 0;
    std::vector<std::uint64_t> workingSetPerWindow;

    /** Accesses issued by each core id. */
    std::array<std::uint64_t, 256> perCoreAccesses{};

    /** Mean of workingSetPerWindow. */
    double meanWindowWorkingSet() const;
};

/** The pages-per-bucket boundaries of the concentration curve. */
inline constexpr std::uint64_t kConcentrationBuckets[5] = {1, 10, 100,
                                                           1000, 10000};

/**
 * Characterize a trace in one streaming pass; resets the source before
 * and after. Memory grows with the distinct pages, not the records.
 * @param window_requests Working-set window (default: the paper's
 *        5500-request interval).
 */
FootprintStats analyzeFootprint(TraceSource &source,
                                std::uint64_t window_requests = 5500);

} // namespace mempod
