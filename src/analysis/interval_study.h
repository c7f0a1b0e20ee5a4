/**
 * @file
 * The Section 3 offline accuracy study: slice a page-access stream
 * into fixed-size intervals, run MEA and Full Counters side by side
 * with oracle knowledge of the next interval, and score both schemes'
 * counting accuracy (past interval) and prediction accuracy (next
 * interval) on the top three tiers of pages (ranks 1-10, 11-20,
 * 21-30) — the data behind Figures 1, 2 and 3.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/record.h"
#include "trace/source.h"

namespace mempod {

/** Parameters of the offline study (paper defaults). */
struct IntervalStudyConfig
{
    std::uint64_t intervalRequests = 5500; //!< avg requests per 50 us
    std::uint32_t meaEntries = 128;
    std::uint32_t meaCounterBits = 16; //!< study uses wide counters
};

/** Per-tier results, tiers = ranks 1-10 / 11-20 / 21-30. */
struct IntervalStudyResult
{
    std::uint64_t intervals = 0;

    /** Figure 1: MEA's own rank-bin overlap with oracle bins (0..1). */
    std::array<double, 3> meaCountingAccuracy{};

    /** Figures 2-3: average next-interval hits per tier (0..10). */
    std::array<double, 3> meaPredictionHits{};
    std::array<double, 3> fcPredictionHits{};

    /** Same, as fractions of tier size. */
    std::array<double, 3> meaPredictionAccuracy{};
    std::array<double, 3> fcPredictionAccuracy{};

    /** Average number of predictions MEA emitted per interval. */
    double meaPredictionsPerInterval = 0.0;
};

/**
 * Reduce a source to its page-id stream, core-disambiguated as
 * (core << 48) | page; resets the source before and after. An
 * in-memory Trace goes through a VectorTraceSource.
 */
std::vector<std::uint64_t> pageStreamFromSource(TraceSource &source);

/** Run the study over a page-id stream. */
IntervalStudyResult runIntervalStudy(
    const std::vector<std::uint64_t> &page_stream,
    const IntervalStudyConfig &config);

} // namespace mempod
