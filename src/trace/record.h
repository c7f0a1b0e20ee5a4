/**
 * @file
 * Trace records: the multi-programmed memory-request streams fed to
 * the timing simulator. Addresses are *core-local* (each core sees its
 * own zero-based footprint); the OS-allocation stand-in maps them onto
 * the physical space at simulation time, so the same trace drives
 * every memory geometry (TLM, HBM-only, DDR-only).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace mempod {

/** One LLC miss as captured by the (synthetic) CPU frontend. */
struct TraceRecord
{
    TimePs time = 0;      //!< arrival at the memory system
    Addr coreLocal = 0;   //!< core-local byte address
    std::uint8_t core = 0;
    AccessType type = AccessType::kRead;
};

using Trace = std::vector<TraceRecord>;

/**
 * Summary statistics of a trace (for tests and reports), computed by
 * summarize() in trace/source.h.
 */
struct TraceSummary
{
    std::uint64_t records = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    TimePs duration = 0;
    std::uint64_t touchedPages = 0; //!< distinct (core, page) pairs
    double requestsPerUs = 0.0;
};

} // namespace mempod
