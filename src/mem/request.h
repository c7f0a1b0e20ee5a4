/**
 * @file
 * The memory request type exchanged between the frontend, migration
 * managers, and channel controllers. All requests move one 64 B line.
 */
#pragma once

#include <cstdint>
#include <utility>

#include "common/callback.h"
#include "common/types.h"

namespace mempod {

/**
 * Completion callback carried by every request. Move-only with a
 * 40-byte inline buffer: the demand path stores the frontend's
 * accounting closure (32 bytes) here directly — no wrapper layers, so
 * issuing a demand performs no heap allocation. The buffer is kept
 * deliberately tight because channels park these in a slab while the
 * data transfer completes, and the migration engine's line closures
 * ({engine, op}, 16 bytes) fit it too. Anything larger takes the
 * boxed fallback.
 */
using CompletionCallback = MoveFunction<void(TimePs), 40>;

/**
 * One demand line access as a MemoryManager receives it: the OS view
 * of the address plus completion plumbing, before any remap. Field
 * order mirrors the old positional handleDemand signature, so brace
 * initialization reads the same way the call sites used to.
 */
struct Demand
{
    Addr homeAddr = 0; //!< OS-assigned physical address (pre-remap)
    AccessType type = AccessType::kRead;
    TimePs arrival = 0;    //!< trace arrival time (AMMAT accounting)
    std::uint8_t core = 0; //!< issuing core
    /** Tracing correlation id (0 = request not sampled). */
    std::uint64_t traceId = 0;
    /** When a migration lock parked it (blocked-time attribution). */
    TimePs parkedAt = 0;
    /** Invoked exactly once when the data transfer finishes. */
    CompletionCallback done{};
};

/** One 64 B memory transaction. */
struct Request
{
    /** Why this request exists; drives statistics attribution. */
    enum class Kind : std::uint8_t
    {
        kDemand,      //!< an original LLC-miss from the trace
        kMigration,   //!< page/line movement traffic
        kBookkeeping, //!< metadata-cache miss fill
    };

    Addr addr = 0;          //!< physical (post-remap) byte address
    AccessType type = AccessType::kRead;
    Kind kind = Kind::kDemand;
    TimePs arrival = 0;     //!< trace arrival time, for AMMAT accounting
    std::uint8_t core = 0;  //!< issuing core (demand requests)

    /**
     * Tracing correlation id: nonzero for sampled demand requests
     * (trace record index + 1), zero otherwise. Channels use it to
     * emit per-phase spans for exactly the sampled requests.
     */
    std::uint64_t traceId = 0;

    /** Invoked exactly once when the line transfer finishes. */
    CompletionCallback onComplete;

    /** The request serving demand `d` at physical address `addr`. */
    static Request
    demand(Addr addr, Demand &&d)
    {
        Request r;
        r.addr = addr;
        r.type = d.type;
        r.arrival = d.arrival;
        r.core = d.core;
        r.traceId = d.traceId;
        r.onComplete = std::move(d.done);
        return r;
    }
};

} // namespace mempod
