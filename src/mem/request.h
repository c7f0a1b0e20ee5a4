/**
 * @file
 * The memory request type exchanged between the frontend, migration
 * managers, and channel controllers. All requests move one 64 B line.
 */
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/types.h"

namespace mempod {

/**
 * Whoever issued a request and is told when its line transfer
 * finishes. The set is closed: the TraceFrontend (demands), the
 * MigrationEngine (swap lines) and the MetadataPath (bookkeeping
 * fills). `ref` is the owner's own name for the request.
 */
class Completer
{
  public:
    virtual void complete(std::uint32_t ref, TimePs finish) = 0;

  protected:
    Completer() = default;
    ~Completer() = default;
    // Every handle holds the owner's address: owners stay put.
    Completer(const Completer &) = delete;
    Completer &operator=(const Completer &) = delete;
};

/**
 * The completion handle every request carries: plain data, so
 * requests copy as bytes and channels park 16 bytes per in-flight
 * line. A null `to` means nobody waits for the transfer.
 */
struct Completion
{
    Completer *to = nullptr;
    std::uint32_t ref = 0;

    explicit operator bool() const { return to != nullptr; }

    /** Report the finish time to the owner; the handle must be set. */
    void operator()(TimePs finish) const { to->complete(ref, finish); }
};

/**
 * One demand line access as a MemoryManager receives it: the OS view
 * of the address plus its completion handle, before any remap.
 */
struct Demand
{
    Addr homeAddr = 0; //!< OS-assigned physical address (pre-remap)
    AccessType type = AccessType::kRead;
    std::uint8_t core = 0; //!< issuing core
    TimePs arrival = 0;    //!< trace arrival time (AMMAT accounting)
    /** Tracing correlation id (0 = request not sampled). */
    std::uint64_t traceId = 0;
    /** When a migration lock parked it (blocked-time attribution). */
    TimePs parkedAt = 0;
    /** Completed exactly once when the data transfer finishes. */
    Completion done{};
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
    std::uint8_t core = 0;  //!< issuing core (demand requests)
    TimePs arrival = 0;     //!< trace arrival time, for AMMAT accounting

    /**
     * Tracing correlation id: nonzero for sampled demand requests
     * (trace record index + 1), zero otherwise. Channels use it to
     * emit per-phase spans for exactly the sampled requests.
     */
    std::uint64_t traceId = 0;

    /** Completed exactly once when the line transfer finishes. */
    Completion done{};

    /** The request serving demand `d` at physical address `addr`. */
    static Request
    demand(Addr addr, const Demand &d)
    {
        Request r;
        r.addr = addr;
        r.type = d.type;
        r.arrival = d.arrival;
        r.core = d.core;
        r.traceId = d.traceId;
        r.done = d.done;
        return r;
    }
};

// Requests and demands are copied through channel queues, PDES
// inboxes and swap-guard parking lots; keep them plain bytes.
static_assert(std::is_trivially_copyable_v<Demand>);
static_assert(std::is_trivially_copyable_v<Request>);
static_assert(sizeof(Request) <= 48);

} // namespace mempod
