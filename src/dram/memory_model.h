/**
 * @file
 * The swappable memory-model interface. The MemorySystem routes every
 * line transfer through a MemoryModel per channel; which concrete
 * model sits behind the interface is a run-time choice:
 *
 *   kDetailed    the table-driven SoA channel controller (Channel):
 *                per-bank open-page state, FR-FCFS, refresh — the
 *                ground-truth engine.
 *   kFast        FastChannel: fixed per-tier service latency plus a
 *                bandwidth-capped queue, no bank state. Roughly an
 *                order of magnitude fewer events per request.
 *   kFunctional  FunctionalModel: completes every request inline at
 *                enqueue time with zero latency and zero events.
 *                Timing-free warming for sampled simulation: MEA
 *                trackers, remap tables and the decision ledger keep
 *                seeing the full demand stream while fast-forwarding.
 *
 * All models share the completion contract: the completion hook runs
 * and then the request's owner is completed through its Completion
 * handle, both in the coordinator domain (for event-driven models, via
 * a scheduled completion whose delta is at least the PDES lookahead;
 * the functional model is serial-only and completes synchronously).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.h"
#include "dram/spec.h"
#include "dram/telemetry.h"
#include "mem/request.h"

namespace mempod {

/** Bank/row coordinates of a request within one channel. */
struct ChannelAddr
{
    std::uint32_t bank = 0; //!< rank-merged bank index
    std::int64_t row = 0;
};

/** Which memory model services a channel's requests. */
enum class DramModel : std::uint8_t
{
    kDetailed = 0,
    kFast = 1,
    kFunctional = 2,
};

/** Canonical config spelling ("detailed" / "fast" / "functional"). */
const char *dramModelName(DramModel m);

/** Parse a config spelling; returns false on an unknown name. */
bool dramModelFromName(const std::string &name, DramModel &out);

/**
 * Host-side controller mechanics for the profiler. Deterministic
 * (functions of the simulated request stream only) and always
 * counted. Event-free models leave everything zero.
 */
struct ChannelHostStats
{
    std::uint64_t ticks = 0;     //!< controller tick() invocations
    std::uint64_t arbPasses = 0; //!< per-queue arbitration passes
    std::uint64_t issued = 0;    //!< ticks that issued a command
    /** Sum over arbitration passes of banks-with-work (density =
     *  workBanks / arbPasses: how much of the ready-bank bitmask
     *  each FR-FCFS pass actually walks). */
    std::uint64_t workBanks = 0;
};

/** One channel's worth of memory behind a fidelity-agnostic API. */
class MemoryModel
{
  public:
    virtual ~MemoryModel() = default;

    /** Queue one line transfer; the model wakes itself up. */
    virtual void enqueue(Request req, ChannelAddr where) = 0;

    /**
     * Invoked inside every completion, before the request's owner is
     * completed. The MemorySystem uses this to track in-flight lines
     * for every request at once. Set once at construction time.
     */
    virtual void setCompletionHook(std::function<void(TimePs)> hook) = 0;

    /**
     * The fidelity controller is about to route traffic here again
     * after the model sat inactive since some earlier instant. Models
     * with wall-clock obligations forgive the debt accrued while
     * inactive — the detailed controller re-phases its refresh clock
     * so a measurement window is not spent retiring ~fastfwd/tREFI
     * catch-up refreshes that conceptually happened during warm-up.
     * Never called in single-fidelity runs (their outputs stay
     * byte-identical); default is a no-op.
     */
    virtual void resumeAt(TimePs) {}

    /** Requests accepted but not yet issued (or still in flight for
     *  models without an issue stage). */
    virtual std::size_t queued() const = 0;

    /** True when no request is queued. */
    virtual bool idle() const = 0;

    virtual const ChannelStats &stats() const = 0;
    virtual const DramSpec &spec() const = 0;
    virtual const std::string &name() const = 0;

    /** The read-only observer view of this model's counters. */
    virtual ChannelTelemetry telemetry() const = 0;

    virtual const ChannelHostStats &hostStats() const = 0;
};

} // namespace mempod
