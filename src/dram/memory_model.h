/**
 * @file
 * The memory-model interface. The MemorySystem holds, per channel, the
 * run's measured model and, on sampled runs only, a functional warm
 * model; every line transfer goes to one of them:
 *
 *   kDetailed    the table-driven SoA channel controller (Channel):
 *                per-bank open-page state, FR-FCFS, refresh — the
 *                ground-truth engine.
 *   kFast        FastChannel: fixed per-tier service latency plus a
 *                bandwidth-capped queue, no bank state. Roughly an
 *                order of magnitude fewer events per request.
 *
 * dram.model picks one of the two. The warm model (FunctionalModel,
 * never a measurement choice) completes every request inline at
 * enqueue time with zero latency and zero events, so MEA trackers,
 * remap tables and the decision ledger keep seeing the full demand
 * stream while a sampled run fast-forwards.
 *
 * Every model completes a request the same way (complete()): it
 * decrements the memory system's in-flight count, then completes the
 * request's handle, both in the coordinator domain. Event-driven
 * models do so from a scheduled completion whose delta is at least
 * the PDES lookahead; the functional model is serial-only and
 * completes synchronously.
 */
#pragma once

#include <cstdint>
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

/** Which model measures a channel's requests (dram.model). */
enum class DramModel : std::uint8_t
{
    kDetailed = 0,
    kFast = 1,
};

/** Canonical config spelling ("detailed" / "fast"). */
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
     * The sampled run is about to route traffic here again after the
     * warm model carried it since some earlier instant. Models with
     * wall-clock obligations forgive the debt accrued meanwhile — the
     * detailed controller re-phases its refresh clock so a
     * measurement window is not spent retiring ~fastfwd/tREFI
     * catch-up refreshes that conceptually happened during warm-up.
     * Never called in unsampled runs (their outputs stay
     * byte-identical); default is a no-op.
     */
    virtual void resumeAt(TimePs) {}

    virtual const ChannelStats &stats() const = 0;
    virtual const DramSpec &spec() const = 0;
    virtual const std::string &name() const = 0;

    /** The read-only observer view of this model's counters. */
    virtual ChannelTelemetry telemetry() const = 0;

    virtual const ChannelHostStats &hostStats() const = 0;

  protected:
    /**
     * @param in_flight The memory system's count of dispatched, not
     *        yet completed lines; nullptr when the model stands alone.
     */
    explicit MemoryModel(std::uint64_t *in_flight) : inFlight_(in_flight)
    {
    }

    MemoryModel(const MemoryModel &) = delete;
    MemoryModel &operator=(const MemoryModel &) = delete;

    /** Whether completions are counted even when nobody waits. */
    bool counted() const { return inFlight_ != nullptr; }

    /** The one completion path: uncount the line, then tell its owner. */
    void
    complete(Completion done, TimePs finish) const
    {
        if (inFlight_)
            --*inFlight_;
        if (done)
            done(finish);
    }

  private:
    std::uint64_t *inFlight_;
};

} // namespace mempod
