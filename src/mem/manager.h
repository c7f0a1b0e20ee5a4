/**
 * @file
 * The dynamic memory-manager interface. A manager receives every
 * demand request at its OS-assigned physical home address, may
 * transparently remap it to the page's current location, updates its
 * activity tracking, and is responsible for eventually completing the
 * request (possibly after holding it while a migration involving its
 * page commits).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/metrics.h"
#include "common/types.h"
#include "mem/request.h"

namespace mempod {

/** Statistics every migration mechanism reports. */
struct MigrationStats
{
    std::uint64_t migrations = 0;      //!< committed swaps (pages or lines)
    std::uint64_t bytesMoved = 0;      //!< total migration traffic
    std::uint64_t blockedRequests = 0; //!< demands delayed by a migration
    std::uint64_t intervals = 0;       //!< interval-trigger firings
    std::uint64_t candidatesSkipped = 0; //!< hot pages already in fast
    std::uint64_t wastedMigrations = 0;  //!< evicted before ever re-used
    std::uint64_t metaCacheHits = 0;
    std::uint64_t metaCacheMisses = 0;
    /** Summed demand delay behind in-flight swaps (AMMAT attribution). */
    std::uint64_t blockedPs = 0;
    /** Summed demand delay on metadata-cache misses (attribution). */
    std::uint64_t metadataPs = 0;
};

/**
 * Base class for MemPod and all baseline mechanisms. A mechanism
 * reaches the run's probes (tracer, decision ledger) through the
 * EventQueue it is built on; see EventQueue::decisions().
 */
class MemoryManager
{
  public:
    virtual ~MemoryManager() = default;

    /**
     * Handle one demand line access. The manager must pass `d.done`
     * on (Request::demand does) so the issuer is completed exactly
     * once when the data transfer finishes; everything else is input.
     */
    virtual void handleDemand(Demand d) = 0;

    /** Arm interval timers; called once before the trace starts. */
    virtual void start() {}

    /**
     * Install a hook invoked when the mechanism freezes the cores for
     * a modeled software pass (duration as argument); the simulation
     * wires it to TraceFrontend::suspendCores. Mechanisms without such
     * stalls ignore it.
     */
    virtual void setCoreStallHook(std::function<void(TimePs)>) {}

    /** Mechanism name for reports. */
    virtual std::string name() const = 0;

    /**
     * Mechanism-level conservation laws, called by the invariant
     * checker: cheap count cross-checks every epoch, plus full remap /
     * location-table bijection scans when `paranoid`. Implementations
     * panic with a structured diagnostic on violation.
     */
    virtual void validateInvariants(bool paranoid) const
    {
        (void)paranoid;
    }

    virtual const MigrationStats &migrationStats() const { return mstats_; }

    /**
     * Demand requests (or parts of migrations) still owned by the
     * manager, in addition to MemorySystem::inFlight(). The simulation
     * drains until both are zero.
     */
    virtual std::uint64_t pendingWork() const { return 0; }

    /**
     * Register this mechanism's instruments. The base implementation
     * registers the aggregate MigrationStats under "migration.*"
     * (reading through migrationStats(), so mechanisms that aggregate
     * on demand stay consistent); overrides should call it and then
     * add their mechanism-specific instruments.
     */
    virtual void
    registerMetrics(MetricRegistry &reg)
    {
        reg.addCounterFn("migration.migrations",
                         "committed swaps (pages or lines)",
                         [this] { return migrationStats().migrations; });
        reg.addCounterFn("migration.bytes_moved",
                         "total migration traffic in bytes",
                         [this] { return migrationStats().bytesMoved; });
        reg.addCounterFn(
            "migration.blocked_requests",
            "demand requests delayed by an in-progress migration",
            [this] { return migrationStats().blockedRequests; });
        reg.addCounterFn("migration.intervals",
                         "interval-trigger firings",
                         [this] { return migrationStats().intervals; });
        reg.addCounterFn(
            "migration.candidates_skipped",
            "hot candidates already resident in fast memory",
            [this] { return migrationStats().candidatesSkipped; });
        reg.addCounterFn(
            "migration.wasted",
            "migrated pages evicted before ever being re-used",
            [this] { return migrationStats().wastedMigrations; });
        reg.addCounterFn("migration.meta_cache_hits",
                         "bookkeeping-cache hits on the demand path",
                         [this] { return migrationStats().metaCacheHits; });
        reg.addCounterFn(
            "migration.meta_cache_misses",
            "bookkeeping-cache misses on the demand path",
            [this] { return migrationStats().metaCacheMisses; });
        reg.addCounterFn(
            "migration.blocked_ps",
            "summed demand delay behind in-flight swaps",
            [this] { return migrationStats().blockedPs; });
        reg.addCounterFn(
            "migration.metadata_ps",
            "summed demand delay on metadata-cache misses",
            [this] { return migrationStats().metadataPs; });
    }

  protected:
    MigrationStats mstats_;
};

} // namespace mempod
