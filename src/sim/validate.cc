/**
 * @file
 * Invariant-checker implementation. Every law panics through
 * MEMPOD_PANIC with an `invariant violated [law]` prefix so tests and
 * operators can match on the structured diagnostic.
 */
#include "sim/validate.h"

#include <cmath>

#include "common/decision_log.h"
#include "common/log.h"
#include "mem/frontend.h"
#include "mem/manager.h"
#include "sim/config.h"
#include "sim/report.h"

namespace mempod {

namespace {

/** Relative comparison for quantities that are sums of exact parts. */
bool
relClose(double a, double b, double rel_tol)
{
    const double scale = std::max(std::abs(a), std::abs(b));
    return std::abs(a - b) <= rel_tol * std::max(scale, 1.0);
}

} // namespace

void
checkPermutation(const char *what, std::uint64_t num_ids,
                 const RemapTable::Moved &moved)
{
    // An absent id is at its home slot, which holds it.
    auto location = [&](std::uint64_t id) {
        const RemapTable::Entry *e = moved.find(id);
        return e ? std::uint64_t{e->location} : id;
    };
    auto resident = [&](std::uint64_t slot) {
        const RemapTable::Entry *e = moved.find(slot);
        return e ? std::uint64_t{e->resident} : slot;
    };
    moved.forEach([&](std::uint64_t id, const RemapTable::Entry &e) {
        if (e.location == id && e.resident == id)
            MEMPOD_PANIC("invariant violated [remap_bijection]: %s id "
                         "%llu is stored at identity",
                         what, static_cast<unsigned long long>(id));
        if (id >= num_ids || e.location >= num_ids ||
            e.resident >= num_ids)
            MEMPOD_PANIC("invariant violated [remap_bijection]: %s id "
                         "%llu maps to slot %u and holds id %u, outside "
                         "%llu ids",
                         what, static_cast<unsigned long long>(id),
                         e.location, e.resident,
                         static_cast<unsigned long long>(num_ids));
        if (resident(e.location) != id)
            MEMPOD_PANIC(
                "invariant violated [remap_bijection]: %s id %llu "
                "claims slot %u which holds id %llu",
                what, static_cast<unsigned long long>(id), e.location,
                static_cast<unsigned long long>(resident(e.location)));
        if (location(e.resident) != id)
            MEMPOD_PANIC(
                "invariant violated [remap_bijection]: %s slot %llu "
                "holds id %u whose location entry points to %llu",
                what, static_cast<unsigned long long>(id), e.resident,
                static_cast<unsigned long long>(location(e.resident)));
    });
}

void
checkAmmatAttribution(const RunResult &r)
{
    const double sum = r.attribution.totalNs();
    if (!relClose(sum, r.ammatNs, 1e-9))
        MEMPOD_PANIC(
            "invariant violated [ammat_attribution_sum]: components "
            "sum to %.9f ns but measured AMMAT is %.9f ns "
            "(mshr=%.9f meta=%.9f blocked=%.9f queue=%.9f svc=%.9f)",
            sum, r.ammatNs, r.attribution.mshrWaitNs,
            r.attribution.metadataNs, r.attribution.blockedNs,
            r.attribution.queueWaitNs, r.attribution.serviceNs);
}

void
checkEnergyBalance(const MemorySystem::Stats &stats,
                   bool pod_local_migrations,
                   const EnergyEstimate &reported)
{
    const EnergyEstimate expect =
        estimateEnergy(stats, pod_local_migrations);
    if (!relClose(reported.demandUj, expect.demandUj, 1e-9) ||
        !relClose(reported.migrationUj, expect.migrationUj, 1e-9) ||
        !relClose(reported.bookkeepingUj, expect.bookkeepingUj, 1e-9))
        MEMPOD_PANIC(
            "invariant violated [energy_balance]: reported "
            "(%.6f, %.6f, %.6f) uJ but the line counters recompute to "
            "(%.6f, %.6f, %.6f) uJ",
            reported.demandUj, reported.migrationUj,
            reported.bookkeepingUj, expect.demandUj,
            expect.migrationUj, expect.bookkeepingUj);
    if (!relClose(reported.totalUj(),
                  reported.demandUj + reported.migrationUj +
                      reported.bookkeepingUj,
                  1e-12))
        MEMPOD_PANIC("invariant violated [energy_balance]: terms do "
                     "not sum to the reported total");
}

void
checkMigrationConservation(const char *mechanism,
                           std::uint64_t migrations,
                           std::uint64_t engine_commits)
{
    if (migrations != engine_commits)
        MEMPOD_PANIC(
            "invariant violated [migration_conservation]: %s counted "
            "%llu migrations but its engine committed %llu",
            mechanism, static_cast<unsigned long long>(migrations),
            static_cast<unsigned long long>(engine_commits));
}

InvariantChecker::InvariantChecker(const SimConfig &config,
                                   const TraceFrontend &frontend,
                                   const MemorySystem &mem,
                                   const MemoryManager &manager,
                                   const DecisionLog *decisions,
                                   TimePs period_ps)
    : config_(config),
      frontend_(frontend),
      mem_(mem),
      manager_(manager),
      decisions_(decisions),
      periodPs_(period_ps > 0 ? period_ps : 1)
{
}

void
InvariantChecker::checkLiveCounters()
{
    const std::uint64_t completed = frontend_.completed();
    if (completed < lastCompleted_)
        MEMPOD_PANIC("invariant violated [demand_conservation]: "
                     "completed count went backwards (%llu -> %llu)",
                     static_cast<unsigned long long>(lastCompleted_),
                     static_cast<unsigned long long>(completed));
    lastCompleted_ = completed;
    if (frontend_.outstanding() > config_.maxOutstanding)
        MEMPOD_PANIC("invariant violated [demand_conservation]: %u "
                     "demands in flight exceeds the MSHR cap %u",
                     frontend_.outstanding(), config_.maxOutstanding);
    if (decisions_) {
        const std::uint64_t resolved = decisions_->committedCount() +
                                       decisions_->abortedCount();
        if (resolved > decisions_->size())
            MEMPOD_PANIC(
                "invariant violated [decision_conservation]: %llu "
                "outcomes resolved for %llu recorded decisions",
                static_cast<unsigned long long>(resolved),
                static_cast<unsigned long long>(decisions_->size()));
    }
}

void
InvariantChecker::periodicCheck(TimePs now)
{
    if (now < nextCheckPs_)
        return;
    nextCheckPs_ = now + periodPs_;
    ++checksRun_;
    checkLiveCounters();
    manager_.validateInvariants(config_.validateParanoid);
}

void
InvariantChecker::finalCheck(const RunResult &r)
{
    ++checksRun_;

    // Demand conservation: at drain, everything issued has completed
    // and landed on exactly one tier.
    if (r.completed != r.demandRequests)
        MEMPOD_PANIC(
            "invariant violated [demand_conservation]: %llu of %llu "
            "demand requests completed at end of run",
            static_cast<unsigned long long>(r.completed),
            static_cast<unsigned long long>(r.demandRequests));
    const std::uint64_t demand_lines =
        r.memStats.demandFast + r.memStats.demandSlow;
    if (demand_lines != r.demandRequests)
        MEMPOD_PANIC(
            "invariant violated [demand_conservation]: tiers served "
            "%llu demand lines for %llu requests",
            static_cast<unsigned long long>(demand_lines),
            static_cast<unsigned long long>(r.demandRequests));

    // Sampled runs suppress stall accounting during fast-forward
    // windows while the channel counters keep accumulating, so the
    // exact partition only holds at uniform fidelity. The sampled
    // estimate is validated against the detailed golden by CI instead.
    if (!config_.sampling.enabled)
        checkAmmatAttribution(r);

    // Migration traffic conservation: each committed swap reads and
    // writes both sides, so the channels must have seen exactly two
    // line transfers per migrated line of data.
    const std::uint64_t moved_lines = r.migration.bytesMoved / kLineBytes;
    if (r.memStats.migrationLines() != 2 * moved_lines)
        MEMPOD_PANIC(
            "invariant violated [migration_traffic]: channels saw "
            "%llu migration line transfers but the manager moved "
            "%llu lines of data (expected %llu transfers)",
            static_cast<unsigned long long>(
                r.memStats.migrationLines()),
            static_cast<unsigned long long>(moved_lines),
            static_cast<unsigned long long>(2 * moved_lines));

    // Energy terms must recompute exactly from those line counters.
    checkEnergyBalance(r.memStats, r.podLocalMigrations,
                       estimateEnergy(r.memStats,
                                      r.podLocalMigrations));

    if (decisions_) {
        if (decisions_->committedCount() != r.migration.migrations)
            MEMPOD_PANIC(
                "invariant violated [decision_conservation]: ledger "
                "committed %llu decisions but the run migrated %llu",
                static_cast<unsigned long long>(
                    decisions_->committedCount()),
                static_cast<unsigned long long>(
                    r.migration.migrations));
    }

    // Final deep scan regardless of the periodic mode: the run is
    // over, and the remap scans walk only the stored off-identity
    // entries (O(migrations), not O(pages)).
    manager_.validateInvariants(true);
}

} // namespace mempod
