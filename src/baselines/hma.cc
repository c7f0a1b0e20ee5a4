#include "baselines/hma.h"

#include "common/decision_log.h"
#include "common/flat_map.h"
#include "sim/validate.h"

namespace mempod {

HmaManager::HmaManager(EventQueue &eq, MemorySystem &mem,
                       const HmaParams &params)
    : eq_(eq),
      mem_(mem),
      params_(params),
      counters_(mem.geom().totalPages(), params.counterBits),
      placement_(mem.geom().totalPages(), mem.geom().fastPages()),
      engine_(eq, mem, /*max_in_flight_ops=*/1, "hma.engine"),
      guard_(eq, engine_, mstats_, "hma", "page", DecisionLog::kNoPod,
             [this](std::uint64_t, Demand d) {
                 issueToCurrentLocation(d);
             }),
      epochTimer_(eq, params.interval, [this] { onInterval(); })
{
    if (params_.metaCacheEnabled) {
        const std::uint64_t fast_bytes = mem.geom().fastBytes;
        metaPath_.emplace(
            eq, mem, mstats_, params_.metaCacheBytes,
            params_.metaCacheAssoc, params_.counterEntryBytes,
            [fast_bytes](std::uint64_t block) {
                // Counters live in a backing store carved out of
                // stacked memory.
                return (block * MetadataCache::kBlockBytes) % fast_bytes;
            });
    }
}

void
HmaManager::handleDemand(Demand d)
{
    if (!metaPath_) {
        proceed(d);
        return;
    }
    // The per-page counter must be fetched to be updated; a miss
    // blocks the request just like the paper's model.
    const PageId page = AddressMap::pageOf(d.homeAddr);
    metaPath_->access(page, [this, d] { proceed(d); });
}

void
HmaManager::proceed(Demand d)
{
    const PageId page = AddressMap::pageOf(d.homeAddr);
    counters_.touch(page);
    if (DecisionLog *log = eq_.decisions())
        log->noteAccess(DecisionLog::kNoPod, page,
                        placement_.inFast(page), eq_.now());
    if (!guard_.park(page, d))
        issueToCurrentLocation(d);
}

void
HmaManager::issueToCurrentLocation(Demand d)
{
    const PageId page = AddressMap::pageOf(d.homeAddr);
    const Addr addr = AddressMap::addrOfPage(placement_.locationOf(page)) +
                      d.homeAddr % kPageBytes;
    mem_.access(Request::demand(addr, d));
}

void
HmaManager::start()
{
    epochTimer_.start();
}

void
HmaManager::onInterval()
{
    ++mstats_.intervals;

    // The OS interrupt: the cores sort counters for sortStall; they
    // issue no memory requests meanwhile (the application is paused,
    // not queuing up memory stall).
    if (stallHook_)
        stallHook_(params_.sortStall);

    engine_.clearQueued();

    const auto ranked = counters_.topN(params_.maxMigrationsPerInterval);
    FlatSet hot_set(ranked.size());
    for (const auto &e : ranked)
        if (e.count >= params_.threshold)
            hot_set.insert(e.id);

    for (const auto &e : ranked) {
        if (e.count < params_.threshold)
            break; // ranked is sorted descending
        const PageId page = e.id;
        if (guard_.reserved(page))
            continue;
        if (placement_.inFast(page)) {
            ++mstats_.candidatesSkipped;
            continue;
        }
        const std::uint64_t victim =
            placement_.nextVictimSlot([&](std::uint64_t resident) {
                return hot_set.contains(resident) ||
                       guard_.reserved(resident);
            });
        if (victim == RemapTable::kNoSlot)
            break;
        const std::uint64_t resident = placement_.residentOf(victim);
        guard_.schedule(
            {.keyA = page,
             .keyB = resident,
             .page = page,
             .victim = resident,
             .count = static_cast<std::uint32_t>(e.count),
             .trigger = "candidate_selected",
             .argA = "hot_page",
             .valA = page,
             .argB = "victim_page",
             .valB = resident,
             .locA = AddressMap::addrOfPage(placement_.locationOf(page)),
             .locB = AddressMap::addrOfPage(victim),
             .lines = static_cast<std::uint32_t>(kLinesPerPage),
             .apply = [this, page, resident] {
                 placement_.swap(page, resident);
             }});
    }

    counters_.reset();
}

void
HmaManager::validateInvariants(bool paranoid) const
{
    checkMigrationConservation("HMA", mstats_.migrations,
                               engine_.stats().opsCommitted);
    if (paranoid)
        placement_.checkConsistency();
}

std::uint64_t
HmaManager::pendingWork() const
{
    return guard_.parkedCount() + engine_.queuedOps() +
           engine_.activeOps() +
           (metaPath_ ? metaPath_->outstandingFills() : 0);
}

} // namespace mempod
