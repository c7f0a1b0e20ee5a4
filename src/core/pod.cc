#include "core/pod.h"

#include <algorithm>

#include "common/decision_log.h"
#include "common/flat_map.h"
#include "sim/validate.h"

namespace mempod {

namespace {

std::uint32_t
effectiveMigrationCap(const PodParams &p)
{
    return p.maxMigrationsPerInterval ? p.maxMigrationsPerInterval
                                      : p.meaEntries;
}

std::uint32_t
podIdBits(std::uint64_t pages_per_pod)
{
    std::uint32_t bits = 0;
    while ((1ull << bits) < pages_per_pod)
        ++bits;
    return bits;
}

} // namespace

Pod::Pod(std::uint32_t id, EventQueue &eq, MemorySystem &mem,
         const PodParams &params)
    : id_(id),
      eq_(eq),
      mem_(mem),
      params_(params),
      mea_(params.meaEntries, params.meaCounterBits,
           podIdBits(mem.geom().pagesPerPod())),
      remap_(mem.geom().pagesPerPod(), mem.geom().fastPagesPerPod()),
      engine_(eq, mem, /*max_in_flight_ops=*/1,
              "pod" + std::to_string(id) + ".engine"),
      guard_(eq, engine_, stats_, "pod" + std::to_string(id), "page", id,
             [this](std::uint64_t local, Demand d) {
                 issueToCurrentLocation(local, d);
             })
{
    if (params_.metaCacheEnabled) {
        metaPath_.emplace(eq, mem, stats_, params_.metaCacheBytes,
                          params_.metaCacheAssoc, params_.remapEntryBytes,
                          [this](std::uint64_t block) {
                              return backingAddrOfBlock(block);
                          });
    }
}

Addr
Pod::addrOfSlot(std::uint64_t slot) const
{
    return AddressMap::addrOfPage(mem_.map().pageOfPodLocal(id_, slot));
}

Addr
Pod::backingAddrOfBlock(std::uint64_t block) const
{
    // The backing store occupies the tail of this Pod's fast slots.
    const std::uint64_t byte_off = block * MetadataCache::kBlockBytes;
    const std::uint64_t page_off = byte_off / kPageBytes;
    const std::uint64_t fast_slots = remap_.fastSlots();
    const std::uint64_t slot =
        fast_slots - 1 - (page_off % fast_slots);
    return addrOfSlot(slot) + byte_off % kPageBytes;
}

void
Pod::handleDemand(Demand d)
{
    const std::uint64_t local =
        mem_.map().podLocalOfPage(AddressMap::pageOf(d.homeAddr));
    mea_.touch(local);
    if (DecisionLog *log = eq_.decisions())
        log->noteAccess(id_, local, remap_.inFast(local), eq_.now());
    if (!metaPath_) {
        proceed(local, d);
        return;
    }
    metaPath_->access(local, [this, local, d] { proceed(local, d); });
}

void
Pod::proceed(std::uint64_t local, Demand d)
{
    if (!guard_.park(local, d))
        issueToCurrentLocation(local, d);
}

void
Pod::issueToCurrentLocation(std::uint64_t local, Demand d)
{
    const Addr addr =
        addrOfSlot(remap_.locationOf(local)) + d.homeAddr % kPageBytes;
    mem_.access(Request::demand(addr, d));
}

void
Pod::scheduleSwap(std::uint64_t hot_local, std::uint64_t victim_resident,
                  std::uint32_t tracker_count)
{
    guard_.schedule(
        {.keyA = hot_local,
         .keyB = victim_resident,
         .page = hot_local,
         .victim = victim_resident,
         .count = tracker_count,
         .trigger = "mea_victory",
         .argA = "hot_page",
         .valA = hot_local,
         .argB = "victim_page",
         .valB = victim_resident,
         .locA = addrOfSlot(remap_.locationOf(hot_local)),
         .locB = addrOfSlot(remap_.locationOf(victim_resident)),
         .lines = static_cast<std::uint32_t>(kLinesPerPage),
         .apply = [this, hot_local, victim_resident] {
             remap_.swap(hot_local, victim_resident);
         }});
}

void
Pod::onInterval()
{
    ++stats_.intervals;
    // Candidates identified last interval but never started are stale.
    engine_.clearQueued();

    const auto hot = mea_.snapshot();
    FlatSet hot_set(hot.size());
    for (const auto &e : hot)
        hot_set.insert(e.id);

    const std::uint32_t cap = effectiveMigrationCap(params_);
    // Narrow counters saturate below the configured floor; clamp so a
    // 1-bit configuration still migrates its (count-1) tracked pages.
    const std::uint32_t min_hot =
        std::min(params_.minHotCount, mea_.counterMax());
    std::uint32_t scheduled = 0;
    for (const auto &e : hot) {
        if (scheduled >= cap)
            break;
        if (e.count < min_hot)
            break; // hot list is sorted by count
        const std::uint64_t h = e.id;
        if (guard_.reserved(h))
            continue;
        if (remap_.inFast(h)) {
            ++stats_.candidatesSkipped; // already resident in fast
            continue;
        }
        const std::uint64_t victim =
            remap_.nextVictimSlot([&](std::uint64_t resident) {
                return hot_set.contains(resident) ||
                       guard_.reserved(resident);
            });
        if (victim == RemapTable::kNoSlot)
            break; // every fast slot is hot or busy
        scheduleSwap(h, remap_.residentOf(victim), e.count);
        ++scheduled;
    }
    mea_.reset();
}

void
Pod::validateInvariants(bool paranoid) const
{
    checkMigrationConservation(("pod" + std::to_string(id_)).c_str(),
                               stats_.migrations,
                               engine_.stats().opsCommitted);
    if (paranoid)
        remap_.checkConsistency();
}

std::uint64_t
Pod::pendingWork() const
{
    return guard_.parkedCount() + engine_.queuedOps() +
           engine_.activeOps() +
           (metaPath_ ? metaPath_->outstandingFills() : 0);
}

void
Pod::registerMetrics(MetricRegistry &reg) const
{
    const std::string p = "pod" + std::to_string(id_);
    reg.attachCounter(p + ".migration.migrations",
                      "page swaps committed by this Pod",
                      &stats_.migrations);
    reg.attachCounter(p + ".migration.bytes_moved",
                      "migration bytes moved by this Pod",
                      &stats_.bytesMoved);
    reg.attachCounter(p + ".migration.blocked_requests",
                      "demands delayed by an in-progress swap",
                      &stats_.blockedRequests);
    reg.attachCounter(p + ".migration.intervals",
                      "interval-trigger firings seen by this Pod",
                      &stats_.intervals);
    reg.attachCounter(p + ".migration.candidates_skipped",
                      "hot candidates already resident in fast",
                      &stats_.candidatesSkipped);
    reg.attachCounter(p + ".migration.blocked_ps",
                      "summed demand delay behind this Pod's swaps",
                      &stats_.blockedPs);
    reg.attachCounter(p + ".migration.metadata_ps",
                      "summed demand delay on metadata-cache misses",
                      &stats_.metadataPs);
    reg.addGauge(p + ".blocked_demands",
                 "demand requests currently held by a swap lock",
                 [this] {
                     return static_cast<double>(guard_.parkedCount());
                 });

    reg.addCounterFn(p + ".mea.sweeps",
                     "MEA decrement-all sweeps (operation (c))",
                     [this] { return mea_.sweeps(); });
    reg.addCounterFn(p + ".mea.evictions",
                     "MEA entries evicted at count zero",
                     [this] { return mea_.evictions(); });
    reg.addCounterFn(p + ".mea.resets",
                     "MEA tracker clears at interval boundaries",
                     [this] { return mea_.resets(); });
    reg.addGauge(p + ".mea.tracked_entries",
                 "pages currently tracked by the MEA map",
                 [this] { return static_cast<double>(mea_.size()); });

    reg.addGauge(p + ".remap.occupied_fast_slots",
                 "fast slots holding a page other than their home",
                 [this] {
                     return static_cast<double>(
                         remap_.occupiedFastSlots());
                 });
    reg.addGauge(p + ".remap.occupancy",
                 "fraction of fast slots holding a migrated page",
                 [this] { return remap_.fastOccupancy(); });

    engine_.registerMetrics(reg, p + ".engine");
    if (metaPath_)
        metaPath_->registerMetrics(reg, p + ".meta_cache");
}

} // namespace mempod
