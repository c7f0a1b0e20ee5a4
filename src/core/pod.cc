#include "core/pod.h"

#include <algorithm>

#include "common/decision_log.h"
#include "common/log.h"
#include "common/tracer.h"
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
              "pod" + std::to_string(id) + ".engine")
{
    if (params_.metaCacheEnabled) {
        metaPath_.emplace(eq, mem, params_.metaCacheBytes,
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
Pod::handleDemand(PageId home_page, std::uint64_t offset_in_page,
                  Demand d)
{
    const std::uint64_t local = mem_.map().podLocalOfPage(home_page);
    mea_.touch(local);
    if (DecisionLog *log = eq_.decisions())
        log->noteAccess(id_, local, remap_.inFast(local),
                               eq_.now());
    BlockedReq r{offset_in_page, d.type,    d.arrival,
                 d.core,         d.traceId, /*parkedAt=*/0,
                 std::move(d.done)};
    if (!metaPath_) {
        proceed(local, std::move(r));
        return;
    }
    const std::uint64_t misses_before = metaPath_->misses();
    const TimePs t0 = eq_.now();
    metaPath_->access(local,
                      [this, local, t0, r = std::move(r)]() mutable {
                          // Hits continue synchronously (zero delay);
                          // misses charge the fill wait to metadata.
                          stats_.metadataPs += eq_.now() - t0;
                          proceed(local, std::move(r));
                      });
    if (metaPath_->misses() > misses_before)
        ++stats_.metaCacheMisses;
    else
        ++stats_.metaCacheHits;
}

void
Pod::proceed(std::uint64_t local, BlockedReq r)
{
    if (locked_.contains(local)) {
        ++stats_.blockedRequests;
        ++blockedCount_;
        r.parkedAt = eq_.now();
        if (r.traceId != 0) {
            if (Tracer *tr = eq_.tracer()) {
                TraceArgs a;
                a.add("page", local);
                tr->asyncBegin(podTrack(*tr), eq_.now(), "req",
                               r.traceId, "blocked", a.str());
            }
        }
        blocked_[local].push_back(std::move(r));
        return;
    }
    issueToCurrentLocation(local, std::move(r));
}

void
Pod::issueToCurrentLocation(std::uint64_t local, BlockedReq r)
{
    const std::uint64_t slot = remap_.locationOf(local);
    Request req;
    req.addr = addrOfSlot(slot) + r.offset;
    req.type = r.type;
    req.kind = Request::Kind::kDemand;
    req.arrival = r.arrival;
    req.core = r.core;
    req.traceId = r.traceId;
    req.onComplete = std::move(r.done);
    mem_.access(std::move(req));
}

std::uint64_t
Pod::findVictimSlot(const std::unordered_set<std::uint64_t> &hot_set)
{
    const std::uint64_t fast_slots = remap_.fastSlots();
    for (std::uint64_t n = 0; n < fast_slots; ++n) {
        const std::uint64_t slot = victimScan_;
        victimScan_ = (victimScan_ + 1) % fast_slots;
        const std::uint64_t resident = remap_.residentOf(slot);
        if (hot_set.contains(resident) || migrating_.contains(resident))
            continue;
        return slot;
    }
    return kNoSlot;
}

std::uint32_t
Pod::podTrack(Tracer &tr) const
{
    return tr.track("pod" + std::to_string(id_));
}

void
Pod::scheduleSwap(std::uint64_t hot_local, std::uint64_t victim_resident,
                  std::uint32_t tracker_count)
{
    migrating_.insert(hot_local);
    migrating_.insert(victim_resident);
    DecisionLog *log = eq_.decisions();
    const std::uint64_t decision =
        log ? log->record(id_, hot_local, victim_resident, tracker_count,
                          eq_.now())
            : DecisionLog::kNoId;

    // Migration lifecycle: the MEA victory selects the candidate here;
    // the flow continues through the engine's swap and ends at the
    // remap commit below.
    std::uint64_t flow = 0;
    if (Tracer *tr = eq_.tracer()) {
        flow = tr->newFlowId();
        const std::uint32_t tid = podTrack(*tr);
        TraceArgs a;
        a.add("hot_page", hot_local).add("victim_page", victim_resident);
        tr->instant(tid, eq_.now(), "mea_victory", a.str());
        tr->asyncBegin(tid, eq_.now(), "mig", flow, "migration",
                       a.str());
        tr->flowStart(tid, eq_.now(), "mig", flow, "migration");
    }

    MigrationEngine::SwapOp op;
    op.locA = addrOfSlot(remap_.locationOf(hot_local));
    op.locB = addrOfSlot(remap_.locationOf(victim_resident));
    op.lines = static_cast<std::uint32_t>(kLinesPerPage);
    op.traceId = flow;
    op.onStart = [this, hot_local, victim_resident] {
        locked_.insert(hot_local);
        locked_.insert(victim_resident);
    };
    op.onCommit = [this, hot_local, victim_resident, flow, decision] {
        remap_.swap(hot_local, victim_resident);
        ++stats_.migrations;
        stats_.bytesMoved += 2 * kPageBytes;
        if (decision != DecisionLog::kNoId)
            eq_.decisions()->commit(decision, eq_.now());
        if (flow != 0) {
            if (Tracer *tr = eq_.tracer()) {
                const std::uint32_t tid = podTrack(*tr);
                tr->instant(tid, eq_.now(), "remap_commit");
                tr->flowEnd(tid, eq_.now(), "mig", flow, "migration");
                tr->asyncEnd(tid, eq_.now(), "mig", flow, "migration");
            }
        }
        unlockAndDrain(hot_local);
        unlockAndDrain(victim_resident);
    };
    op.onAbort = [this, hot_local, victim_resident, flow, decision] {
        if (decision != DecisionLog::kNoId)
            eq_.decisions()->abort(decision, eq_.now());
        if (flow != 0) {
            if (Tracer *tr = eq_.tracer()) {
                const std::uint32_t tid = podTrack(*tr);
                tr->instant(tid, eq_.now(), "swap_aborted");
                tr->flowEnd(tid, eq_.now(), "mig", flow, "migration");
                tr->asyncEnd(tid, eq_.now(), "mig", flow, "migration");
            }
        }
        unlockAndDrain(hot_local);
        unlockAndDrain(victim_resident);
    };
    engine_.submit(std::move(op));
}

void
Pod::unlockAndDrain(std::uint64_t local)
{
    migrating_.erase(local);
    locked_.erase(local);
    auto it = blocked_.find(local);
    if (it == blocked_.end())
        return;
    std::vector<BlockedReq> reqs = std::move(it->second);
    blocked_.erase(it);
    MEMPOD_ASSERT(blockedCount_ >= reqs.size(), "blocked accounting");
    blockedCount_ -= reqs.size();
    const TimePs now = eq_.now();
    for (auto &r : reqs) {
        stats_.blockedPs += now - r.parkedAt;
        if (r.traceId != 0) {
            if (Tracer *tr = eq_.tracer())
                tr->asyncEnd(podTrack(*tr), now, "req", r.traceId,
                             "blocked");
        }
        issueToCurrentLocation(local, std::move(r));
    }
}

void
Pod::onInterval()
{
    ++stats_.intervals;
    // Candidates identified last interval but never started are stale.
    engine_.clearQueued();

    const auto hot = mea_.snapshot();
    std::unordered_set<std::uint64_t> hot_set;
    hot_set.reserve(hot.size() * 2);
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
        if (migrating_.contains(h))
            continue;
        if (remap_.inFast(h)) {
            ++stats_.candidatesSkipped; // already resident in fast
            continue;
        }
        const std::uint64_t victim = findVictimSlot(hot_set);
        if (victim == kNoSlot)
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
    return blockedCount_ + engine_.queuedOps() + engine_.activeOps() +
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
                 [this] { return static_cast<double>(blockedCount_); });

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
