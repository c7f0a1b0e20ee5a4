#include "baselines/hma.h"

#include <memory>

#include "common/decision_log.h"
#include "common/log.h"
#include "common/tracer.h"
#include "mem/manager_factory.h"
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
      epochTimer_(eq, params.interval, [this] { onInterval(); })
{
    if (params_.metaCacheEnabled) {
        const std::uint64_t fast_bytes = mem.geom().fastBytes;
        metaPath_.emplace(
            eq, mem, params_.metaCacheBytes, params_.metaCacheAssoc,
            params_.counterEntryBytes, [fast_bytes](std::uint64_t block) {
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
        proceed(std::move(d));
        return;
    }
    // The per-page counter must be fetched to be updated; a miss
    // blocks the request just like the paper's model.
    const PageId page = AddressMap::pageOf(d.homeAddr);
    const std::uint64_t misses_before = metaPath_->misses();
    const TimePs t0 = eq_.now();
    metaPath_->access(page, [this, t0, d = std::move(d)]() mutable {
        mstats_.metadataPs += eq_.now() - t0;
        proceed(std::move(d));
    });
    if (metaPath_->misses() > misses_before)
        ++mstats_.metaCacheMisses;
    else
        ++mstats_.metaCacheHits;
}

void
HmaManager::proceed(Demand d)
{
    const PageId page = AddressMap::pageOf(d.homeAddr);
    counters_.touch(page);
    if (DecisionLog *log = eq_.decisions())
        log->noteAccess(DecisionLog::kNoPod, page,
                               placement_.inFast(page), eq_.now());
    if (locks_.isLocked(page)) {
        ++mstats_.blockedRequests;
        d.parkedAt = eq_.now();
        if (d.traceId != 0) {
            if (Tracer *tr = eq_.tracer()) {
                TraceArgs a;
                a.add("page", page);
                tr->asyncBegin(tr->track("hma"), eq_.now(), "req",
                               d.traceId, "blocked", a.str());
            }
        }
        locks_.park(page, std::move(d));
        return;
    }
    issueToCurrentLocation(std::move(d));
}

void
HmaManager::issueToCurrentLocation(Demand d)
{
    const PageId page = AddressMap::pageOf(d.homeAddr);
    const std::uint64_t slot = placement_.locationOf(page);
    Request req;
    req.addr = AddressMap::addrOfPage(slot) + d.homeAddr % kPageBytes;
    req.type = d.type;
    req.kind = Request::Kind::kDemand;
    req.arrival = d.arrival;
    req.core = d.core;
    req.traceId = d.traceId;
    req.onComplete = std::move(d.done);
    mem_.access(std::move(req));
}

void
HmaManager::start()
{
    epochTimer_.start();
}

std::uint64_t
HmaManager::findVictimSlot(
    const std::unordered_set<std::uint64_t> &hot_set)
{
    const std::uint64_t fast_slots = placement_.fastSlots();
    for (std::uint64_t n = 0; n < fast_slots; ++n) {
        const std::uint64_t slot = victimScan_;
        victimScan_ = (victimScan_ + 1) % fast_slots;
        const std::uint64_t resident = placement_.residentOf(slot);
        if (hot_set.contains(resident) || busy_.contains(resident))
            continue;
        return slot;
    }
    return ~std::uint64_t{0};
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
    std::unordered_set<std::uint64_t> hot_set;
    hot_set.reserve(ranked.size() * 2);
    for (const auto &e : ranked)
        if (e.count >= params_.threshold)
            hot_set.insert(e.id);

    for (const auto &e : ranked) {
        if (e.count < params_.threshold)
            break; // ranked is sorted descending
        const PageId page = e.id;
        if (busy_.contains(page))
            continue;
        if (placement_.inFast(page)) {
            ++mstats_.candidatesSkipped;
            continue;
        }
        const std::uint64_t victim = findVictimSlot(hot_set);
        if (victim == ~std::uint64_t{0})
            break;
        const std::uint64_t resident = placement_.residentOf(victim);
        busy_.insert(page);
        busy_.insert(resident);
        DecisionLog *log = eq_.decisions();
        const std::uint64_t decision =
            log ? log->record(DecisionLog::kNoPod, page, resident,
                              e.count, eq_.now())
                : DecisionLog::kNoId;

        std::uint64_t flow = 0;
        if (Tracer *tr = eq_.tracer()) {
            flow = tr->newFlowId();
            const std::uint32_t tid = tr->track("hma");
            TraceArgs a;
            a.add("hot_page", page).add("victim_page", resident);
            tr->instant(tid, eq_.now(), "candidate_selected", a.str());
            tr->asyncBegin(tid, eq_.now(), "mig", flow, "migration",
                           a.str());
            tr->flowStart(tid, eq_.now(), "mig", flow, "migration");
        }

        MigrationEngine::SwapOp op;
        op.locA = AddressMap::addrOfPage(placement_.locationOf(page));
        op.locB = AddressMap::addrOfPage(victim);
        op.lines = static_cast<std::uint32_t>(kLinesPerPage);
        op.traceId = flow;
        auto release = [this](std::uint64_t key) {
            busy_.erase(key);
            const TimePs now = eq_.now();
            for (auto &d : locks_.unlock(key)) {
                mstats_.blockedPs += now - d.parkedAt;
                if (d.traceId != 0) {
                    if (Tracer *tr = eq_.tracer())
                        tr->asyncEnd(tr->track("hma"), now, "req",
                                     d.traceId, "blocked");
                }
                issueToCurrentLocation(std::move(d));
            }
        };
        // Demands block only while the data is actually in flight.
        op.onStart = [this, page, resident] {
            locks_.lock(page);
            locks_.lock(resident);
        };
        op.onCommit = [this, page, resident, release, flow, decision] {
            placement_.swap(page, resident);
            ++mstats_.migrations;
            mstats_.bytesMoved += 2 * kPageBytes;
            if (decision != DecisionLog::kNoId)
                eq_.decisions()->commit(decision, eq_.now());
            if (flow != 0) {
                if (Tracer *tr = eq_.tracer()) {
                    const std::uint32_t tid = tr->track("hma");
                    tr->instant(tid, eq_.now(), "remap_commit");
                    tr->flowEnd(tid, eq_.now(), "mig", flow, "migration");
                    tr->asyncEnd(tid, eq_.now(), "mig", flow,
                                 "migration");
                }
            }
            release(page);
            release(resident);
        };
        op.onAbort = [this, page, resident, release, flow, decision] {
            if (decision != DecisionLog::kNoId)
                eq_.decisions()->abort(decision, eq_.now());
            if (flow != 0) {
                if (Tracer *tr = eq_.tracer()) {
                    const std::uint32_t tid = tr->track("hma");
                    tr->instant(tid, eq_.now(), "swap_aborted");
                    tr->flowEnd(tid, eq_.now(), "mig", flow, "migration");
                    tr->asyncEnd(tid, eq_.now(), "mig", flow,
                                 "migration");
                }
            }
            release(page);
            release(resident);
        };
        engine_.submit(std::move(op));
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
    return locks_.parkedCount() + engine_.queuedOps() +
           engine_.activeOps() +
           (metaPath_ ? metaPath_->outstandingFills() : 0);
}

MEMPOD_REGISTER_MANAGER(
    Mechanism::kHma,
    [](const SimConfig &cfg, EventQueue &eq, MemorySystem &mem) {
        return std::make_unique<HmaManager>(eq, mem, cfg.hma);
    })

} // namespace mempod
