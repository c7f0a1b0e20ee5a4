#include "core/swap_guard.h"

#include "common/log.h"
#include "common/tracer.h"

namespace mempod {

SwapGuard::SwapGuard(EventQueue &eq, MigrationEngine &engine,
                     MigrationStats &stats, std::string track,
                     const char *key_arg, std::uint32_t pod,
                     ResumeFn resume)
    : eq_(eq),
      engine_(engine),
      stats_(stats),
      track_(std::move(track)),
      keyArg_(key_arg),
      pod_(pod),
      resume_(std::move(resume))
{
}

void
SwapGuard::schedule(Swap s)
{
    const std::uint64_t key = s.keyA;
    reserve(key);
    if (s.keyB != kNoKey)
        reserve(s.keyB);
    // Both reservations are in: no insertion below can move the entry.
    Entry &e = keys_.at(key);
    e.partner = s.keyB;
    e.lines = s.lines;
    e.apply = std::move(s.apply);
    DecisionLog *log = eq_.decisions();
    e.decision = log ? log->record(pod_, s.page, s.victim, s.count,
                                   eq_.now())
                     : DecisionLog::kNoId;

    // Migration lifecycle: the trigger selects the candidate here; the
    // flow continues through the engine's swap and ends at finish().
    if (Tracer *tr = eq_.tracer()) {
        e.flow = tr->newFlowId();
        const std::uint32_t tid = tr->track(track_);
        TraceArgs a;
        a.add(s.argA, s.valA).add(s.argB, s.valB);
        tr->instant(tid, eq_.now(), s.trigger, a.str());
        tr->asyncBegin(tid, eq_.now(), "mig", e.flow, "migration",
                       a.str());
        tr->flowStart(tid, eq_.now(), "mig", e.flow, "migration");
    }

    MigrationEngine::SwapOp op;
    op.locA = s.locA;
    op.locB = s.locB;
    op.lines = s.lines;
    op.owner = this;
    op.key = key;
    op.traceId = e.flow;
    engine_.submit(op);
}

void
SwapGuard::reserve(std::uint64_t key)
{
    MEMPOD_ASSERT(keys_.tryEmplace(key).second,
                  "swap key %llu already reserved",
                  static_cast<unsigned long long>(key));
}

void
SwapGuard::start(std::uint64_t key)
{
    Entry &e = keys_.at(key);
    e.locked = true;
    if (e.partner != kNoKey)
        keys_.at(e.partner).locked = true;
}

void
SwapGuard::parkOn(Entry &e, std::uint64_t key, const Demand &d)
{
    ++stats_.blockedRequests;
    ++parked_;
    e.parked.push_back(d);
    e.parked.back().parkedAt = eq_.now();
    if (d.traceId != 0) {
        if (Tracer *tr = eq_.tracer()) {
            TraceArgs a;
            a.add(keyArg_, key);
            tr->asyncBegin(tr->track(track_), eq_.now(), "req",
                           d.traceId, "blocked", a.str());
        }
    }
}

void
SwapGuard::finish(std::uint64_t key, bool committed)
{
    // Nothing below inserts or erases a key before release(): `e` holds.
    Entry &e = keys_.at(key);
    if (committed) {
        e.apply();
        ++stats_.migrations;
        stats_.bytesMoved += 2ull * e.lines * kLineBytes;
    }
    if (e.decision != DecisionLog::kNoId) {
        if (committed)
            eq_.decisions()->commit(e.decision, eq_.now());
        else
            eq_.decisions()->abort(e.decision, eq_.now());
    }
    if (e.flow != 0) {
        if (Tracer *tr = eq_.tracer()) {
            const std::uint32_t tid = tr->track(track_);
            tr->instant(tid, eq_.now(),
                        committed ? "remap_commit" : "swap_aborted");
            tr->flowEnd(tid, eq_.now(), "mig", e.flow, "migration");
            tr->asyncEnd(tid, eq_.now(), "mig", e.flow, "migration");
        }
    }
    const std::uint64_t partner = e.partner;
    release(key);
    if (partner != kNoKey)
        release(partner);
}

void
SwapGuard::release(std::uint64_t key)
{
    // Take the parked list out before resuming anything: a resumed
    // demand may schedule and start a new swap on this key, and the
    // rest of the list must then re-park behind it.
    std::vector<Demand> parked = keys_.take(key).parked;
    MEMPOD_ASSERT(parked_ >= parked.size(), "parked accounting");
    parked_ -= parked.size();
    const TimePs now = eq_.now();
    for (Demand &d : parked) {
        stats_.blockedPs += now - d.parkedAt;
        d.parkedAt = 0;
        if (d.traceId != 0) {
            if (Tracer *tr = eq_.tracer())
                tr->asyncEnd(tr->track(track_), now, "req", d.traceId,
                             "blocked");
        }
        resume_(key, d);
    }
}

} // namespace mempod
