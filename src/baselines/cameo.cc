#include "baselines/cameo.h"

#include <bit>
#include <memory>

#include "common/decision_log.h"
#include "common/log.h"
#include "common/tracer.h"
#include "mem/manager_factory.h"
#include "sim/validate.h"

namespace mempod {

CameoManager::CameoManager(EventQueue &eq, MemorySystem &mem,
                           const CameoParams &params)
    : eq_(eq),
      mem_(mem),
      params_(params),
      fastLines_(mem.geom().fastBytes / kLineBytes),
      ratio_(mem.geom().slowBytes / mem.geom().fastBytes),
      engine_(eq, mem, params.engineParallelism, "cameo.engine")
{
    MEMPOD_ASSERT(mem.geom().slowBytes % mem.geom().fastBytes == 0,
                  "CAMEO needs an integer slow:fast capacity ratio");
    MEMPOD_ASSERT(ratio_ >= 1 && ratio_ <= 14,
                  "group ratio %llu does not fit the packed encoding",
                  static_cast<unsigned long long>(ratio_));
}

std::uint64_t
CameoManager::identityState() const
{
    std::uint64_t st = 0;
    for (std::uint32_t m = 0; m <= ratio_; ++m)
        packSlot(st, m, m);
    return st;
}

std::uint64_t &
CameoManager::groupState(std::uint64_t group)
{
    auto it = groups_.find(group);
    if (it != groups_.end())
        return it->second;
    return groups_.emplace(group, identityState()).first->second;
}

std::pair<std::uint64_t, std::uint32_t>
CameoManager::groupOf(LineId line) const
{
    if (line < fastLines_)
        return {line, 0};
    // Contiguous grouping: ratio consecutive slow lines share one fast
    // slot, so spatially local streams swap on every line and thrash —
    // the pathology the paper attributes to CAMEO at 1:8 ratios.
    const std::uint64_t slow_idx = line - fastLines_;
    return {slow_idx / ratio_,
            1 + static_cast<std::uint32_t>(slow_idx % ratio_)};
}

LineId
CameoManager::lineAt(std::uint64_t group, std::uint32_t slot) const
{
    if (slot == 0)
        return group;
    return fastLines_ + group * ratio_ + (slot - 1);
}

std::uint32_t
CameoManager::slotOfMember(std::uint64_t group, std::uint32_t member) const
{
    auto it = groups_.find(group);
    if (it == groups_.end())
        return member; // untouched group: identity
    return unpackSlot(it->second, member);
}

void
CameoManager::handleDemand(Demand d)
{
    proceed(std::move(d));
}

void
CameoManager::proceed(Demand d)
{
    const LineId line = d.homeAddr / kLineBytes;
    const auto [group, member] = groupOf(line);
    if (locks_.isLocked(group)) {
        ++mstats_.blockedRequests;
        d.parkedAt = eq_.now();
        if (d.traceId != 0) {
            if (Tracer *tr = eq_.tracer()) {
                TraceArgs a;
                a.add("group", group);
                tr->asyncBegin(tr->track("cameo"), eq_.now(), "req",
                               d.traceId, "blocked", a.str());
            }
        }
        locks_.park(group, std::move(d));
        return;
    }

    std::uint64_t &st = groupState(group);
    const std::uint32_t slot = unpackSlot(st, member);
    if (DecisionLog *log = eq_.decisions())
        log->noteAccess(DecisionLog::kNoPod, line, slot == 0,
                               eq_.now());

    Request req;
    req.addr =
        lineAt(group, slot) * kLineBytes + d.homeAddr % kLineBytes;
    req.type = d.type;
    req.kind = Request::Kind::kDemand;
    req.arrival = d.arrival;
    req.core = d.core;
    req.traceId = d.traceId;
    req.onComplete = std::move(d.done);
    mem_.access(std::move(req));

    if (slot == 0) {
        st |= kUsedFlag; // the fast-resident line produced a hit
        return;
    }

    // Event trigger: every slow access swaps the line into fast.
    if (busyGroups_.contains(group))
        return; // this group already has a swap in flight
    if (engine_.queuedOps() >= params_.maxQueuedSwaps) {
        ++swapsSkipped_;
        return;
    }
    scheduleSwap(group, member);
}

void
CameoManager::scheduleSwap(std::uint64_t group, std::uint32_t member)
{
    std::uint64_t &st = groupState(group);
    // Find the current fast occupant.
    std::uint32_t occupant = 0;
    for (std::uint32_t m = 0; m <= ratio_; ++m) {
        if (unpackSlot(st, m) == 0) {
            occupant = m;
            break;
        }
    }
    MEMPOD_ASSERT(occupant != member, "swap of fast-resident line");
    busyGroups_.insert(group);
    // CAMEO is event-triggered: a single slow access is the whole
    // activity evidence, so the tracked count is 1.
    DecisionLog *log = eq_.decisions();
    const std::uint64_t decision =
        log ? log->record(DecisionLog::kNoPod, lineAt(group, member),
                          lineAt(group, occupant),
                          /*trackerCount=*/1, eq_.now())
            : DecisionLog::kNoId;

    std::uint64_t flow = 0;
    if (Tracer *tr = eq_.tracer()) {
        flow = tr->newFlowId();
        const std::uint32_t tid = tr->track("cameo");
        TraceArgs a;
        a.add("group", group).add("member", member);
        tr->instant(tid, eq_.now(), "swap_trigger", a.str());
        tr->asyncBegin(tid, eq_.now(), "mig", flow, "migration",
                       a.str());
        tr->flowStart(tid, eq_.now(), "mig", flow, "migration");
    }

    MigrationEngine::SwapOp op;
    op.locA = lineAt(group, unpackSlot(st, member)) * kLineBytes;
    op.locB = lineAt(group, 0) * kLineBytes;
    op.lines = 1;
    op.traceId = flow;
    op.onStart = [this, group] { locks_.lock(group); };
    auto release = [this, group] {
        busyGroups_.erase(group);
        const TimePs now = eq_.now();
        for (auto &d : locks_.unlock(group)) {
            mstats_.blockedPs += now - d.parkedAt;
            d.parkedAt = 0;
            if (d.traceId != 0) {
                if (Tracer *tr = eq_.tracer())
                    tr->asyncEnd(tr->track("cameo"), now, "req",
                                 d.traceId, "blocked");
            }
            proceed(std::move(d));
        }
    };
    op.onCommit = [this, group, member, occupant, release, flow,
                   decision] {
        std::uint64_t &s = groupState(group);
        if ((s & kMigratedFlag) && !(s & kUsedFlag))
            ++mstats_.wastedMigrations; // evicted before ever touched
        const std::uint32_t slot_m = unpackSlot(s, member);
        const std::uint32_t slot_o = unpackSlot(s, occupant);
        packSlot(s, member, slot_o);
        packSlot(s, occupant, slot_m);
        s |= kMigratedFlag;
        s &= ~kUsedFlag;
        ++mstats_.migrations;
        mstats_.bytesMoved += 2 * kLineBytes;
        if (decision != DecisionLog::kNoId)
            eq_.decisions()->commit(decision, eq_.now());
        if (flow != 0) {
            if (Tracer *tr = eq_.tracer()) {
                const std::uint32_t tid = tr->track("cameo");
                tr->instant(tid, eq_.now(), "remap_commit");
                tr->flowEnd(tid, eq_.now(), "mig", flow, "migration");
                tr->asyncEnd(tid, eq_.now(), "mig", flow, "migration");
            }
        }
        release();
    };
    op.onAbort = [this, release, flow, decision] {
        if (decision != DecisionLog::kNoId)
            eq_.decisions()->abort(decision, eq_.now());
        if (flow != 0) {
            if (Tracer *tr = eq_.tracer()) {
                const std::uint32_t tid = tr->track("cameo");
                tr->instant(tid, eq_.now(), "swap_aborted");
                tr->flowEnd(tid, eq_.now(), "mig", flow, "migration");
                tr->asyncEnd(tid, eq_.now(), "mig", flow, "migration");
            }
        }
        release();
    };
    engine_.submit(std::move(op));
}

void
CameoManager::validateInvariants(bool paranoid) const
{
    checkMigrationConservation("CAMEO", mstats_.migrations,
                               engine_.stats().opsCommitted);
    if (!paranoid)
        return;
    for (const auto &[group, st] : groups_) {
        std::uint32_t seen = 0; // ratio_ <= 14, so a bitmask suffices
        for (std::uint32_t m = 0; m <= ratio_; ++m) {
            const std::uint32_t slot = unpackSlot(st, m);
            if (slot > ratio_ || (seen & (1u << slot)))
                MEMPOD_PANIC(
                    "invariant violated [cameo_slot_permutation]: "
                    "group %llu member %u maps to slot %u "
                    "(duplicate or out of range)",
                    static_cast<unsigned long long>(group), m, slot);
            seen |= 1u << slot;
        }
    }
}

std::uint64_t
CameoManager::pendingWork() const
{
    return locks_.parkedCount() + engine_.queuedOps() +
           engine_.activeOps();
}

std::uint64_t
CameoManager::remapStorageBits() const
{
    // One location entry per fast line in the Line Location Table view
    // the paper costs out (72 kB for 1 GB of fast memory): the slot of
    // each group's fast-resident line needs log2(ratio+1) bits, and a
    // full LLT needs one entry per line in the group.
    return fastLines_ * (ratio_ + 1) * std::bit_width(ratio_);
}

MEMPOD_REGISTER_MANAGER(
    Mechanism::kCameo,
    [](const SimConfig &cfg, EventQueue &eq, MemorySystem &mem) {
        return std::make_unique<CameoManager>(eq, mem, cfg.cameo);
    })

} // namespace mempod
