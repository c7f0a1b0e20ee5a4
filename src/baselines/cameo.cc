#include "baselines/cameo.h"

#include <algorithm>
#include <bit>

#include "common/decision_log.h"
#include "common/log.h"
#include "sim/validate.h"

namespace mempod {

CameoManager::CameoManager(EventQueue &eq, MemorySystem &mem,
                           const CameoParams &params)
    : eq_(eq),
      mem_(mem),
      params_(params),
      fastLines_(mem.geom().fastBytes / kLineBytes),
      ratio_(mem.geom().slowBytes / mem.geom().fastBytes),
      ratioDiv_(std::max<std::uint64_t>(ratio_, 1)), // checked below
      engine_(eq, mem, params.engineParallelism, "cameo.engine"),
      guard_(eq, engine_, mstats_, "cameo", "group", DecisionLog::kNoPod,
             [this](std::uint64_t, Demand d) { proceed(d); })
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
    const auto [st, fresh] = groups_.tryEmplace(group);
    if (fresh)
        *st = identityState();
    return *st;
}

std::pair<std::uint64_t, std::uint32_t>
CameoManager::groupOf(LineId line) const
{
    if (line < fastLines_)
        return {line, 0};
    // Contiguous grouping: ratio consecutive slow lines share one fast
    // slot, so spatially local streams swap on every line and thrash —
    // the pathology the paper attributes to CAMEO at 1:8 ratios.
    const auto [group, idx] = ratioDiv_.divmod(line - fastLines_);
    return {group, 1 + static_cast<std::uint32_t>(idx)};
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
    const std::uint64_t *st = groups_.find(group);
    if (!st)
        return member; // untouched group: identity
    return unpackSlot(*st, member);
}

void
CameoManager::handleDemand(Demand d)
{
    proceed(d);
}

void
CameoManager::proceed(Demand d)
{
    const LineId line = d.homeAddr / kLineBytes;
    const auto [group, member] = groupOf(line);
    if (guard_.park(group, d))
        return;

    const std::uint32_t slot = unpackSlot(groupState(group), member);
    if (DecisionLog *log = eq_.decisions())
        log->noteAccess(DecisionLog::kNoPod, line, slot == 0,
                               eq_.now());

    const Addr addr =
        lineAt(group, slot) * kLineBytes + d.homeAddr % kLineBytes;
    mem_.access(Request::demand(addr, d));

    if (slot == 0) {
        // Look the group up again: a synchronous completion (sampled or
        // fast models) may have re-entered and allocated other groups.
        groupState(group) |= kUsedFlag; // the fast line produced a hit
        return;
    }

    // Event trigger: every slow access swaps the line into fast.
    if (guard_.reserved(group))
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
    const std::uint64_t st = groupState(group);
    // Find the current fast occupant.
    std::uint32_t occupant = 0;
    for (std::uint32_t m = 0; m <= ratio_; ++m) {
        if (unpackSlot(st, m) == 0) {
            occupant = m;
            break;
        }
    }
    MEMPOD_ASSERT(occupant != member, "swap of fast-resident line");
    // CAMEO is event-triggered: a single slow access is the whole
    // activity evidence, so the tracked count is 1.
    guard_.schedule(
        {.keyA = group,
         .page = lineAt(group, member),
         .victim = lineAt(group, occupant),
         .count = 1,
         .trigger = "swap_trigger",
         .argA = "group",
         .valA = group,
         .argB = "member",
         .valB = member,
         .locA = lineAt(group, unpackSlot(st, member)) * kLineBytes,
         .locB = lineAt(group, 0) * kLineBytes,
         .lines = 1,
         .apply = [this, group, member, occupant] {
             std::uint64_t &s = groupState(group);
             if ((s & kMigratedFlag) && !(s & kUsedFlag))
                 ++mstats_.wastedMigrations; // evicted before ever touched
             const std::uint32_t slot_m = unpackSlot(s, member);
             const std::uint32_t slot_o = unpackSlot(s, occupant);
             packSlot(s, member, slot_o);
             packSlot(s, occupant, slot_m);
             s |= kMigratedFlag;
             s &= ~kUsedFlag;
         }});
}

void
CameoManager::validateInvariants(bool paranoid) const
{
    checkMigrationConservation("CAMEO", mstats_.migrations,
                               engine_.stats().opsCommitted);
    if (!paranoid)
        return;
    groups_.forEach([this](std::uint64_t group, std::uint64_t st) {
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
    });
}

std::uint64_t
CameoManager::pendingWork() const
{
    return guard_.parkedCount() + engine_.queuedOps() +
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

} // namespace mempod
