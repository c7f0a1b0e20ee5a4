#include "baselines/thm.h"

#include <algorithm>
#include <bit>

#include "common/decision_log.h"
#include "common/log.h"
#include "sim/validate.h"

namespace mempod {

ThmManager::ThmManager(EventQueue &eq, MemorySystem &mem,
                       const ThmParams &params)
    : eq_(eq),
      mem_(mem),
      params_(params),
      ratio_(mem.geom().slowPages() / mem.geom().fastPages()),
      ratioDiv_(std::max<std::uint64_t>(ratio_, 1)), // checked below
      numSegments_(mem.geom().fastPages()),
      engine_(eq, mem, /*max_in_flight_ops=*/1, "thm.engine"),
      guard_(eq, engine_, mstats_, "thm", "segment", DecisionLog::kNoPod,
             [this](std::uint64_t, Demand d) { proceed(d); })
{
    MEMPOD_ASSERT(mem.geom().slowPages() % mem.geom().fastPages() == 0,
                  "THM needs an integer slow:fast capacity ratio");
    MEMPOD_ASSERT(ratio_ >= 1 && ratio_ <= 200,
                  "implausible segment ratio %llu",
                  static_cast<unsigned long long>(ratio_));
    if (params_.metaCacheEnabled) {
        const std::uint64_t fast_bytes = mem.geom().fastBytes;
        metaPath_.emplace(
            eq, mem, mstats_, params_.metaCacheBytes,
            params_.metaCacheAssoc, params_.segEntryBytes,
            [fast_bytes](std::uint64_t block) {
                return (block * MetadataCache::kBlockBytes) % fast_bytes;
            });
    }
}

ThmManager::SegState &
ThmManager::segState(std::uint64_t seg)
{
    const auto [st, fresh] = segs_.tryEmplace(seg);
    if (fresh) {
        st->cc = CompetingCounter(params_.counterBits);
        st->slotOf.resize(ratio_ + 1);
        for (std::uint32_t m = 0; m <= ratio_; ++m)
            st->slotOf[m] = static_cast<std::uint8_t>(m);
    }
    return *st;
}

std::pair<std::uint64_t, std::uint32_t>
ThmManager::segmentOf(PageId page) const
{
    if (page < numSegments_)
        return {page, 0};
    // Contiguous grouping: slow pages [s*ratio, (s+1)*ratio) belong to
    // segment s. Spatially local regions therefore compete for one
    // fast page — the restriction the paper analyzes (Section 2).
    const auto [seg, idx] = ratioDiv_.divmod(page - numSegments_);
    return {seg, 1 + static_cast<std::uint32_t>(idx)};
}

PageId
ThmManager::pageAt(std::uint64_t seg, std::uint32_t slot) const
{
    if (slot == 0)
        return seg;
    return numSegments_ + seg * ratio_ + (slot - 1);
}

std::uint32_t
ThmManager::fastResidentMember(std::uint64_t seg) const
{
    const SegState *st = segs_.find(seg);
    if (!st)
        return 0;
    for (std::uint32_t m = 0; m <= ratio_; ++m)
        if (st->slotOf[m] == 0)
            return m;
    MEMPOD_PANIC("segment %llu has no fast resident",
                 static_cast<unsigned long long>(seg));
}

void
ThmManager::handleDemand(Demand d)
{
    if (!metaPath_) {
        proceed(d);
        return;
    }
    const std::uint64_t seg =
        segmentOf(AddressMap::pageOf(d.homeAddr)).first;
    metaPath_->access(seg, [this, d] { proceed(d); });
}

void
ThmManager::proceed(Demand d)
{
    const auto [seg, member] = segmentOf(AddressMap::pageOf(d.homeAddr));
    if (guard_.park(seg, d))
        return;

    const std::uint32_t slot = segState(seg).slotOf[member];
    if (DecisionLog *log = eq_.decisions())
        log->noteAccess(DecisionLog::kNoPod,
                               AddressMap::pageOf(d.homeAddr),
                               slot == 0, eq_.now());

    // Service the access from the page's current location first.
    issueAt(seg, slot, d);

    // Then update the competing counter and maybe trigger a swap. Look
    // the segment up again: a synchronous completion (sampled or fast
    // models) may have re-entered and allocated other segments.
    SegState &st = segState(seg);
    if (slot == 0) {
        st.cc.accessFast();
        return;
    }
    const bool trigger = st.cc.accessSlow(member, params_.threshold);
    if (trigger)
        scheduleSwap(seg, member);
}

void
ThmManager::issueAt(std::uint64_t seg, std::uint32_t slot,
                    Demand d)
{
    const Addr addr = AddressMap::addrOfPage(pageAt(seg, slot)) +
                      d.homeAddr % kPageBytes;
    mem_.access(Request::demand(addr, d));
}

void
ThmManager::scheduleSwap(std::uint64_t seg, std::uint32_t member)
{
    const SegState &st = segState(seg);
    const std::uint32_t occupant = fastResidentMember(seg);
    if (occupant == member)
        return; // already resident
    if (guard_.reserved(seg))
        return; // a swap for this segment is already scheduled
    // The competing counter clears on trigger, so the decision-time
    // count is the threshold it just reached.
    guard_.schedule(
        {.keyA = seg,
         .page = pageAt(seg, member),
         .victim = pageAt(seg, occupant),
         .count = params_.threshold,
         .trigger = "counter_victory",
         .argA = "segment",
         .valA = seg,
         .argB = "member",
         .valB = member,
         .locA = AddressMap::addrOfPage(pageAt(seg, st.slotOf[member])),
         .locB = AddressMap::addrOfPage(pageAt(seg, 0)),
         .lines = static_cast<std::uint32_t>(kLinesPerPage),
         .apply = [this, seg, member, occupant] {
             SegState &s = segState(seg);
             std::swap(s.slotOf[member], s.slotOf[occupant]);
         }});
}

void
ThmManager::validateInvariants(bool paranoid) const
{
    checkMigrationConservation("THM", mstats_.migrations,
                               engine_.stats().opsCommitted);
    if (!paranoid)
        return;
    segs_.forEach([this](std::uint64_t seg, const SegState &st) {
        std::vector<bool> seen(ratio_ + 2, false);
        for (std::uint32_t m = 0; m <= ratio_; ++m) {
            const std::uint8_t slot = st.slotOf[m];
            if (slot > ratio_ || seen[slot])
                MEMPOD_PANIC(
                    "invariant violated [thm_slot_permutation]: "
                    "segment %llu member %u maps to slot %u "
                    "(duplicate or out of range)",
                    static_cast<unsigned long long>(seg), m, slot);
            seen[slot] = true;
        }
    });
}

std::uint64_t
ThmManager::pendingWork() const
{
    return guard_.parkedCount() + engine_.queuedOps() +
           engine_.activeOps() +
           (metaPath_ ? metaPath_->outstandingFills() : 0);
}

std::uint64_t
ThmManager::remapStorageBits() const
{
    // One "which member is fast-resident" pointer per segment.
    return numSegments_ * std::bit_width(ratio_);
}

} // namespace mempod
