#include "common/event_queue.h"

#include <algorithm>
#include <bit>

#include "common/log.h"
#include "common/tracer.h"

namespace mempod {

namespace {

constexpr std::size_t kWords = EventQueue::kSlots / 64;

/**
 * Find the first set bit at circular distance d in [0, kSlots-1] from
 * `start`; returns d, or -1 when the bitmap is empty.
 */
int
circularFindSet(const std::uint64_t *words, unsigned start)
{
    const unsigned w0 = start >> 6;
    const unsigned b0 = start & 63;
    const std::uint64_t first = words[w0] & (~std::uint64_t{0} << b0);
    if (first) {
        return static_cast<int>((w0 << 6) + std::countr_zero(first) -
                                start);
    }
    for (unsigned k = 1; k <= kWords; ++k) {
        const unsigned w = (w0 + k) % kWords;
        std::uint64_t v = words[w];
        if (w == w0)
            v &= ~(~std::uint64_t{0} << b0); // wrapped: below start only
        if (v) {
            const int idx =
                static_cast<int>((w << 6) + std::countr_zero(v));
            const int d = idx - static_cast<int>(start);
            return d >= 0 ? d : d + static_cast<int>(EventQueue::kSlots);
        }
    }
    return -1;
}

} // namespace

std::uint64_t
EventQueue::nextOrd()
{
    if (ctxDomain_ >= counters_.size())
        counters_.resize(ctxDomain_ + 1, 0);
    const std::uint64_t c = counters_[ctxDomain_]++;
    return (static_cast<std::uint64_t>(ctxDomain_) << kCounterBits) | c;
}

void
EventQueue::scheduleIn(DomainId target, TimePs when, Callback cb)
{
    MEMPOD_ASSERT(when >= now_,
                  "event scheduled in the past (when=%llu now=%llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
    TimePs sched_time;
    std::uint64_t masked;
    if (haveOverride_) {
        // A deferred cross-domain hand-off replays the key its serial
        // counterpart consumed at the original call site.
        haveOverride_ = false;
        sched_time = overrideKey_.schedTime;
        masked = overrideKey_.ord;
    } else {
        sched_time = now_;
        masked = nextOrd();
    }
    if (routeCross_ && target != homeDomain_) {
        // Sharded per-domain queue: the only legal foreign target is
        // the coordinator (channel completions); the executor merges
        // the outbox at the next horizon barrier.
        MEMPOD_ASSERT(target == kCoordinatorDomain,
                      "cross-domain schedule to domain %u (only the "
                      "coordinator may be targeted across domains)",
                      static_cast<unsigned>(target));
        outbox_.push_back(CrossEvent{
            target, EventKey{when, sched_time, masked}, std::move(cb)});
        return;
    }
    ++size_;
    if (size_ > host_.peakPending)
        host_.peakPending = size_;
    place(Event{when, sched_time, packOrd(target, masked),
                std::move(cb)});
}

void
EventQueue::admitForeign(DomainId exec, EventKey key, Callback cb)
{
    MEMPOD_ASSERT(key.when >= now_,
                  "foreign event arrives in this domain's past "
                  "(when=%llu now=%llu)",
                  static_cast<unsigned long long>(key.when),
                  static_cast<unsigned long long>(now_));
    ++size_;
    if (size_ > host_.peakPending)
        host_.peakPending = size_;
    place(Event{key.when, key.schedTime, packOrd(exec, key.ord),
                std::move(cb)});
}

EventKey
EventQueue::reserveKey()
{
    return EventKey{now_, now_, nextOrd()};
}

void
EventQueue::beginApply(TimePs when, EventKey key)
{
    MEMPOD_ASSERT(when >= now_, "apply rewinds domain time");
    MEMPOD_ASSERT(!haveOverride_, "unconsumed apply key");
    now_ = when;
    overrideKey_ = key;
    haveOverride_ = true;
    ctxDomain_ = static_cast<DomainId>(key.ord >> kCounterBits);
    if (Tracer *tr = probes_.tracer)
        tr->setEventKey(EventKey{when, key.schedTime, key.ord});
}

void
EventQueue::endApply()
{
    // The hand-off may legitimately schedule nothing (e.g. a
    // controller tick already armed at an earlier time).
    haveOverride_ = false;
    ctxDomain_ = homeDomain_;
}

EventQueue::EventList *
EventQueue::acquireList()
{
    if (freeLists_.empty()) {
        ++host_.listAllocs;
        pool_.push_back(std::make_unique<EventList>());
        return pool_.back().get();
    }
    ++host_.listReuses;
    EventList *list = freeLists_.back();
    freeLists_.pop_back();
    return list;
}

void
EventQueue::releaseList(EventList *list)
{
    list->clear(); // keeps capacity for reuse
    freeLists_.push_back(list);
}

void
EventQueue::appendToSlot(unsigned level, std::size_t idx, Event ev)
{
    Wheel &w = wheels_[level];
    if (w.slots[idx] == nullptr) {
        w.slots[idx] = acquireList();
        w.occupied[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }
    w.slots[idx]->push_back(std::move(ev));
}

void
EventQueue::place(Event ev)
{
    const std::uint64_t tick = ev.when >> kTickShift;
    if (drain_ != nullptr && tick == drainTick_) {
        // Joins the slot currently executing: splice into the
        // undrained tail at its canonical key position. The tail is
        // key-sorted (claimSlot sorted it and insertions keep it so),
        // so upper_bound by the full key preserves the total order —
        // a when-only probe would misplace events that tie on `when`
        // but differ in (schedTime, domain).
        auto pos = std::upper_bound(
            drain_->begin() + static_cast<std::ptrdiff_t>(drainPos_),
            drain_->end(), ev,
            [](const Event &a, const Event &b) { return earlier(a, b); });
        drain_->insert(pos, std::move(ev));
        ++host_.drainInserts;
        return;
    }
    if (tick < cursorTick_) {
        // A nextTime()/runUntil() scan cascaded the cursor ahead of
        // now_ and this event landed in the gap. Such events precede
        // everything in the wheels, so keep them in a small sorted
        // spill drained before any slot.
        auto pos = std::upper_bound(
            front_.begin(), front_.end(), ev,
            [](const Event &a, const Event &b) { return earlier(a, b); });
        front_.insert(pos, std::move(ev));
        ++host_.frontSpills;
        return;
    }
    for (unsigned level = 0; level < kWheels; ++level) {
        const unsigned shift = level * kSlotBits;
        // Compare in level units, not raw ticks: a raw-delta check
        // would lap slots when the cursor sits mid-region.
        if ((tick >> shift) - (cursorTick_ >> shift) < kSlots) {
            // A level-0 event is found without a cascade; a higher
            // region starting before the memo would be cascaded first.
            if (level == 0)
                nextWhen_ = std::min(nextWhen_, ev.when);
            else if (((tick >> shift) << shift) < (nextWhen_ >> kTickShift))
                nextWhenValid_ = false;
            ++host_.placedAtLevel[level];
            appendToSlot(level, (tick >> shift) & (kSlots - 1),
                         std::move(ev));
            return;
        }
    }
    if (tick < (nextWhen_ >> kTickShift))
        nextWhenValid_ = false;
    ladder_.push_back(std::move(ev));
    std::push_heap(
        ladder_.begin(), ladder_.end(),
        [](const Event &a, const Event &b) { return earlier(b, a); });
    ++ladderDeferred_;
}

void
EventQueue::fixupStranded()
{
    // After the cursor jumps, any higher-level slot whose region now
    // *starts* at the cursor sits at circular distance 0 and would be
    // invisible to the scan; cascade each one down immediately. The
    // re-placed events always land at a strictly lower level, so the
    // high-to-low sweep never refills a slot it already drained.
    for (unsigned level = kWheels - 1; level >= 1; --level) {
        const unsigned shift = level * kSlotBits;
        const std::size_t idx = (cursorTick_ >> shift) & (kSlots - 1);
        Wheel &w = wheels_[level];
        if (!(w.occupied[idx >> 6] & (std::uint64_t{1} << (idx & 63))))
            continue;
        EventList *list = w.slots[idx];
        w.slots[idx] = nullptr;
        w.occupied[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
        ++cascades_;
        for (Event &ev : *list)
            place(std::move(ev));
        releaseList(list);
    }
}

bool
EventQueue::findNextSlot(std::uint64_t &out_tick)
{
    for (;;) {
        std::uint64_t best = ~std::uint64_t{0};
        int best_level = -1; // kWheels == ladder

        // Wheel-0 candidate: the exact tick of the earliest slot.
        {
            const unsigned idx0 =
                static_cast<unsigned>(cursorTick_ & (kSlots - 1));
            ++host_.slotScans;
            const int d = circularFindSet(wheels_[0].occupied, idx0);
            if (d >= 0) {
                best = cursorTick_ + static_cast<unsigned>(d);
                best_level = 0;
            }
        }
        // Higher wheels: region start of the earliest occupied slot.
        for (unsigned level = 1; level < kWheels; ++level) {
            const unsigned shift = level * kSlotBits;
            const std::uint64_t cur = cursorTick_ >> shift;
            // Slots at this level and above start at the cursor's next
            // region or later, so none can beat `best` from here on.
            if (best <= (cur + 1) << shift)
                break;
            const unsigned idx = static_cast<unsigned>(cur & (kSlots - 1));
            ++host_.slotScans;
            const int d = circularFindSet(wheels_[level].occupied,
                                          (idx + 1) & (kSlots - 1));
            if (d < 0)
                continue;
            // fixupStranded keeps distance-0 slots empty, so the hit
            // can never be the cursor's own slot (distance kSlots).
            MEMPOD_ASSERT(d < static_cast<int>(kSlots) - 1 ||
                              ((idx + 1 + d) & (kSlots - 1)) != idx,
                          "stranded wheel slot at level %u", level);
            const std::uint64_t cand = (cur + 1 + static_cast<unsigned>(d))
                                       << shift;
            if (cand < best) {
                best = cand;
                best_level = static_cast<int>(level);
            }
        }
        if (!ladder_.empty()) {
            const std::uint64_t cand = ladder_.front().when >> kTickShift;
            if (cand < best) {
                best = cand;
                best_level = static_cast<int>(kWheels);
            }
        }

        if (best_level < 0)
            return false;
        if (best_level == 0) {
            out_tick = best;
            return true;
        }

        // Cascade: advance the cursor to the earliest region start —
        // provably <= every pending tick — and redistribute.
        // fixupStranded drains the chosen slot, now at distance 0.
        cursorTick_ = best;
        fixupStranded();
        if (best_level == static_cast<int>(kWheels)) {
            // Pull every ladder event now inside the wheel horizon.
            const auto later = [](const Event &a, const Event &b) {
                return earlier(b, a);
            };
            const unsigned top_shift = (kWheels - 1) * kSlotBits;
            while (!ladder_.empty() &&
                   ((ladder_.front().when >> kTickShift) >> top_shift) -
                           (cursorTick_ >> top_shift) <
                       kSlots) {
                std::pop_heap(ladder_.begin(), ladder_.end(), later);
                Event ev = std::move(ladder_.back());
                ladder_.pop_back();
                place(std::move(ev));
            }
        }
    }
}

void
EventQueue::claimSlot(std::uint64_t tick)
{
    Wheel &w = wheels_[0];
    const std::size_t idx = tick & (kSlots - 1);
    MEMPOD_ASSERT(w.slots[idx] != nullptr, "claiming an empty slot");
    drain_ = w.slots[idx];
    w.slots[idx] = nullptr;
    w.occupied[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    std::sort(drain_->begin(), drain_->end(),
              [](const Event &a, const Event &b) { return earlier(a, b); });
    drainTick_ = tick;
    drainPos_ = 0;
}

bool
EventQueue::popNext(Event &out)
{
    nextWhenValid_ = false;
    if (!front_.empty()) {
        MEMPOD_ASSERT(drain_ == nullptr, "front spill during slot drain");
        out = std::move(front_.front());
        front_.erase(front_.begin());
        --size_;
        return true;
    }
    if (drain_ == nullptr) {
        std::uint64_t tick;
        if (!findNextSlot(tick))
            return false;
        claimSlot(tick);
    }
    out = std::move((*drain_)[drainPos_++]);
    if (drainPos_ == drain_->size()) {
        releaseList(drain_);
        drain_ = nullptr;
    }
    --size_;
    return true;
}

TimePs
EventQueue::peekNextTime()
{
    if (!front_.empty())
        return front_.front().when;
    if (drain_ != nullptr)
        return (*drain_)[drainPos_].when;
    if (nextWhenValid_) {
        ++host_.nextTimeMemoHits;
        return nextWhen_;
    }
    std::uint64_t tick;
    TimePs min_when = kTimeNever;
    if (findNextSlot(tick))
        for (const Event &ev : *wheels_[0].slots[tick & (kSlots - 1)])
            min_when = std::min(min_when, ev.when);
    nextWhen_ = min_when;
    nextWhenValid_ = true;
    return min_when;
}

bool
EventQueue::peekNextKey(EventKey &out)
{
    const Event *best = nullptr;
    if (!front_.empty()) {
        best = &front_.front();
    } else if (drain_ != nullptr) {
        best = &(*drain_)[drainPos_];
    } else {
        std::uint64_t tick;
        if (!findNextSlot(tick))
            return false;
        for (const Event &ev : *wheels_[0].slots[tick & (kSlots - 1)])
            if (best == nullptr || earlier(ev, *best))
                best = &ev;
    }
    out = EventKey{best->when, best->schedTime, best->ord & kOrderMask};
    return true;
}

TimePs
EventQueue::nextTime() const
{
    // The scan may cascade slots down the hierarchy, but cascading
    // only relocates pending events — it cannot change execution
    // order — so this is logically const.
    return const_cast<EventQueue *>(this)->peekNextTime();
}

void
EventQueue::dispatch(Event &ev)
{
    now_ = ev.when;
    ctxDomain_ =
        static_cast<DomainId>(ev.ord >> (kCounterBits + kDomainBits));
    currentKey_ = EventKey{ev.when, ev.schedTime, ev.ord & kOrderMask};
    ++executed_;
    if (Tracer *tr = probes_.tracer)
        tr->setEventKey(currentKey_);
    ev.cb();
}

bool
EventQueue::runOne()
{
    Event ev;
    if (!popNext(ev))
        return false;
    dispatch(ev);
    return true;
}

std::uint64_t
EventQueue::runAll(std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (n < limit && runOne())
        ++n;
    return n;
}

void
EventQueue::runUntil(TimePs until)
{
    for (;;) {
        if (!front_.empty()) {
            if (front_.front().when > until)
                break;
        } else {
            if (drain_ == nullptr) {
                std::uint64_t tick;
                if (!findNextSlot(tick))
                    break;
                if (tick > (until >> kTickShift))
                    break; // whole slot beyond the horizon
                claimSlot(tick);
            }
            if ((*drain_)[drainPos_].when > until)
                break; // claimed slot straddles `until`; resume later
        }
        Event ev;
        popNext(ev);
        dispatch(ev);
    }
    if (now_ < until)
        now_ = until;
}

} // namespace mempod
