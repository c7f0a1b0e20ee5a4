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
    peakPending_ = std::max(peakPending_, size_);
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
    peakPending_ = std::max(peakPending_, size_);
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

void
EventQueue::appendToSlot(Event &&ev)
{
    const std::size_t idx = (ev.when >> kTickShift) & (kSlots - 1);
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    slots_[idx].push_back(std::move(ev));
}

void
EventQueue::place(Event &&ev)
{
    // Never behind the cursor: when >= now_, and the cursor is never
    // past now_'s tick.
    const std::uint64_t tick = ev.when >> kTickShift;
    if (drain_ != nullptr && tick == cursorTick_) {
        // Joins the slot currently executing: splice into the
        // undrained tail at its canonical key position. The tail is
        // key-sorted (claim() sorted it and insertions keep it so),
        // so upper_bound by the full key preserves the total order —
        // a when-only probe would misplace events that tie on `when`
        // but differ in (schedTime, domain).
        auto pos = std::upper_bound(
            drain_->begin() + static_cast<std::ptrdiff_t>(drainPos_),
            drain_->end(), ev,
            [](const Event &a, const Event &b) { return earlier(a, b); });
        drain_->insert(pos, std::move(ev));
        return;
    }
    if (tick - cursorTick_ < kSlots) {
        appendToSlot(std::move(ev));
        return;
    }
    far_.push_back(std::move(ev));
    std::push_heap(
        far_.begin(), far_.end(),
        [](const Event &a, const Event &b) { return earlier(b, a); });
}

const EventQueue::Event *
EventQueue::peek() const
{
    // The draining slot, then any occupied slot, precede the far heap.
    if (drain_ != nullptr)
        return &(*drain_)[drainPos_];
    const int d = circularFindSet(
        occupied_, static_cast<unsigned>(cursorTick_ & (kSlots - 1)));
    if (d < 0)
        return far_.empty() ? nullptr : &far_.front();
    const Event *best = nullptr;
    for (const Event &ev : slots_[(cursorTick_ + d) & (kSlots - 1)])
        if (best == nullptr || earlier(ev, *best))
            best = &ev;
    return best;
}

bool
EventQueue::nextTick(std::uint64_t &out_tick) const
{
    const int d = circularFindSet(
        occupied_, static_cast<unsigned>(cursorTick_ & (kSlots - 1)));
    if (d >= 0)
        out_tick = cursorTick_ + static_cast<unsigned>(d);
    else if (!far_.empty())
        out_tick = far_.front().when >> kTickShift;
    else
        return false;
    return true;
}

void
EventQueue::claim(std::uint64_t tick)
{
    // Advancing the cursor brings far events inside the horizon; move
    // them to their slots first so the invariant holds again.
    cursorTick_ = tick;
    const auto later = [](const Event &a, const Event &b) {
        return earlier(b, a);
    };
    while (!far_.empty() &&
           (far_.front().when >> kTickShift) - cursorTick_ < kSlots) {
        std::pop_heap(far_.begin(), far_.end(), later);
        appendToSlot(std::move(far_.back()));
        far_.pop_back();
    }
    const std::size_t idx = tick & (kSlots - 1);
    occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    drain_ = &slots_[idx];
    drainPos_ = 0;
    if (drain_->size() > 1)
        std::sort(drain_->begin(), drain_->end(),
                  [](const Event &a, const Event &b) { return earlier(a, b); });
}

bool
EventQueue::popNext(Event &out)
{
    if (drain_ == nullptr) {
        std::uint64_t tick;
        if (!nextTick(tick))
            return false;
        claim(tick);
    }
    out = std::move((*drain_)[drainPos_++]);
    if (drainPos_ == drain_->size()) {
        drain_->clear(); // keeps capacity for reuse
        drain_ = nullptr;
    }
    --size_;
    return true;
}

TimePs
EventQueue::nextTime() const
{
    const Event *ev = peek();
    return ev == nullptr ? kTimeNever : ev->when;
}

bool
EventQueue::peekNextKey(EventKey &out) const
{
    const Event *ev = peek();
    if (ev == nullptr)
        return false;
    out = EventKey{ev->when, ev->schedTime, ev->ord & kOrderMask};
    return true;
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
        if (drain_ == nullptr) {
            std::uint64_t tick;
            if (!nextTick(tick) || tick > (until >> kTickShift))
                break; // whole slot beyond the horizon
            claim(tick);
        }
        if ((*drain_)[drainPos_].when > until)
            break; // claimed slot straddles `until`; resume later
        Event ev;
        popNext(ev);
        dispatch(ev);
    }
    if (now_ < until)
        now_ = until;
}

} // namespace mempod
