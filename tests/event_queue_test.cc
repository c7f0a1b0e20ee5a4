/** @file Unit tests for the discrete-event queue. */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"

namespace mempod {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, FifoTieBreakAtEqualTimes)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(50, [&, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesOnlyOnExecution)
{
    EventQueue eq;
    eq.schedule(500, [] {});
    EXPECT_EQ(eq.now(), 0u);
    eq.runOne();
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    TimePs seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(50, [&] { seen = eq.now(); });
    });
    eq.runAll();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsScheduledDuringExecutionRun)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            eq.scheduleAfter(10, [&recurse] { recurse(); });
    };
    eq.schedule(0, [&recurse] { recurse(); });
    eq.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, NextTimeReportsEarliest)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTime(), kTimeNever);
    eq.schedule(70, [] {});
    eq.schedule(30, [] {});
    EXPECT_EQ(eq.nextTime(), 30u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    std::vector<TimePs> ran;
    for (TimePs t : {10u, 20u, 30u, 40u})
        eq.schedule(t, [&, t] { ran.push_back(t); });
    eq.runUntil(30);
    EXPECT_EQ(ran, (std::vector<TimePs>{10, 20, 30}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, RunUntilAdvancesNowWhenIdle)
{
    EventQueue eq;
    eq.runUntil(12345);
    EXPECT_EQ(eq.now(), 12345u);
}

TEST(EventQueue, RunAllHonorsLimit)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [&] { ++count; });
    EXPECT_EQ(eq.runAll(4), 4u);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.size(), 6u);
}

TEST(EventQueue, ExecutedCounterAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.runAll();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runOne();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

// ---- near/far ordering: the wheel, its horizon and the far heap ----

/** From a tick-0 cursor, events due this late or later wait far. */
constexpr TimePs kHorizonPs = EventQueue::kTickPs * EventQueue::kSlots;

TEST(EventQueue, ScheduleIntoDrainingSlotKeepsKeyOrder)
{
    // Two events share slot tick 3 (1000 and 1010 ps); the first
    // schedules a third at its own timestamp while the slot drains,
    // which must splice in ahead of the 1010 ps event.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1'000, [&] {
        order.push_back(1);
        eq.schedule(eq.now(), [&] { order.push_back(2); });
    });
    eq.schedule(1'010, [&] { order.push_back(3); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ScheduleAfterPeekStillRunsFirst)
{
    // Peeking at a far-only queue must not move the cursor past an
    // earlier event scheduled after the peek.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100'000, [&] { order.push_back(2); });
    EXPECT_EQ(eq.nextTime(), 100'000u);
    eq.schedule(2'000, [&] { order.push_back(1); });
    EXPECT_EQ(eq.nextTime(), 2'000u);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, NextTimeFollowsSchedulesAndPops)
{
    EventQueue eq;
    eq.schedule(1'000, [] {});
    EXPECT_EQ(eq.nextTime(), 1'000u);
    eq.schedule(500, [] {});
    EXPECT_EQ(eq.nextTime(), 500u);
    eq.schedule(100'000, [] {}); // far
    EXPECT_EQ(eq.nextTime(), 500u);
    eq.runOne();
    EXPECT_EQ(eq.nextTime(), 1'000u);
    eq.runOne();
    EXPECT_EQ(eq.nextTime(), 100'000u);
    eq.runOne();
    EXPECT_EQ(eq.nextTime(), kTimeNever);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, FarAndLaterNearEventAtOneTimeKeepFifoOrder)
{
    // The first event waits in the far heap; the second is scheduled
    // for the same instant from inside the horizon. Pulling the first
    // into the slot must keep scheduling order.
    EventQueue eq;
    const TimePs when = 300 * EventQueue::kTickPs + 5;
    std::vector<int> order;
    eq.schedule(when, [&] { order.push_back(1); });
    eq.schedule(when - 100 * EventQueue::kTickPs, [&] {
        eq.schedule(when, [&] { order.push_back(2); });
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), when);
}

TEST(EventQueue, FarEventFiresAtExactTime)
{
    // After a far event runs, the cursor sits at its tick: a slot
    // event 200 ticks on and a far one 300 ticks on still run in time
    // order.
    EventQueue eq;
    const TimePs far = 1000 * kHorizonPs + 777;
    eq.schedule(far, [] {});
    EXPECT_EQ(eq.nextTime(), far);
    eq.runOne();
    EXPECT_EQ(eq.now(), far);
    eq.schedule(far + 300 * EventQueue::kTickPs, [] {});
    eq.schedule(far + 200 * EventQueue::kTickPs, [] {});
    EXPECT_EQ(eq.nextTime(), far + 200 * EventQueue::kTickPs);
    std::vector<TimePs> ran;
    while (eq.runOne())
        ran.push_back(eq.now());
    EXPECT_EQ(ran, (std::vector<TimePs>{far + 200 * EventQueue::kTickPs,
                                        far + 300 * EventQueue::kTickPs}));
}

TEST(EventQueue, PeakPendingIsHighWaterMark)
{
    EventQueue eq;
    for (const TimePs when :
         {TimePs{1'000}, TimePs{50'000}, TimePs{100'000},
          TimePs{1} << 25, TimePs{1} << 33, TimePs{1} << 41})
        eq.schedule(when, [] {});
    EXPECT_EQ(eq.peakPending(), 6u);
    eq.runAll();
    EXPECT_EQ(eq.executed(), 6u);
    eq.schedule(eq.now() + 1, [] {});
    EXPECT_EQ(eq.peakPending(), 6u); // high-water, not size
}

TEST(EventQueueWheel, FifoTieBreakAcrossWheelLevels)
{
    // Two events with the same timestamp, scheduled from different
    // distances: the first waits in the far heap (delta >> the wheel's
    // horizon), the second is scheduled 100 ps beforehand and lands in
    // a slot. Pulling the first into the wheel must not lose the FIFO
    // tie-break.
    EventQueue eq;
    const TimePs when = 3 * kHorizonPs * EventQueue::kSlots;
    std::vector<int> order;
    eq.schedule(when, [&] { order.push_back(1); }); // seq 0, far
    eq.schedule(when - 100, [&] {
        eq.scheduleAfter(100, [&] { order.push_back(2); }); // slot
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), when);
}

TEST(EventQueueWheel, FifoTieBreakAcrossLadderBoundary)
{
    // Same timestamp, one event scheduled ~2 s ahead into the far
    // heap, one scheduled later from one tick before.
    EventQueue eq;
    const TimePs when = (TimePs{1} << 41) + 12345;
    std::vector<int> order;
    eq.schedule(when, [&] { order.push_back(1); });
    eq.schedule(when - EventQueue::kTickPs, [&] {
        eq.scheduleAfter(EventQueue::kTickPs,
                         [&] { order.push_back(2); });
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), when);
}

TEST(EventQueueWheel, LadderEventFiresAtExactTime)
{
    EventQueue eq;
    const TimePs far = 3 * (TimePs{1} << 40) + 777;
    TimePs fired = 0;
    eq.schedule(far, [&] { fired = eq.now(); });
    // An intermediate far event moves the cursor most of the way.
    eq.schedule(TimePs{1} << 39, [] {});
    eq.runAll();
    EXPECT_EQ(fired, far);
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueueWheel, RunUntilAtSlotEdges)
{
    // Events straddling a slot boundary: runUntil exactly at the
    // boundary must execute the boundary event but nothing after,
    // even though later events share its slot.
    EventQueue eq;
    const TimePs tick = EventQueue::kTickPs;
    std::vector<TimePs> ran;
    for (TimePs t : {tick - 1, tick, tick + 1, 2 * tick - 1, 2 * tick})
        eq.schedule(t, [&, t] { ran.push_back(t); });
    eq.runUntil(tick);
    EXPECT_EQ(ran, (std::vector<TimePs>{tick - 1, tick}));
    EXPECT_EQ(eq.now(), tick);
    eq.runUntil(2 * tick - 1);
    EXPECT_EQ(ran.size(), 4u);
    EXPECT_EQ(eq.now(), 2 * tick - 1);
    eq.runUntil(2 * tick);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 2 * tick);
}

TEST(EventQueueWheel, NextTimePeeksAcrossAllLevels)
{
    EventQueue eq;
    const TimePs far = (TimePs{1} << 40) + 999;
    eq.schedule(far, [] {});
    EXPECT_EQ(eq.nextTime(), far);
    const TimePs mid = 7 * kHorizonPs; // also far, but earlier
    eq.schedule(mid, [] {});
    EXPECT_EQ(eq.nextTime(), mid);
    eq.schedule(42, [] {}); // slot
    EXPECT_EQ(eq.nextTime(), 42u);
    // Peeking never reorders: execution still follows (when, seq).
    std::vector<TimePs> ran;
    while (eq.runOne())
        ran.push_back(eq.now());
    EXPECT_EQ(ran, (std::vector<TimePs>{42, mid, far}));
}

/**
 * Differential stress run of the wheel against a reference ordered
 * set. A seeded schedule mixes same-tick deltas, deltas straddling
 * the wheel's horizon and far deltas past 2^40 ps; callbacks schedule
 * more events from inside the slot being drained; runOne() and
 * runUntil() at random horizons (which leave the cursor behind now())
 * interleave with the schedule. Every event must run exactly when the
 * reference says it is the earliest pending (when, scheduling order)
 * pair — the heap semantics the wheel replaced — and nextTime() must
 * equal the reference minimum after every schedule and every pop.
 */
void
runStress(std::uint64_t seed)
{
    EventQueue eq;
    Rng rng(seed);
    std::set<std::pair<TimePs, int>> pending; // (when, scheduling order)
    int seq = 0;
    int callbackBudget = 600;

    const auto delta = [&rng]() -> TimePs {
        switch (rng.nextBelow(6)) {
          case 0: return rng.nextBelow(4);
          case 1: return rng.nextBelow(EventQueue::kTickPs * 4);
          case 2: // within a few ticks of the horizon, either side
            return kHorizonPs - 4 * EventQueue::kTickPs +
                   rng.nextBelow(8 * EventQueue::kTickPs);
          case 3: return rng.nextBelow(kHorizonPs * 16);
          case 4: return rng.nextBelow(TimePs{1} << 32);
          default:
            return (TimePs{1} << 40) + rng.nextBelow(TimePs{1} << 40);
        }
    };
    const auto checkNextTime = [&] {
        EXPECT_EQ(eq.nextTime(),
                  pending.empty() ? kTimeNever : pending.begin()->first);
    };
    std::function<void(TimePs)> scheduleOne;
    const std::function<void(TimePs, int)> fire = [&](TimePs when, int id) {
        ASSERT_FALSE(pending.empty());
        EXPECT_EQ(*pending.begin(), std::make_pair(when, id));
        EXPECT_EQ(eq.now(), when);
        pending.erase({when, id});
        checkNextTime();
        for (auto n = rng.nextBelow(3); n > 0 && callbackBudget > 0;
             --n, --callbackBudget) {
            scheduleOne(eq.now() + delta());
            checkNextTime();
        }
    };
    scheduleOne = [&](TimePs when) {
        const int id = seq++;
        pending.emplace(when, id);
        eq.schedule(when, [&fire, when, id] { fire(when, id); });
    };

    for (int i = 0; i < 400; ++i) {
        scheduleOne(eq.now() + delta());
        checkNextTime();
        switch (rng.nextBelow(8)) {
          case 0:
            eq.runOne();
            checkNextTime();
            break;
          case 1: {
            const TimePs horizon = eq.now() + delta();
            eq.runUntil(horizon);
            EXPECT_EQ(eq.now(), horizon);
            EXPECT_TRUE(pending.empty() || pending.begin()->first > horizon);
            checkNextTime();
            break;
          }
          default:
            break;
        }
    }
    eq.runAll();
    EXPECT_TRUE(pending.empty());
    EXPECT_EQ(eq.executed(), static_cast<std::uint64_t>(seq));
}

TEST(EventQueueWheel, StressMatchesStableSortReference)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 42ull, 0xdecafull}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        runStress(seed);
    }
}

// ---------------------------------------------------------------------
// Canonical cross-domain ordering (the sharded-executor surface):
// events carried between per-domain queues must land in the one total
// order (when, schedTime, schedDomain, schedCounter) regardless of
// which queue they came from or when they were merged.
// ---------------------------------------------------------------------

TEST(EventQueueDomains, CrossDomainScheduleStagesInOutbox)
{
    EventQueue lane;
    lane.setHomeDomain(3);
    lane.routeCrossDomain(true);
    std::size_t ran = 0;
    lane.schedule(100, [&] {
        ++ran; // home-domain events stay local even when routed
        lane.scheduleIn(EventQueue::kCoordinatorDomain, 500, [&] { ++ran; });
    });
    lane.runAll();
    EXPECT_EQ(ran, 1u);
    ASSERT_EQ(lane.outbox().size(), 1u);
    EXPECT_EQ(lane.outbox()[0].target, EventQueue::kCoordinatorDomain);
    EXPECT_EQ(lane.outbox()[0].key.when, 500u);
    EXPECT_EQ(lane.outbox()[0].key.schedTime, 100u);
    EXPECT_TRUE(lane.empty());
}

TEST(EventQueueDomains, EqualWhenMergeOrdersByDomainThenCounter)
{
    // Three domains schedule for the same instant at the same simulated
    // time; merge the foreign ones in *reverse* domain order — the
    // canonical comparator, not insertion order, must decide.
    EventQueue coord; // home domain 0
    EventQueue lane1;
    lane1.setHomeDomain(1);
    lane1.routeCrossDomain(true);
    EventQueue lane2;
    lane2.setHomeDomain(2);
    lane2.routeCrossDomain(true);

    std::vector<int> order;
    const TimePs when = 700; // same tick for everyone
    coord.schedule(when, [&] { order.push_back(1); });
    coord.schedule(when, [&] { order.push_back(2); });
    lane1.scheduleIn(0, when, [&] { order.push_back(11); });
    lane1.scheduleIn(0, when, [&] { order.push_back(12); });
    lane2.scheduleIn(0, when, [&] { order.push_back(21); });
    lane2.scheduleIn(0, when, [&] { order.push_back(22); });

    for (EventQueue *src : {&lane2, &lane1}) { // deliberately reversed
        for (EventQueue::CrossEvent &e : src->outbox())
            coord.admitForeign(0, e.key, std::move(e.cb));
        src->outbox().clear();
    }
    coord.runAll();
    // Domain rank breaks the (when, schedTime) tie; the per-domain
    // counter (the pinned seq tiebreak) orders within each domain.
    EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12, 21, 22}));
}

TEST(EventQueueDomains, SchedTimePrecedesDomainRank)
{
    // A *later* scheduling call always runs after an earlier one at
    // the same `when`, even when made by a lower-ranked domain — the
    // legacy global-FIFO order, reproduced without any global counter.
    EventQueue coord;
    EventQueue lane2;
    lane2.setHomeDomain(2);
    lane2.routeCrossDomain(true);

    std::vector<int> order;
    const TimePs when = 4000;
    lane2.schedule(10, [&] {
        lane2.scheduleIn(0, when, [&] { order.push_back(2); });
    });
    lane2.runAll(); // schedTime 10
    coord.schedule(20, [&] {
        coord.schedule(when, [&] { order.push_back(0); });
    });
    coord.runAll(1); // run only the scheduler event (schedTime 20)
    for (EventQueue::CrossEvent &e : lane2.outbox())
        coord.admitForeign(0, e.key, std::move(e.cb));
    lane2.outbox().clear();
    coord.runAll();
    EXPECT_EQ(order, (std::vector<int>{2, 0}));
}

TEST(EventQueueDomains, EqualWhenMergeAcrossWheelLevels)
{
    // Same-`when` events from two domains placed while the cursor sits
    // far behind, so both wait in the far heap and move to a slot
    // before executing: the canonical key must survive the move.
    EventQueue coord;
    EventQueue lane1;
    lane1.setHomeDomain(1);
    lane1.routeCrossDomain(true);

    std::vector<int> order;
    const TimePs far_when =
        EventQueue::kTickPs * EventQueue::kSlots * 3 + 128;
    lane1.scheduleIn(0, far_when, [&] { order.push_back(10); });
    coord.schedule(far_when, [&] { order.push_back(0); });
    coord.schedule(far_when, [&] { order.push_back(1); });
    // Admit the foreign event *first*: it still runs last-of-none —
    // domain 0's calls precede domain 1's at the same (when, schedTime).
    for (EventQueue::CrossEvent &e : lane1.outbox())
        coord.admitForeign(0, e.key, std::move(e.cb));
    lane1.outbox().clear();
    coord.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10}));
}

TEST(EventQueueDomains, ReservedKeyReplaysAtApplyTime)
{
    // The executor's deferred-enqueue bracket: a key reserved on the
    // coordinator is consumed by the first schedule call inside
    // beginApply/endApply, so the applied event sorts exactly where
    // the serial run's inline call would have put it.
    EventQueue coord;
    EventQueue lane;
    lane.setHomeDomain(1);

    const EventKey reserved = coord.reserveKey(); // domain 0, counter 0
    std::vector<int> order;
    const TimePs when = 300;
    lane.schedule(when, [&] { order.push_back(1); }); // domain 1 call
    lane.beginApply(0, reserved);
    lane.schedule(when, [&] { order.push_back(0); }); // replays domain 0
    lane.endApply();
    lane.runAll();
    // Scheduled second, but the reserved coordinator key outranks the
    // lane's own at the tied (when, schedTime).
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(lane.executed(), 2u);
}

TEST(EventQueueDomainsDeathTest, ForeignEventInThePastPanics)
{
    EventQueue coord;
    coord.schedule(100, [] {});
    coord.runAll();
    EXPECT_DEATH(coord.admitForeign(0, EventKey{50, 10, 0}, [] {}),
                 "foreign event arrives in this domain's past");
}

} // namespace
} // namespace mempod
