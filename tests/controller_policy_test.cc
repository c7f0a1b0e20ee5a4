/** @file Unit tests for controller page-policy and scheduler options. */
#include <gtest/gtest.h>

#include "common/event_queue.h"
#include "completion_fns.h"
#include "dram/channel.h"

namespace mempod {
namespace {

DramSpec
spec()
{
    return DramSpec::hbm1GHz().withChannelBytes(2_MiB);
}

TimePs
runPair(ControllerPolicy pol, std::int64_t row1, std::int64_t row2,
        TimePs gap, Channel::Stats *out = nullptr)
{
    CompletionFns fns;
    EventQueue eq;
    Channel ch(eq, spec(), "pol", 0, pol);
    TimePs last = 0;
    Request a;
    a.done = fns.add([&](TimePs f) { last = std::max(last, f); });
    ch.enqueue(std::move(a), ChannelAddr{0, row1});
    eq.runUntil(gap);
    Request b;
    b.done = fns.add([&](TimePs f) { last = std::max(last, f); });
    ch.enqueue(std::move(b), ChannelAddr{0, row2});
    eq.runAll();
    if (out)
        *out = ch.stats();
    return last;
}

TEST(ControllerPolicy, ClosedPageAutoPrecharges)
{
    Channel::Stats s;
    runPair(ControllerPolicy{.closedPage = true}, 0, 3, 10'000, &s);
    // Both accesses required their own ACT; the first row was closed
    // automatically (one auto-PRE), not by a conflict.
    EXPECT_EQ(s.rowMisses, 2u);
    EXPECT_GE(s.precharges, 1u);
}

TEST(ControllerPolicy, ClosedPageLosesRowHits)
{
    // The gap must exceed tRAS so the auto-precharge has fired.
    Channel::Stats open_stats, closed_stats;
    runPair(ControllerPolicy{}, 0, 0, 60'000, &open_stats);
    runPair(ControllerPolicy{.closedPage = true}, 0, 0, 60'000,
            &closed_stats);
    EXPECT_EQ(open_stats.rowHits, 1u);  // second access hits
    EXPECT_EQ(closed_stats.rowHits, 0u); // row was auto-closed
}

TEST(ControllerPolicy, ClosedPageSpeedsUpConflicts)
{
    // A conflicting access arrives after the row was auto-closed: it
    // skips the precharge it would otherwise pay.
    const TimePs open_t = runPair(ControllerPolicy{}, 0, 5, 60'000);
    const TimePs closed_t =
        runPair(ControllerPolicy{.closedPage = true}, 0, 5, 60'000);
    EXPECT_LT(closed_t, open_t);
}

TEST(ControllerPolicy, ClosedPageKeepsRowForPendingHits)
{
    CompletionFns fns;
    EventQueue eq;
    Channel ch(eq, spec(), "pol", 0,
               ControllerPolicy{.closedPage = true});
    // Two same-row requests queued together: the second must still be
    // a row hit (auto-PRE waits for pending hits).
    int done = 0;
    for (int i = 0; i < 2; ++i) {
        Request r;
        r.done = fns.add([&](TimePs) { ++done; });
        ch.enqueue(std::move(r), ChannelAddr{0, 7});
    }
    eq.runAll();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(ch.stats().rowHits, 1u);
}

TEST(ControllerPolicy, FcfsServesStrictlyInOrder)
{
    CompletionFns fns;
    EventQueue eq;
    Channel ch(eq, spec(), "fcfs", 0, ControllerPolicy{.fcfs = true});
    std::vector<int> order;
    // Enqueue: conflict (bank0 row0), conflict (bank0 row9), then a
    // row-0 hit FR-FCFS would promote.
    for (int i = 0; i < 3; ++i) {
        Request r;
        r.done = fns.add([&, i](TimePs) { order.push_back(i); });
        ch.enqueue(std::move(r),
                   ChannelAddr{0, i == 1 ? std::int64_t{9}
                                         : std::int64_t{0}});
    }
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ControllerPolicy, FrFcfsPromotesRowHits)
{
    CompletionFns fns;
    EventQueue eq;
    Channel ch(eq, spec(), "frfcfs", 0, ControllerPolicy{});
    std::vector<int> order;
    Request a, b, c;
    a.done = fns.add([&](TimePs) { order.push_back(0); });
    b.done = fns.add([&](TimePs) { order.push_back(1); });
    c.done = fns.add([&](TimePs) { order.push_back(2); });
    ch.enqueue(std::move(a), ChannelAddr{0, 0});
    ch.enqueue(std::move(b), ChannelAddr{0, 9}); // conflict
    ch.enqueue(std::move(c), ChannelAddr{0, 0}); // hit, jumps queue
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(ControllerPolicy, FcfsNeverSlowerToDrainThanZeroWork)
{
    // Sanity: FCFS still completes everything.
    CompletionFns fns;
    EventQueue eq;
    Channel ch(eq, spec(), "fcfs", 0, ControllerPolicy{.fcfs = true});
    int done = 0;
    for (int i = 0; i < 40; ++i) {
        Request r;
        r.type = i % 2 ? AccessType::kWrite : AccessType::kRead;
        r.done = fns.add([&](TimePs) { ++done; });
        ch.enqueue(std::move(r),
                   ChannelAddr{static_cast<std::uint32_t>(i % 16),
                               i % 5});
    }
    eq.runAll();
    EXPECT_EQ(done, 40);
}

} // namespace
} // namespace mempod
