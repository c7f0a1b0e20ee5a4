/** @file Unit tests for the THM baseline. */
#include <gtest/gtest.h>

#include "baselines/thm.h"
#include "common/decision_log.h"
#include "completion_fns.h"

namespace mempod {
namespace {

struct ThmFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};

    ThmParams
    params()
    {
        ThmParams p;
        p.threshold = 3;
        return p;
    }

    /** Home page of member m in segment s (m = 0 is the fast page). */
    PageId
    pageOf(std::uint64_t seg, std::uint32_t m)
    {
        if (m == 0)
            return seg;
        // Contiguous grouping: slow pages [8s, 8s+8) form segment s.
        return mem.geom().fastPages() + seg * 8 + (m - 1);
    }

    void
    touch(ThmManager &mgr, PageId page, int times)
    {
        for (int i = 0; i < times; ++i)
            mgr.handleDemand({.homeAddr = AddressMap::addrOfPage(page),
                              .arrival = eq.now()});
        eq.runAll();
    }
};

TEST_F(ThmFixture, SegmentGeometryMatchesCapacityRatio)
{
    ThmManager mgr(eq, mem, params());
    EXPECT_EQ(mgr.numSegments(), mem.geom().fastPages());
    EXPECT_EQ(mgr.slowPerSegment(), 8u);
}

TEST_F(ThmFixture, DemandsComplete)
{
    CompletionFns fns;
    ThmManager mgr(eq, mem, params());
    int done = 0;
    mgr.handleDemand({.homeAddr = AddressMap::addrOfPage(pageOf(5, 2)) + 64,
                      .done = fns.add([&](TimePs) { ++done; })});
    eq.runAll();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(mem.stats().demandSlow, 1u);
}

TEST_F(ThmFixture, ThresholdTriggersSwapIntoFast)
{
    ThmManager mgr(eq, mem, params());
    const PageId slow = pageOf(9, 3);
    touch(mgr, slow, 3);
    EXPECT_EQ(mgr.migrationStats().migrations, 1u);
    EXPECT_EQ(mgr.fastResidentMember(9), 3u);
    // Now served from fast memory.
    const auto fast_before = mem.stats().demandFast;
    touch(mgr, slow, 1);
    EXPECT_EQ(mem.stats().demandFast, fast_before + 1);
}

TEST_F(ThmFixture, EvictedFastPageServedFromSlowSlot)
{
    ThmManager mgr(eq, mem, params());
    touch(mgr, pageOf(9, 3), 3); // member 3 takes the fast slot
    const auto slow_before = mem.stats().demandSlow;
    touch(mgr, pageOf(9, 0), 1); // the original fast page was evicted
    EXPECT_EQ(mem.stats().demandSlow, slow_before + 1);
}

TEST_F(ThmFixture, OnlyOneFastResidentPerSegment)
{
    ThmManager mgr(eq, mem, params());
    // Two hot pages in the same segment fight for one slot — the
    // paper's flexibility limitation.
    const PageId a = pageOf(4, 1);
    const PageId b = pageOf(4, 2);
    for (int round = 0; round < 6; ++round) {
        touch(mgr, a, 3);
        touch(mgr, b, 3);
    }
    const std::uint32_t resident = mgr.fastResidentMember(4);
    EXPECT_TRUE(resident == 1 || resident == 2);
    // Thrash: many migrations for only two pages.
    EXPECT_GE(mgr.migrationStats().migrations, 4u);
}

TEST_F(ThmFixture, SeparateSegmentsMigrateIndependently)
{
    ThmManager mgr(eq, mem, params());
    touch(mgr, pageOf(1, 2), 3);
    touch(mgr, pageOf(2, 5), 3);
    EXPECT_EQ(mgr.fastResidentMember(1), 2u);
    EXPECT_EQ(mgr.fastResidentMember(2), 5u);
}

TEST_F(ThmFixture, AlternatingAccessesNeverTrigger)
{
    // Competing counters suppress the ping-pong THM is praised for.
    ThmManager mgr(eq, mem, params());
    for (int i = 0; i < 30; ++i) {
        touch(mgr, pageOf(7, 1), 1);
        touch(mgr, pageOf(7, 2), 1);
    }
    EXPECT_EQ(mgr.migrationStats().migrations, 0u);
}

TEST_F(ThmFixture, FastAccessesWeakenCandidate)
{
    ThmManager mgr(eq, mem, params());
    // Slow member gains 2, fast accesses drain it back: no trigger.
    touch(mgr, pageOf(3, 1), 2);
    touch(mgr, pageOf(3, 0), 2);
    touch(mgr, pageOf(3, 1), 1);
    EXPECT_EQ(mgr.migrationStats().migrations, 0u);
}

TEST_F(ThmFixture, SwapMovesFullPages)
{
    ThmManager mgr(eq, mem, params());
    touch(mgr, pageOf(11, 4), 3);
    EXPECT_EQ(mgr.migrationStats().bytesMoved, 2 * kPageBytes);
    EXPECT_EQ(mem.stats().migrationLines(), 4 * kLinesPerPage);
}

TEST_F(ThmFixture, MetaCacheMissBlocksAndFills)
{
    ThmParams p = params();
    p.metaCacheEnabled = true;
    p.metaCacheBytes = 1024;
    ThmManager mgr(eq, mem, p);
    touch(mgr, pageOf(20, 1), 1);
    EXPECT_EQ(mgr.migrationStats().metaCacheMisses, 1u);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u);
    touch(mgr, pageOf(20, 1), 1);
    EXPECT_EQ(mgr.migrationStats().metaCacheHits, 1u);
}

TEST_F(ThmFixture, StorageCostsMatchTable1Shape)
{
    EventQueue eq2;
    MemorySystem paper_mem(eq2, SystemGeometry::paper(),
                           DramSpec::hbm1GHz(), DramSpec::ddr4_1600());
    ThmManager mgr(eq2, paper_mem, ThmParams{});
    // Table 1: 8 bits per fast page = 512 KB of competing counters.
    EXPECT_EQ(mgr.trackingStorageBits() / 8 / 1024, 512u);
}

TEST_F(ThmFixture, DemandToSwappingSegmentParksUntilCommit)
{
    CompletionFns fns;
    DecisionLog log(50_us, 1.0);
    eq.attach({.decisions = &log});
    ThmManager mgr(eq, mem, params());
    // The third access wins the competing counter; the engine is idle,
    // so the swap starts at once and locks the whole segment.
    for (int i = 0; i < 3; ++i)
        mgr.handleDemand(
            {.homeAddr = AddressMap::addrOfPage(pageOf(9, 3)),
             .arrival = eq.now()});
    ASSERT_EQ(mgr.engine().activeOps(), 1u);
    eq.runUntil(eq.now() + 10_ns);
    const TimePs parked_at = eq.now();
    int done = 0;
    TimePs done_at = 0;
    mgr.handleDemand({.homeAddr = AddressMap::addrOfPage(pageOf(9, 5)),
                      .arrival = eq.now(),
                      .done = fns.add([&](TimePs) {
                          ++done;
                          done_at = eq.now();
                      })});
    EXPECT_EQ(mgr.migrationStats().blockedRequests, 1u);
    EXPECT_EQ(done, 0);
    eq.runAll();
    EXPECT_EQ(done, 1);
    ASSERT_EQ(log.size(), 1u);
    const DecisionLog::Record &rec = log.records()[0];
    ASSERT_EQ(rec.outcome, DecisionLog::Outcome::kCompleted);
    EXPECT_GE(done_at, rec.commitPs);
    EXPECT_EQ(mgr.migrationStats().blockedPs, rec.commitPs - parked_at);
    EXPECT_EQ(mgr.pendingWork(), 0u);
}

} // namespace
} // namespace mempod
