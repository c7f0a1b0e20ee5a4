/** @file Unit tests for the HMA baseline. */
#include <gtest/gtest.h>

#include "baselines/hma.h"
#include "common/decision_log.h"
#include "common/tracer.h"
#include "completion_fns.h"

namespace mempod {
namespace {

std::size_t
occurrences(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

struct HmaFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};

    HmaParams
    params()
    {
        HmaParams p;
        p.interval = 100_us;
        p.sortStall = 7_us;
        p.threshold = 3;
        p.maxMigrationsPerInterval = 64;
        return p;
    }

    void
    touch(HmaManager &mgr, PageId page, int times)
    {
        for (int i = 0; i < times; ++i)
            mgr.handleDemand({.homeAddr = AddressMap::addrOfPage(page),
                              .arrival = eq.now()});
        // Drain the demands without following the (self-rescheduling)
        // interval timer chain: a bounded time window suffices.
        eq.runUntil(eq.now() + 5_us);
    }
};

TEST_F(HmaFixture, CountsEveryPage)
{
    HmaManager mgr(eq, mem, params());
    touch(mgr, 100, 5);
    EXPECT_EQ(mgr.counters().count(100), 5u);
}

TEST_F(HmaFixture, EpochMigratesHotPages)
{
    HmaManager mgr(eq, mem, params());
    mgr.start();
    const PageId hot = mem.geom().fastPages() + 12; // a slow page
    touch(mgr, hot, 10);
    eq.runUntil(150_us); // one epoch boundary
    EXPECT_GE(mgr.migrationStats().migrations, 1u);
    EXPECT_TRUE(mgr.placement().inFast(hot));
}

TEST_F(HmaFixture, BelowThresholdPagesStay)
{
    HmaManager mgr(eq, mem, params());
    mgr.start();
    const PageId cold = mem.geom().fastPages() + 30;
    touch(mgr, cold, 2); // threshold is 3
    eq.runUntil(150_us);
    EXPECT_FALSE(mgr.placement().inFast(cold));
    EXPECT_EQ(mgr.migrationStats().migrations, 0u);
}

TEST_F(HmaFixture, SortStallHookReceivesDurationEachEpoch)
{
    HmaManager mgr(eq, mem, params());
    int calls = 0;
    TimePs duration = 0;
    mgr.setCoreStallHook([&](TimePs d) {
        ++calls;
        duration = d;
    });
    mgr.start();
    eq.runUntil(210_us);
    EXPECT_EQ(calls, 2); // epochs at 100 us and 200 us
    EXPECT_EQ(duration, 7_us);
}

TEST_F(HmaFixture, CountersResetEachEpoch)
{
    HmaManager mgr(eq, mem, params());
    mgr.start();
    touch(mgr, 50, 5);
    eq.runUntil(110_us);
    EXPECT_EQ(mgr.counters().count(50), 0u);
}

TEST_F(HmaFixture, MigrationCapBoundsEpochWork)
{
    HmaParams p = params();
    p.maxMigrationsPerInterval = 2;
    HmaManager mgr(eq, mem, p);
    mgr.start();
    for (std::uint64_t k = 0; k < 10; ++k)
        touch(mgr, mem.geom().fastPages() + k, 5);
    eq.runUntil(200_us);
    EXPECT_LE(mgr.migrationStats().migrations, 2u);
}

TEST_F(HmaFixture, AnyToAnyFlexibility)
{
    // Unlike THM/CAMEO, HMA may place any slow page in any fast slot:
    // two hot pages that would share a THM segment both migrate.
    HmaManager mgr(eq, mem, params());
    mgr.start();
    const PageId a = mem.geom().fastPages() + 7 * 8;
    const PageId b = a + 1; // same (contiguous) THM segment
    touch(mgr, a, 8);
    touch(mgr, b, 8);
    eq.runUntil(200_us);
    EXPECT_TRUE(mgr.placement().inFast(a));
    EXPECT_TRUE(mgr.placement().inFast(b));
}

TEST_F(HmaFixture, HotFastResidentsNotEvictedForColderPages)
{
    HmaManager mgr(eq, mem, params());
    mgr.start();
    const PageId hot = mem.geom().fastPages() + 3;
    touch(mgr, hot, 20);
    eq.runUntil(150_us);
    ASSERT_TRUE(mgr.placement().inFast(hot));
    // Next epoch: hot stays hot, another page is mildly hot.
    touch(mgr, hot, 20);
    touch(mgr, mem.geom().fastPages() + 4, 5);
    eq.runUntil(250_us);
    EXPECT_TRUE(mgr.placement().inFast(hot));
}

TEST_F(HmaFixture, CounterCacheMissesInjectReads)
{
    HmaParams p = params();
    p.metaCacheEnabled = true;
    p.metaCacheBytes = 2048;
    HmaManager mgr(eq, mem, p);
    touch(mgr, 500, 1);
    EXPECT_EQ(mgr.migrationStats().metaCacheMisses, 1u);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u);
    touch(mgr, 500, 1); // now cached
    EXPECT_EQ(mgr.migrationStats().metaCacheHits, 1u);
}

TEST_F(HmaFixture, StorageCostIsLinear)
{
    EventQueue eq2;
    MemorySystem paper_mem(eq2, SystemGeometry::paper(),
                           DramSpec::hbm1GHz(), DramSpec::ddr4_1600());
    HmaManager mgr(eq2, paper_mem, HmaParams{});
    // Table 1: 16 bits per page = 9 MB.
    EXPECT_EQ(mgr.trackingStorageBits() / 8 / (1 << 20), 9u);
}

TEST_F(HmaFixture, DemandToSwappingPageParksUntilCommit)
{
    CompletionFns fns;
    DecisionLog log(100_us, 1.0);
    eq.attach({.decisions = &log});
    HmaManager mgr(eq, mem, params());
    const PageId hot = mem.geom().fastPages() + 12;
    touch(mgr, hot, 10);
    mgr.start();
    while (mgr.engine().activeOps() == 0)
        ASSERT_TRUE(eq.runOne()); // the epoch starts the swap
    const TimePs parked_at = eq.now();
    int done = 0;
    TimePs done_at = 0;
    mgr.handleDemand({.homeAddr = AddressMap::addrOfPage(hot) + 64,
                      .arrival = eq.now(),
                      .done = fns.add([&](TimePs) {
                          ++done;
                          done_at = eq.now();
                      })});
    EXPECT_EQ(mgr.migrationStats().blockedRequests, 1u);
    EXPECT_EQ(mgr.pendingWork(), 2u); // the parked demand + the swap
    EXPECT_EQ(done, 0);
    eq.runUntil(eq.now() + 50_us);
    EXPECT_EQ(done, 1);
    ASSERT_EQ(log.size(), 1u);
    const DecisionLog::Record &rec = log.records()[0];
    ASSERT_EQ(rec.outcome, DecisionLog::Outcome::kCompleted);
    EXPECT_GE(done_at, rec.commitPs);
    EXPECT_EQ(mgr.migrationStats().blockedPs, rec.commitPs - parked_at);
    EXPECT_EQ(mgr.pendingWork(), 0u);
}

TEST_F(HmaFixture, SwapStillQueuedAtNextEpochIsAborted)
{
    DecisionLog log(100_us, 1.0);
    Tracer tracer(TracerConfig{.enabled = true, .sampleEvery = 1});
    eq.attach({.tracer = &tracer, .decisions = &log});
    HmaParams p = params();
    p.interval = 200_ns; // shorter than one page swap
    HmaManager mgr(eq, mem, p);
    const PageId a = mem.geom().fastPages() + 20;
    const PageId b = mem.geom().fastPages() + 21;
    touch(mgr, a, 6);
    touch(mgr, b, 5);
    mgr.start();
    // First epoch: a's swap starts, b's waits behind it.
    while (log.size() < 2)
        ASSERT_TRUE(eq.runOne());
    ASSERT_EQ(mgr.engine().queuedOps(), 1u);
    const DecisionLog::Record queued = log.records()[1];
    EXPECT_TRUE(mgr.guard().reserved(queued.page));
    EXPECT_TRUE(mgr.guard().reserved(queued.victim));

    // The next epoch drops the stale candidate.
    const std::uint64_t epochs = mgr.migrationStats().intervals;
    while (mgr.migrationStats().intervals == epochs)
        ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(log.records()[1].outcome, DecisionLog::Outcome::kAborted);
    EXPECT_EQ(log.abortedCount(), 1u);
    EXPECT_TRUE(mgr.guard().reserved(log.records()[0].page));
    EXPECT_FALSE(mgr.guard().reserved(queued.page));
    EXPECT_FALSE(mgr.guard().reserved(queued.victim));
    const std::string mid = tracer.toJson();
    EXPECT_NE(mid.find("\"swap_aborted\""), std::string::npos);
    EXPECT_EQ(occurrences(mid, "\"ph\":\"s\""), 2u);
    EXPECT_EQ(occurrences(mid, "\"ph\":\"f\""), 1u); // aborted flow ends

    // A later epoch may choose the freed page again.
    eq.runUntil(eq.now() + 10_us);
    touch(mgr, b, 5);
    EXPECT_EQ(log.records().back().page, b);
    EXPECT_EQ(log.records().back().outcome,
              DecisionLog::Outcome::kCompleted);
    EXPECT_TRUE(mgr.placement().inFast(b));
    const std::string end = tracer.toJson();
    EXPECT_EQ(occurrences(end, "\"ph\":\"s\""),
              occurrences(end, "\"ph\":\"f\""));
}

} // namespace
} // namespace mempod
