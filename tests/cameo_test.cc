/** @file Unit tests for the CAMEO baseline. */
#include <gtest/gtest.h>

#include "baselines/cameo.h"
#include "baselines/thm.h"
#include "common/decision_log.h"
#include "common/rng.h"
#include "completion_fns.h"

namespace mempod {
namespace {

struct CameoFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};
    std::uint64_t fastLines = SystemGeometry::tiny().fastBytes /
                              kLineBytes;

    /** Home address of member m in group g (m = 0 is the fast line). */
    Addr
    lineAddr(std::uint64_t g, std::uint32_t m)
    {
        if (m == 0)
            return g * kLineBytes;
        // Contiguous grouping: slow lines [8g, 8g+8) form group g.
        return (fastLines + g * 8 + (m - 1)) * kLineBytes;
    }

    void
    touch(CameoManager &mgr, Addr a, int times = 1)
    {
        for (int i = 0; i < times; ++i)
            mgr.handleDemand({.homeAddr = a, .arrival = eq.now()});
        eq.runAll();
    }
};

TEST_F(CameoFixture, GroupGeometry)
{
    CameoManager mgr(eq, mem, CameoParams{});
    EXPECT_EQ(mgr.numGroups(), fastLines);
    EXPECT_EQ(mgr.slowPerGroup(), 8u);
}

TEST_F(CameoFixture, FastAccessCausesNoSwap)
{
    CameoManager mgr(eq, mem, CameoParams{});
    touch(mgr, lineAddr(5, 0), 10);
    EXPECT_EQ(mgr.migrationStats().migrations, 0u);
}

TEST_F(CameoFixture, EverySlowAccessTriggersASwap)
{
    CameoManager mgr(eq, mem, CameoParams{});
    touch(mgr, lineAddr(5, 1), 1);
    EXPECT_EQ(mgr.migrationStats().migrations, 1u);
    EXPECT_EQ(mgr.slotOfMember(5, 1), 0u); // line now in fast
    EXPECT_EQ(mgr.slotOfMember(5, 0), 1u); // original line displaced
    // Swaps move two 64 B lines, not pages.
    EXPECT_EQ(mgr.migrationStats().bytesMoved, 2 * kLineBytes);
}

TEST_F(CameoFixture, PingPongThrashing)
{
    // Two hot lines in one congruence group swap back and forth on
    // every access — CAMEO's pathology at high capacity ratios.
    CameoManager mgr(eq, mem, CameoParams{});
    for (int i = 0; i < 10; ++i) {
        touch(mgr, lineAddr(3, 1), 1);
        touch(mgr, lineAddr(3, 2), 1);
    }
    EXPECT_EQ(mgr.migrationStats().migrations, 20u);
}

TEST_F(CameoFixture, WastedMigrationDetected)
{
    CameoManager mgr(eq, mem, CameoParams{});
    touch(mgr, lineAddr(7, 1), 1); // member 1 migrates in
    touch(mgr, lineAddr(7, 2), 1); // evicts member 1, never touched
    EXPECT_EQ(mgr.migrationStats().wastedMigrations, 1u);
    // Using the fast-resident line before the next eviction is not
    // wasted.
    touch(mgr, lineAddr(7, 2), 1); // hit on fast
    touch(mgr, lineAddr(7, 3), 1); // evicts member 2 (was used)
    EXPECT_EQ(mgr.migrationStats().wastedMigrations, 1u);
}

TEST_F(CameoFixture, GroupsAreIndependent)
{
    CameoManager mgr(eq, mem, CameoParams{});
    touch(mgr, lineAddr(1, 4), 1);
    touch(mgr, lineAddr(2, 6), 1);
    EXPECT_EQ(mgr.slotOfMember(1, 4), 0u);
    EXPECT_EQ(mgr.slotOfMember(2, 6), 0u);
    EXPECT_EQ(mgr.slotOfMember(3, 0), 0u); // untouched group: identity
}

TEST_F(CameoFixture, DemandsServedFromCurrentLocation)
{
    CameoManager mgr(eq, mem, CameoParams{});
    touch(mgr, lineAddr(9, 1), 1); // migrate in
    const auto fast_before = mem.stats().demandFast;
    touch(mgr, lineAddr(9, 1), 1); // now a fast hit
    EXPECT_EQ(mem.stats().demandFast, fast_before + 1);
}

TEST_F(CameoFixture, SwapBackpressureSkipsNotBlocks)
{
    CompletionFns fns;
    CameoParams p;
    p.maxQueuedSwaps = 0; // every swap skipped
    CameoManager mgr(eq, mem, p);
    int done = 0;
    mgr.handleDemand({.homeAddr = lineAddr(2, 1),
                      .done = fns.add([&](TimePs) { ++done; })});
    eq.runAll();
    EXPECT_EQ(done, 1); // demand still served
    EXPECT_EQ(mgr.migrationStats().migrations, 0u);
    EXPECT_EQ(mgr.swapsSkipped(), 1u);
}

TEST_F(CameoFixture, LocationStateConsistentAfterManySwaps)
{
    CameoManager mgr(eq, mem, CameoParams{});
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        touch(mgr, lineAddr(4, 1 + rng.nextBelow(8)), 1);
    // The 9 members occupy 9 distinct slots.
    bool slot_seen[9] = {};
    for (std::uint32_t m = 0; m <= 8; ++m) {
        const std::uint32_t s = mgr.slotOfMember(4, m);
        ASSERT_LT(s, 9u);
        EXPECT_FALSE(slot_seen[s]);
        slot_seen[s] = true;
    }
}

TEST_F(CameoFixture, RemapStorageMuchLargerThanThm)
{
    EventQueue eq2;
    MemorySystem paper_mem(eq2, SystemGeometry::paper(),
                           DramSpec::hbm1GHz(), DramSpec::ddr4_1600());
    CameoManager mgr(eq2, paper_mem, CameoParams{});
    // Line-granularity bookkeeping is orders of magnitude beyond
    // THM's per-segment pointer (Table 1's 72 kB vs 1.5 kB contrast):
    // ~72 MB of full line-location state vs 256 kB for THM.
    EXPECT_GT(mgr.remapStorageBits(), 50ull * 8 * 1024 * 1024);
    ThmManager thm(eq2, paper_mem, ThmParams{});
    EXPECT_GT(mgr.remapStorageBits(), 100 * thm.remapStorageBits());
}

TEST_F(CameoFixture, DemandToSwappingGroupParksUntilCommit)
{
    CompletionFns fns;
    DecisionLog log(50_us, 1.0);
    eq.attach({.decisions = &log});
    CameoManager mgr(eq, mem, CameoParams{});
    // A slow access starts its group's swap at once.
    mgr.handleDemand({.homeAddr = lineAddr(4, 2), .arrival = eq.now()});
    ASSERT_EQ(mgr.engine().activeOps(), 1u);
    eq.runUntil(eq.now() + 10_ns);
    const TimePs parked_at = eq.now();
    int done = 0;
    TimePs done_at = 0;
    mgr.handleDemand({.homeAddr = lineAddr(4, 0),
                      .arrival = eq.now(),
                      .done = fns.add([&](TimePs) {
                          ++done;
                          done_at = eq.now();
                      })});
    EXPECT_EQ(mgr.migrationStats().blockedRequests, 1u);
    EXPECT_EQ(done, 0);
    eq.runAll();
    EXPECT_EQ(done, 1);
    ASSERT_GE(log.size(), 1u);
    const DecisionLog::Record &rec = log.records()[0];
    ASSERT_EQ(rec.outcome, DecisionLog::Outcome::kCompleted);
    EXPECT_GE(done_at, rec.commitPs);
    EXPECT_EQ(mgr.migrationStats().blockedPs, rec.commitPs - parked_at);
    EXPECT_EQ(mgr.pendingWork(), 0u);
}

} // namespace
} // namespace mempod
