/** @file Unit tests for the top-level MemPod manager. */
#include <gtest/gtest.h>

#include "completion_fns.h"
#include "core/mempod_manager.h"

namespace mempod {
namespace {

struct ManagerFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};

    MemPodParams
    params()
    {
        MemPodParams p;
        p.interval = 10_us;
        p.pod.meaEntries = 8;
        p.pod.meaCounterBits = 8;
        return p;
    }
};

TEST_F(ManagerFixture, BuildsOnePodPerGeometryPod)
{
    MemPodManager mgr(eq, mem, params());
    EXPECT_EQ(mgr.numPods(), 4u);
}

TEST_F(ManagerFixture, RoutesDemandToOwningPod)
{
    CompletionFns fns;
    MemPodManager mgr(eq, mem, params());
    // Slow page with global slow index 2 belongs to pod 2.
    const PageId page = mem.geom().fastPages() + 2;
    int done = 0;
    mgr.handleDemand({.homeAddr = AddressMap::addrOfPage(page) + 128,
                      .arrival = eq.now(),
                      .done = fns.add([&](TimePs) { ++done; })});
    eq.runAll();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(mgr.pod(2).mea().size(), 1u);
    EXPECT_EQ(mgr.pod(0).mea().size(), 0u);
}

TEST_F(ManagerFixture, IntervalTimerFiresAllPods)
{
    MemPodManager mgr(eq, mem, params());
    mgr.start();
    eq.runUntil(35_us); // three 10 us boundaries
    EXPECT_EQ(mgr.migrationStats().intervals, 3u);
    for (std::size_t p = 0; p < mgr.numPods(); ++p)
        EXPECT_EQ(mgr.pod(p).stats().intervals, 3u);
}

TEST_F(ManagerFixture, HotPagesMigrateViaTimer)
{
    MemPodManager mgr(eq, mem, params());
    mgr.start();
    // Hammer one slow page of pod 0.
    const PageId hot = mem.geom().fastPages();
    for (int i = 0; i < 10; ++i) {
        mgr.handleDemand({.homeAddr = AddressMap::addrOfPage(hot),
                          .arrival = eq.now()});
    }
    eq.runUntil(30_us);
    EXPECT_GE(mgr.migrationStats().migrations, 1u);
    EXPECT_TRUE(
        mgr.pod(0).remap().inFast(mem.map().podLocalOfPage(hot)));
}

TEST_F(ManagerFixture, AggregatesAcrossPods)
{
    MemPodManager mgr(eq, mem, params());
    mgr.start();
    // One hot slow page in each pod.
    for (std::uint32_t p = 0; p < 4; ++p) {
        const PageId hot = mem.geom().fastPages() + p;
        for (int i = 0; i < 5; ++i)
            mgr.handleDemand({.homeAddr = AddressMap::addrOfPage(hot),
                              .arrival = eq.now()});
    }
    eq.runUntil(30_us);
    EXPECT_EQ(mgr.migrationStats().migrations, 4u);
    EXPECT_EQ(mgr.migrationStats().bytesMoved, 4 * 2 * kPageBytes);
}

TEST_F(ManagerFixture, PodsMigrateInParallel)
{
    // Each pod has its own engine: all four swaps overlap in time
    // instead of serializing behind one driver.
    MemPodManager mgr(eq, mem, params());
    for (std::uint32_t p = 0; p < 4; ++p) {
        const PageId hot = mem.geom().fastPages() + p;
        for (int i = 0; i < 5; ++i)
            mgr.handleDemand({.homeAddr = AddressMap::addrOfPage(hot),
                              .arrival = eq.now()});
    }
    eq.runAll(); // drain demands without starting the timer
    for (std::size_t p = 0; p < mgr.numPods(); ++p)
        mgr.pod(p).onInterval();
    std::uint32_t active = 0;
    for (std::size_t p = 0; p < mgr.numPods(); ++p)
        active += mgr.pod(p).engine().activeOps();
    EXPECT_EQ(active, 4u);
    eq.runAll();
}

TEST(MemPodManager, PaperStorageNumbers)
{
    EventQueue eq;
    MemorySystem mem(eq, SystemGeometry::paper(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600());
    MemPodManager mgr(eq, mem, MemPodParams{});
    // Section 5.2: 64 entries x 23 bits x 4 pods = 736 B total.
    EXPECT_EQ(mgr.trackingStorageBits() / 8, 736u);
    // Remap tables: ~2.95 MB per pod (21-bit entries).
    EXPECT_NEAR(static_cast<double>(mgr.remapStorageBits()) / 8 /
                    (1 << 20),
                4 * 2.95, 0.2);
}

TEST_F(ManagerFixture, PendingWorkDrainsToZero)
{
    MemPodManager mgr(eq, mem, params());
    mgr.start();
    const PageId hot = mem.geom().fastPages();
    for (int i = 0; i < 10; ++i)
        mgr.handleDemand({.homeAddr = AddressMap::addrOfPage(hot),
                          .arrival = eq.now()});
    eq.runUntil(50_us);
    EXPECT_EQ(mgr.pendingWork(), 0u);
}

} // namespace
} // namespace mempod
