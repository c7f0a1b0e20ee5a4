/** @file Unit tests for the no-migration baseline. */
#include <gtest/gtest.h>

#include "baselines/no_migration.h"
#include "common/event_queue.h"
#include "completion_fns.h"

namespace mempod {
namespace {

TEST(NoMigration, ServesAtHomeAddress)
{
    CompletionFns fns;
    EventQueue eq;
    MemorySystem mem(eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600());
    NoMigrationManager mgr(mem);
    int done = 0;
    mgr.handleDemand({.done = fns.add([&](TimePs) { ++done; })});
    mgr.handleDemand({.homeAddr = 16_MiB,
                      .type = AccessType::kWrite,
                      .done = fns.add([&](TimePs) { ++done; })});
    eq.runAll();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(mem.stats().demandFast, 1u);
    EXPECT_EQ(mem.stats().demandSlow, 1u);
    EXPECT_EQ(mgr.migrationStats().migrations, 0u);
    EXPECT_EQ(mgr.pendingWork(), 0u);
}

TEST(NoMigration, NeverGeneratesMigrationTraffic)
{
    EventQueue eq;
    MemorySystem mem(eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600());
    NoMigrationManager mgr(mem);
    mgr.start();
    for (int i = 0; i < 200; ++i)
        mgr.handleDemand({.homeAddr = static_cast<Addr>(i) * 4096,
                          .arrival = eq.now()});
    eq.runAll();
    EXPECT_EQ(mem.stats().migrationLines(), 0u);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 0u);
}

} // namespace
} // namespace mempod
