/** @file Unit tests for buildManager, the one mechanism switch. */
#include <gtest/gtest.h>

#include <memory>

#include "common/decision_log.h"
#include "common/event_queue.h"
#include "mem/manager.h"
#include "mem/memory_system.h"
#include "sim/config.h"
#include "sim/simulation.h"

namespace mempod {
namespace {

/** Small system every mechanism can be built against. */
struct FactoryFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};
};

const Mechanism kAll[] = {Mechanism::kNoMigration, Mechanism::kMemPod,
                          Mechanism::kHma, Mechanism::kThm,
                          Mechanism::kCameo};

TEST_F(FactoryFixture, AllMechanismsRegisteredAndBuildable)
{
    for (const Mechanism m : kAll) {
        SimConfig cfg;
        cfg.mechanism = m;
        cfg.geom = SystemGeometry::tiny();
        auto mgr = buildManager(cfg, eq, mem);
        ASSERT_NE(mgr, nullptr) << mechanismName(m);
        EXPECT_EQ(mgr->name(), mechanismName(m));
    }
}

TEST_F(FactoryFixture, CoreStallHookDefaultsToNoOp)
{
    SimConfig cfg;
    cfg.geom = SystemGeometry::tiny();
    cfg.mechanism = Mechanism::kNoMigration;
    auto mgr = buildManager(cfg, eq, mem);
    // The base-class hook is a no-op: installing one must be safe on
    // mechanisms that never stall the cores.
    mgr->setCoreStallHook([](TimePs) { FAIL() << "unexpected stall"; });
    mgr->handleDemand({});
    eq.runAll();
}

TEST_F(FactoryFixture, HmaForwardsEpochStallThroughHook)
{
    SimConfig cfg;
    cfg.geom = SystemGeometry::tiny();
    cfg.mechanism = Mechanism::kHma;
    cfg.hma.interval = 10_us;
    cfg.hma.sortStall = 1_us;
    auto mgr = buildManager(cfg, eq, mem);
    int stalls = 0;
    TimePs seen = 0;
    mgr->setCoreStallHook([&](TimePs d) {
        ++stalls;
        seen = d;
    });
    mgr->start();
    eq.runUntil(25_us);
    EXPECT_EQ(stalls, 2); // epochs at 10 us and 20 us
    EXPECT_EQ(seen, 1_us);
}

TEST(ManagerFactory, DirectlyBuiltManagerRecordsIntoAttachedLedger)
{
    // No Simulation: the queue's probes are the only way the ledger
    // reaches a mechanism, down to each MemPod Pod.
    for (const Mechanism m : {Mechanism::kMemPod, Mechanism::kHma,
                              Mechanism::kThm, Mechanism::kCameo}) {
        SCOPED_TRACE(mechanismName(m));
        EventQueue q;
        MemorySystem sys(q, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                         DramSpec::ddr4_1600());
        DecisionLog log(20_us, 1.0);
        q.attach({.decisions = &log});
        SimConfig cfg;
        cfg.geom = SystemGeometry::tiny();
        cfg.mechanism = m;
        cfg.mempod.interval = 20_us;
        cfg.hma.interval = 20_us;
        cfg.hma.sortStall = 1_us;
        cfg.hma.threshold = 3;
        cfg.thm.threshold = 3;
        auto mgr = buildManager(cfg, q, sys);
        mgr->start();
        // Hammer one slow page per Pod, then cross one interval.
        for (std::uint64_t p = 0; p < sys.geom().numPods; ++p) {
            const PageId page = sys.geom().fastPages() + p;
            for (int i = 0; i < 10; ++i)
                mgr->handleDemand(
                    {.homeAddr = AddressMap::addrOfPage(page),
                     .arrival = q.now()});
        }
        q.runUntil(30_us);
        EXPECT_GT(log.size(), 0u);
        EXPECT_EQ(log.committedCount(), mgr->migrationStats().migrations);
    }
}

TEST(ManagerFactoryDeathTest, UnregisteredMechanismPanics)
{
    EventQueue eq;
    MemorySystem mem(eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600());
    SimConfig cfg;
    cfg.geom = SystemGeometry::tiny();
    cfg.mechanism = static_cast<Mechanism>(99);
    EXPECT_DEATH((void)buildManager(cfg, eq, mem),
                 "mechanism");
}

} // namespace
} // namespace mempod
