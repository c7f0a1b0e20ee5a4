/**
 * @file
 * Invariant-checker tests: each conservation law is fed deliberately
 * corrupted state and must panic with its structured
 * `invariant violated [law]` diagnostic; clean runs of every
 * mechanism must pass the always-on checks (including --paranoid
 * depth) with the checker demonstrably having run.
 */
#include <gtest/gtest.h>

#include "baselines/cameo.h"
#include "baselines/hma.h"
#include "baselines/thm.h"
#include "sim/report.h"
#include "sim/simulation.h"
#include "sim/validate.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

/** The sparse remap form: only the listed ids are off identity. */
RemapTable::Moved
moved(std::initializer_list<std::pair<std::uint64_t, RemapTable::Entry>>
          entries)
{
    RemapTable::Moved m;
    for (const auto &[id, e] : entries)
        m[id] = e;
    return m;
}

TEST(Validate, PermutationAcceptsMutualInverses)
{
    // location {2, 0, 1} and resident {1, 2, 0} over ids 0-2; id 3 is
    // at home and not stored.
    const RemapTable::Moved m =
        moved({{0, {2, 1}}, {1, {0, 2}}, {2, {1, 0}}});
    checkPermutation("test", 4, m); // must not panic
    checkPermutation("test", 4, moved({})); // the identity
}

TEST(ValidateDeath, CorruptedRemapTablePanics)
{
    // Slot 2 also holds id 1: resident is no longer a permutation.
    const RemapTable::Moved m = moved({{2, {2, 1}}});
    EXPECT_DEATH(checkPermutation("test", 3, m),
                 "invariant violated \\[remap_bijection\\]");
}

TEST(ValidateDeath, OneSidedRemapCorruptionPanics)
{
    // Id 2's location points at slot 0, but slot 0 holds id 0.
    const RemapTable::Moved m = moved({{2, {0, 2}}});
    EXPECT_DEATH(checkPermutation("test", 3, m),
                 "invariant violated \\[remap_bijection\\]");
}

TEST(ValidateDeath, StoredIdentityEntryPanics)
{
    // A consistent swap of ids 0 and 1, plus id 2 stored at identity:
    // the map must hold exactly the off-identity ids.
    const RemapTable::Moved m =
        moved({{0, {1, 1}}, {1, {0, 0}}, {2, {2, 2}}});
    EXPECT_DEATH(checkPermutation("test", 3, m),
                 "invariant violated \\[remap_bijection\\]: test id 2 "
                 "is stored at identity");
}

RunResult
consistentResult()
{
    RunResult r;
    r.attribution.mshrWaitNs = 1.25;
    r.attribution.metadataNs = 0.5;
    r.attribution.blockedNs = 2.0;
    r.attribution.queueWaitNs = 30.0;
    r.attribution.serviceNs = 20.25;
    r.ammatNs = r.attribution.totalNs();
    return r;
}

TEST(Validate, ExactAttributionSumPasses)
{
    checkAmmatAttribution(consistentResult()); // must not panic
}

TEST(ValidateDeath, CorruptedAttributionPanics)
{
    RunResult r = consistentResult();
    r.attribution.serviceNs += 0.001; // break the partition
    EXPECT_DEATH(checkAmmatAttribution(r),
                 "invariant violated \\[ammat_attribution_sum\\]");
}

MemorySystem::Stats
someTraffic()
{
    MemorySystem::Stats s;
    s.demandFast = 1000;
    s.demandSlow = 500;
    s.migrationFast = 256;
    s.migrationSlow = 256;
    s.bookkeepingFast = 32;
    s.bookkeepingSlow = 8;
    return s;
}

TEST(Validate, RecomputedEnergyBalances)
{
    const MemorySystem::Stats s = someTraffic();
    checkEnergyBalance(s, true, estimateEnergy(s, true));
}

TEST(ValidateDeath, CorruptedEnergyTermPanics)
{
    const MemorySystem::Stats s = someTraffic();
    EnergyEstimate e = estimateEnergy(s, true);
    e.migrationUj *= 1.01; // report drifts from its own counters
    EXPECT_DEATH(checkEnergyBalance(s, true, e),
                 "invariant violated \\[energy_balance\\]");
}

TEST(ValidateDeath, MigrationCountMismatchPanics)
{
    EXPECT_DEATH(checkMigrationConservation("MemPod", 7, 6),
                 "invariant violated \\[migration_conservation\\]");
}

/** A baseline whose protected migration count drifts from its engine. */
template <class Manager>
struct Miscounted : Manager
{
    using Manager::Manager;
    void bump() { ++this->mstats_.migrations; }
};

struct ConservationDeath : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};

    /** Every mechanism reports the one shared law, not its own. */
    template <class Manager>
    void
    expectSharedLaw(Miscounted<Manager> &mgr)
    {
        mgr.validateInvariants(false); // consistent: must not panic
        mgr.bump();
        EXPECT_DEATH(mgr.validateInvariants(false),
                     "invariant violated \\[migration_conservation\\]");
    }
};

TEST_F(ConservationDeath, HmaMiscountPanics)
{
    Miscounted<HmaManager> mgr(eq, mem, HmaParams{});
    expectSharedLaw(mgr);
}

TEST_F(ConservationDeath, ThmMiscountPanics)
{
    Miscounted<ThmManager> mgr(eq, mem, ThmParams{});
    expectSharedLaw(mgr);
}

TEST_F(ConservationDeath, CameoMiscountPanics)
{
    Miscounted<CameoManager> mgr(eq, mem, CameoParams{});
    expectSharedLaw(mgr);
}

SimConfig
tinyConfig(Mechanism m, bool paranoid)
{
    SimConfig c = SimConfig::paper(m);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    c.validateParanoid = paranoid;
    return c;
}

Trace
tinyTrace(std::uint64_t requests = 30000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015;
    return WorkloadCatalog::global().build("mix5", gc);
}

TEST(Validate, EveryMechanismPassesParanoidChecks)
{
    const Trace t = tinyTrace();
    for (Mechanism m :
         {Mechanism::kNoMigration, Mechanism::kMemPod, Mechanism::kHma,
          Mechanism::kThm, Mechanism::kCameo}) {
        Simulation sim(tinyConfig(m, /*paranoid=*/true));
        const RunResult r = sim.run(t, "mix5");
        EXPECT_EQ(r.completed, t.size()) << mechanismName(m);
        ASSERT_NE(sim.validator(), nullptr) << mechanismName(m);
        // The periodic probe fired at least once per simulated epoch,
        // plus the end-of-run audit.
        EXPECT_GT(sim.validator()->checksRun(), 1u) << mechanismName(m);
    }
}

TEST(Validate, ShardedRunPassesTheSameChecks)
{
    SimConfig c = tinyConfig(Mechanism::kMemPod, true);
    c.shards = 2;
    Simulation sim(c);
    const Trace t = tinyTrace();
    const RunResult r = sim.run(t, "mix5");
    EXPECT_EQ(r.completed, t.size());
    EXPECT_GT(sim.validator()->checksRun(), 1u);
}

TEST(Validate, DisabledByConfigLeavesNoChecker)
{
    SimConfig c = tinyConfig(Mechanism::kMemPod, false);
    c.validateEnabled = false;
    Simulation sim(c);
    sim.run(tinyTrace(10000), "mix5");
    EXPECT_EQ(sim.validator(), nullptr);
}

TEST(ValidateDeath, ManagerLevelCorruptionIsCaughtByParanoidScan)
{
    // End-to-end: corrupt a mechanism's migration counter after a run
    // and let the manager-level audit find the mismatch against its
    // engine's commit count.
    EXPECT_DEATH(
        {
            Simulation sim(tinyConfig(Mechanism::kMemPod, true));
            sim.run(tinyTrace(10000), "mix5");
            const MigrationStats &ms = sim.manager().migrationStats();
            checkMigrationConservation("MemPod", ms.migrations + 1,
                                       ms.migrations);
        },
        "invariant violated \\[migration_conservation\\]");
}

} // namespace
} // namespace mempod
