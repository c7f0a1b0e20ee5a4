/**
 * @file
 * Ledger-replay remap oracle for the two RemapTable users. A run's
 * decision ledger records every swap a mechanism decided and when the
 * engine committed it; replaying the committed {pod, page, victim}
 * records in commit order onto a plain dense permutation must give
 * back the mechanism's final remap state, id for id: each MemPod pod's
 * `Pod::remap()` (pod-local page ids) and HMA's
 * `HmaManager::placement()` (global page ids).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "baselines/hma.h"
#include "common/decision_log.h"
#include "core/mempod_manager.h"
#include "dense_remap.h"
#include "sim/simulation.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

SimConfig
oracleConfig(Mechanism m)
{
    SimConfig c = SimConfig::paper(m);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    c.scaleHmaEpoch(5.0);
    c.decisionsEnabled = true;
    return c;
}

Trace
oracleTrace(const std::string &workload)
{
    GeneratorConfig gc;
    gc.totalRequests = 50000;
    gc.footprintScale = 0.015;
    return WorkloadCatalog::global().build(workload, gc);
}

/** The committed records, in commit order. */
std::vector<DecisionLog::Record>
committedInOrder(const DecisionLog &log)
{
    std::vector<DecisionLog::Record> out;
    for (const DecisionLog::Record &r : log.records())
        if (r.outcome == DecisionLog::Outcome::kCompleted)
            out.push_back(r);
    // Commits at the same ps touch disjoint pages (the swap guard
    // reserves both of a swap's pages), so they commute: decision order
    // breaks the tie.
    std::stable_sort(out.begin(), out.end(),
                     [](const auto &a, const auto &b) {
                         return a.commitPs < b.commitPs;
                     });
    return out;
}

/** Every id of `rt` must match the replayed permutation. */
void
expectReplayed(const RemapTable &rt, const DenseRemap &ref,
               std::uint64_t commits)
{
    ASSERT_EQ(rt.numPages(), ref.location.size());
    for (std::uint64_t id = 0; id < rt.numPages(); ++id) {
        ASSERT_EQ(rt.locationOf(id), ref.location[id]) << "id " << id;
        ASSERT_EQ(rt.residentOf(id), ref.resident[id]) << "slot " << id;
    }
    EXPECT_EQ(rt.movedEntries(), ref.movedIds());
    EXPECT_LE(rt.movedEntries(), 2 * commits);
    EXPECT_EQ(rt.occupiedFastSlots(), ref.occupiedFast(rt.fastSlots()));
}

TEST(RemapOracle, MemPodPodsMatchLedgerReplay)
{
    for (const char *workload : {"xalanc", "mix5"}) {
        SCOPED_TRACE(workload);
        const SimConfig cfg = oracleConfig(Mechanism::kMemPod);
        Simulation sim(cfg);
        const RunResult r = sim.run(oracleTrace(workload), workload);
        ASSERT_NE(sim.decisionLog(), nullptr);
        ASSERT_GT(r.migration.migrations, 0u);
        const auto &mgr =
            dynamic_cast<const MemPodManager &>(sim.manager());

        std::vector<DenseRemap> pods;
        for (std::uint32_t p = 0; p < cfg.geom.numPods; ++p)
            pods.emplace_back(mgr.pod(p).remap().numPages());
        std::map<std::uint32_t, std::uint64_t> commits;
        for (const DecisionLog::Record &rec :
             committedInOrder(*sim.decisionLog())) {
            ASSERT_LT(rec.pod, pods.size());
            pods[rec.pod].swap(rec.page, rec.victim);
            ++commits[rec.pod];
        }
        for (std::uint32_t p = 0; p < cfg.geom.numPods; ++p) {
            SCOPED_TRACE(testing::Message() << "pod " << p);
            expectReplayed(mgr.pod(p).remap(), pods[p], commits[p]);
        }
    }
}

TEST(RemapOracle, HmaPlacementMatchesLedgerReplay)
{
    for (const char *workload : {"xalanc", "mix5"}) {
        SCOPED_TRACE(workload);
        Simulation sim(oracleConfig(Mechanism::kHma));
        const RunResult r = sim.run(oracleTrace(workload), workload);
        ASSERT_NE(sim.decisionLog(), nullptr);
        ASSERT_GT(r.migration.migrations, 0u);
        const RemapTable &placement =
            dynamic_cast<const HmaManager &>(sim.manager()).placement();

        DenseRemap ref(placement.numPages());
        std::uint64_t commits = 0;
        for (const DecisionLog::Record &rec :
             committedInOrder(*sim.decisionLog())) {
            ASSERT_EQ(rec.pod, DecisionLog::kNoPod);
            ref.swap(rec.page, rec.victim);
            ++commits;
        }
        expectReplayed(placement, ref, commits);
    }
}

} // namespace
} // namespace mempod
