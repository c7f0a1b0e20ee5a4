/**
 * @file
 * Unit tests for the migration decision ledger (recording, outcomes,
 * realized-benefit watch windows, ping-pong detection) and end-to-end
 * determinism of its JSONL export across PDES shard counts.
 */
#include <gtest/gtest.h>

#include "common/decision_log.h"
#include "sim/simulation.h"
#include "sim/stats_writer.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

constexpr TimePs kEpoch = 1000; // 1 ns epochs for unit tests

TEST(DecisionLog, RecordCapturesDecisionTimeState)
{
    DecisionLog log(kEpoch, 16.5);
    const std::uint64_t id = log.record(/*pod=*/2, /*page=*/70,
                                        /*victim=*/12,
                                        /*trackerCount=*/3,
                                        /*now=*/2500);
    ASSERT_EQ(log.size(), 1u);
    const DecisionLog::Record &r = log.records()[0];
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(r.seq, 0u);
    EXPECT_EQ(r.timePs, 2500u);
    EXPECT_EQ(r.epoch, 2u); // 2500 / 1000
    EXPECT_EQ(r.pod, 2u);
    EXPECT_EQ(r.page, 70u);
    EXPECT_EQ(r.victim, 12u);
    EXPECT_EQ(r.trackerCount, 3u);
    EXPECT_DOUBLE_EQ(r.predictedBenefitNs, 3 * 16.5);
    EXPECT_EQ(r.outcome, DecisionLog::Outcome::kPending);
}

TEST(DecisionLog, CommitAndAbortResolveOutcomes)
{
    DecisionLog log(kEpoch, 1.0);
    const auto a = log.record(0, 1, 2, 1, 100);
    const auto b = log.record(0, 3, 4, 1, 100);
    log.commit(a, 700);
    log.abort(b, 800);
    EXPECT_EQ(log.committedCount(), 1u);
    EXPECT_EQ(log.abortedCount(), 1u);
    EXPECT_EQ(log.records()[a].outcome, DecisionLog::Outcome::kCompleted);
    EXPECT_EQ(log.records()[a].commitPs, 700u);
    EXPECT_EQ(log.records()[b].outcome, DecisionLog::Outcome::kAborted);
    EXPECT_STREQ(DecisionLog::outcomeName(log.records()[b].outcome),
                 "aborted");
}

TEST(DecisionLog, RealizedHitsCountNearTierTouchesInsideOneEpoch)
{
    DecisionLog log(kEpoch, 1.0);
    const auto id = log.record(1, 42, 7, 5, 0);
    log.commit(id, 500); // window: [500, 1500)
    log.noteAccess(1, 42, /*nearTier=*/true, 600);
    log.noteAccess(1, 42, /*nearTier=*/false, 700); // far touch: no credit
    log.noteAccess(1, 42, true, 1499);
    EXPECT_EQ(log.records()[id].realizedNearHits, 2u);
    // Different pod or page: no credit.
    log.noteAccess(0, 42, true, 800);
    log.noteAccess(1, 43, true, 800);
    EXPECT_EQ(log.records()[id].realizedNearHits, 2u);
}

TEST(DecisionLog, WatchWindowExpiresAfterOneEpoch)
{
    DecisionLog log(kEpoch, 1.0);
    const auto id = log.record(0, 9, 1, 2, 0);
    log.commit(id, 1000); // watch closes at 2000, entry lives to 3001
    log.noteAccess(0, 9, true, 2000);
    log.noteAccess(0, 9, true, 2500); // entry open for ping-pong only
    EXPECT_EQ(log.records()[id].realizedNearHits, 0u);
    EXPECT_EQ(log.openWindows(), 1u);
}

TEST(DecisionLog, PingPongMarksTheEarlierDecision)
{
    DecisionLog log(kEpoch, 1.0);
    // Page 5 migrates in, then is evicted again 1.5 epochs later.
    const auto first = log.record(0, 5, 1, 4, 0);
    log.commit(first, 1000);
    const auto second = log.record(0, 8, /*victim=*/5, 4, 2400);
    log.commit(second, 2500); // 1500 ps after first: within 2 epochs
    EXPECT_TRUE(log.records()[first].pingPong);
    EXPECT_FALSE(log.records()[second].pingPong);
    EXPECT_EQ(log.pingPongCount(), 1u);
}

TEST(DecisionLog, PingPongedPageKeepsItsWatch)
{
    DecisionLog log(kEpoch, 1.0);
    const auto first = log.record(0, 5, 1, 4, 0);
    log.commit(first, 1000);
    log.commit(log.record(0, 8, /*victim=*/5, 4, 1100), 1200);
    EXPECT_TRUE(log.records()[first].pingPong);
    // The ping-pong closes only its own window: touches inside the
    // first watch still count, and a second eviction of the same page
    // is not a second ping-pong.
    log.noteAccess(0, 5, true, 1500);
    EXPECT_EQ(log.records()[first].realizedNearHits, 1u);
    log.commit(log.record(0, 9, /*victim=*/5, 4, 1600), 1700);
    EXPECT_EQ(log.pingPongCount(), 1u);
    EXPECT_EQ(log.openWindows(), 3u);
}

TEST(DecisionLog, SlowEvictionIsNotAPingPong)
{
    DecisionLog log(kEpoch, 1.0);
    const auto first = log.record(0, 5, 1, 4, 0);
    log.commit(first, 1000);
    const auto second = log.record(0, 8, /*victim=*/5, 4, 9000);
    log.commit(second, 9100); // 8100 ps later: > 2 epochs, fine
    EXPECT_FALSE(log.records()[first].pingPong);
    EXPECT_EQ(log.pingPongCount(), 0u);
}

TEST(DecisionLog, WindowsCloseAfterTwoIdleEpochs)
{
    DecisionLog log(kEpoch, 1.0);
    log.commit(log.record(0, 5, 1, 4, 0), 1000);
    log.commit(log.record(0, 6, 2, 4, 0), 1200);
    EXPECT_EQ(log.openWindows(), 2u);
    // Any demand retires what has closed: an entry outlives its watch
    // (commit + 1 epoch) until ping-pong eligibility ends, just after
    // commit + 2 epochs.
    log.noteAccess(3, 99, true, 3000);
    EXPECT_EQ(log.openWindows(), 2u);
    log.noteAccess(3, 99, true, 3001);
    EXPECT_EQ(log.openWindows(), 1u);
    log.noteAccess(3, 99, true, 3201);
    EXPECT_EQ(log.openWindows(), 0u);
}

TEST(DecisionLog, TouchAtTheDeadlineEarnsNoCredit)
{
    // Alone, the watch is closed by the no-probe fast path; after a
    // later commit, by its own commit time.
    for (const bool later_commit : {false, true}) {
        DecisionLog log(kEpoch, 1.0);
        const auto id = log.record(0, 9, 1, 2, 0);
        log.commit(id, 1000); // window [1000, 2000)
        if (later_commit)
            log.commit(log.record(0, 4, 2, 2, 1500), 1500);
        log.noteAccess(0, 9, true, 1999);
        log.noteAccess(0, 9, true, 2000);
        EXPECT_EQ(log.records()[id].realizedNearHits, 1u) << later_commit;
        // The closed watch leaves the entry to its ping-pong window.
        EXPECT_EQ(log.openWindows(), later_commit ? 2u : 1u);
    }
}

TEST(DecisionLog, PingPongWindowIsTwoEpochsInclusive)
{
    for (const TimePs gap : {2 * kEpoch, 2 * kEpoch + 1}) {
        DecisionLog log(kEpoch, 1.0);
        const auto first = log.record(0, 5, 1, 4, 0);
        log.commit(first, 1000);
        log.noteAccess(0, 5, true, 1000 + gap); // drains like a demand
        log.commit(log.record(0, 8, /*victim=*/5, 4, 1000), 1000 + gap);
        EXPECT_EQ(log.records()[first].pingPong, gap == 2 * kEpoch)
            << "gap " << gap;
        EXPECT_EQ(log.pingPongCount(), gap == 2 * kEpoch ? 1u : 0u);
    }
}

TEST(DecisionLog, RecommittedPageKeepsItsNewWindow)
{
    // Page 5 migrates in, out (as a victim) and in again while its
    // first window is open. Closing the first window must leave the
    // second one — keyed by the same page — in place.
    DecisionLog log(kEpoch, 1.0);
    const auto first = log.record(0, 5, 1, 4, 0);
    log.commit(first, 1000);
    log.commit(log.record(0, 1, /*victim=*/5, 4, 1100), 1200);
    const auto second = log.record(0, 5, 1, 4, 1300);
    log.commit(second, 1500); // new windows: watch to 2500, ping-pong 3500
    log.noteAccess(0, 5, true, 2100); // first watch closed at 2000
    EXPECT_EQ(log.records()[first].realizedNearHits, 0u);
    EXPECT_EQ(log.records()[second].realizedNearHits, 1u);
    // After the first commit's ping-pong window (3000) closes, page 5
    // can still flag the second decision.
    log.commit(log.record(0, 7, /*victim=*/5, 4, 3000), 3100);
    EXPECT_TRUE(log.records()[second].pingPong);
}

TEST(DecisionLogDeathTest, CommitTimesNeverDecrease)
{
    DecisionLog log(kEpoch, 1.0);
    log.commit(log.record(0, 5, 1, 4, 0), 1000);
    const auto late = log.record(0, 6, 2, 4, 0);
    EXPECT_DEATH(log.commit(late, 999), "backwards");
}

SimConfig
tinyConfig(Mechanism m, std::uint32_t shards)
{
    SimConfig c = SimConfig::paper(m);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    c.shards = shards;
    return c;
}

Trace
tinyTrace(std::uint64_t requests = 30000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015;
    return WorkloadCatalog::global().build("xalanc", gc);
}

TEST(DecisionLog, LedgerJsonlIsByteIdenticalAcrossShardCounts)
{
    const Trace t = tinyTrace();
    std::string serial, sharded;
    for (std::uint32_t shards : {0u, 2u}) {
        Simulation sim(tinyConfig(Mechanism::kMemPod, shards));
        const RunResult r = sim.run(t, "xalanc");
        ASSERT_NE(sim.decisionLog(), nullptr);
        EXPECT_GT(sim.decisionLog()->size(), 0u);
        // Final invariant: every committed decision is a migration.
        EXPECT_EQ(sim.decisionLog()->committedCount(),
                  r.migration.migrations);
        (shards ? sharded : serial) = StatsWriter::decisionsToJsonl(
            *sim.decisionLog(), "xalanc", r.mechanism);
    }
    EXPECT_EQ(serial, sharded);
    EXPECT_NE(serial.find("\"schema\":\"mempod-decisions-v1\""),
              std::string::npos);
}

TEST(DecisionLog, LedgerIsCoordinatorOnly)
{
    Simulation sim(tinyConfig(Mechanism::kMemPod, 2));
    EXPECT_EQ(sim.eq().decisions(), sim.decisionLog());
    const ParallelExecutor *ex = sim.executor();
    ASSERT_NE(ex, nullptr);
    for (std::size_t i = 0; i < ex->numLanes(); ++i)
        EXPECT_EQ(ex->channelQueue(i).decisions(), nullptr) << "lane " << i;
}

TEST(DecisionLog, EveryMechanismFeedsTheSharedLedger)
{
    const Trace t = tinyTrace();
    for (Mechanism m : {Mechanism::kMemPod, Mechanism::kHma,
                        Mechanism::kThm, Mechanism::kCameo}) {
        Simulation sim(tinyConfig(m, 0));
        const RunResult r = sim.run(t, "xalanc");
        ASSERT_NE(sim.decisionLog(), nullptr) << mechanismName(m);
        EXPECT_EQ(sim.decisionLog()->committedCount(),
                  r.migration.migrations)
            << mechanismName(m);
        if (r.migration.migrations > 0) {
            EXPECT_GT(sim.decisionLog()->size(), 0u) << mechanismName(m);
        }
    }
}

TEST(DecisionLog, DisabledByConfigLeavesNoLedger)
{
    SimConfig c = tinyConfig(Mechanism::kMemPod, 0);
    c.decisionsEnabled = false;
    Simulation sim(c);
    sim.run(tinyTrace(10000), "xalanc");
    EXPECT_EQ(sim.decisionLog(), nullptr);
}

TEST(DecisionLog, BenefitPerTouchMatchesSpecGap)
{
    const SimConfig c = tinyConfig(Mechanism::kMemPod, 0);
    const double gap_ps =
        static_cast<double>((c.far.timing.tRCD + c.far.timing.tCL +
                             c.far.timing.tBL) -
                            (c.near.timing.tRCD + c.near.timing.tCL +
                             c.near.timing.tBL));
    EXPECT_DOUBLE_EQ(Simulation::benefitPerTouchNs(c), gap_ps / 1000.0);
}

} // namespace
} // namespace mempod
