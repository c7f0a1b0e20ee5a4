/** @file Unit tests for one memory Pod. */
#include <gtest/gtest.h>

#include "common/decision_log.h"
#include "common/rng.h"
#include "common/tracer.h"
#include "completion_fns.h"
#include "core/pod.h"

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

struct PodFixture : ::testing::Test
{
    CompletionFns fns;
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};

    PodParams
    defaults()
    {
        PodParams p;
        p.meaEntries = 8;
        p.meaCounterBits = 8;
        return p;
    }

    /** First slow home page belonging to pod 0 (tiny geometry). */
    PageId
    slowPageOfPod0(std::uint64_t k = 0)
    {
        return mem.geom().fastPages() + k * mem.geom().numPods;
    }

    int
    demand(Pod &pod, PageId page, std::uint64_t offset = 0)
    {
        int completions = 0;
        pod.handleDemand(
            {.homeAddr = AddressMap::addrOfPage(page) + offset,
             .arrival = eq.now(),
             .done = fns.add([&](TimePs) { ++completions; })});
        eq.runAll();
        return completions;
    }
};

TEST_F(PodFixture, DemandForwardedAndCompleted)
{
    Pod pod(0, eq, mem, defaults());
    EXPECT_EQ(demand(pod, slowPageOfPod0()), 1);
    EXPECT_EQ(mem.stats().demandSlow, 1u);
}

TEST_F(PodFixture, MeaObservesEveryDemand)
{
    Pod pod(0, eq, mem, defaults());
    const PageId page = slowPageOfPod0();
    demand(pod, page);
    demand(pod, page);
    const auto snap = pod.mea().snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].id, mem.map().podLocalOfPage(page));
    EXPECT_EQ(snap[0].count, 2u);
}

TEST_F(PodFixture, IntervalMigratesHotSlowPageToFast)
{
    Pod pod(0, eq, mem, defaults());
    const PageId hot = slowPageOfPod0(9);
    const std::uint64_t local = mem.map().podLocalOfPage(hot);
    for (int i = 0; i < 5; ++i)
        demand(pod, hot);
    EXPECT_FALSE(pod.remap().inFast(local));
    pod.onInterval();
    eq.runAll();
    EXPECT_TRUE(pod.remap().inFast(local));
    EXPECT_EQ(pod.stats().migrations, 1u);
    EXPECT_EQ(pod.stats().bytesMoved, 2 * kPageBytes);
    // Subsequent demands are served by fast memory.
    const std::uint64_t fast_before = mem.stats().demandFast;
    demand(pod, hot);
    EXPECT_EQ(mem.stats().demandFast, fast_before + 1);
}

TEST_F(PodFixture, HotPageAlreadyInFastIsSkipped)
{
    Pod pod(0, eq, mem, defaults());
    const PageId fast_home = 0; // fast page of pod 0
    for (int i = 0; i < 5; ++i)
        demand(pod, fast_home);
    pod.onInterval();
    eq.runAll();
    EXPECT_EQ(pod.stats().migrations, 0u);
    EXPECT_EQ(pod.stats().candidatesSkipped, 1u);
}

TEST_F(PodFixture, MeaResetsEachInterval)
{
    Pod pod(0, eq, mem, defaults());
    demand(pod, slowPageOfPod0());
    pod.onInterval();
    eq.runAll();
    EXPECT_EQ(pod.mea().size(), 0u);
}

TEST_F(PodFixture, VictimScanSkipsHotResidents)
{
    PodParams p = defaults();
    p.meaEntries = 4;
    Pod pod(0, eq, mem, p);
    // Make two slow pages hot; migrate them in.
    const PageId a = slowPageOfPod0(1);
    const PageId b = slowPageOfPod0(2);
    for (int i = 0; i < 4; ++i) {
        demand(pod, a);
        demand(pod, b);
    }
    pod.onInterval();
    eq.runAll();
    EXPECT_EQ(pod.stats().migrations, 2u);
    // Keep both hot across the next interval; they must not evict
    // each other (victim scan skips hot residents).
    for (int i = 0; i < 4; ++i) {
        demand(pod, a);
        demand(pod, b);
    }
    pod.onInterval();
    eq.runAll();
    EXPECT_TRUE(pod.remap().inFast(mem.map().podLocalOfPage(a)));
    EXPECT_TRUE(pod.remap().inFast(mem.map().podLocalOfPage(b)));
}

TEST_F(PodFixture, RequestsBlockedDuringMigrationDrainAfterCommit)
{
    Pod pod(0, eq, mem, defaults());
    const PageId hot = slowPageOfPod0(3);
    for (int i = 0; i < 3; ++i)
        demand(pod, hot);
    pod.onInterval(); // schedules the swap; engine starts reads
    // Without draining the event queue, issue a demand to the
    // migrating page: it must be blocked, then complete after commit.
    int completions = 0;
    pod.handleDemand({.homeAddr = AddressMap::addrOfPage(hot) + 64,
                      .arrival = eq.now(),
                      .done = fns.add([&](TimePs) { ++completions; })});
    EXPECT_EQ(pod.stats().blockedRequests, 1u);
    EXPECT_EQ(completions, 0);
    eq.runAll();
    EXPECT_EQ(completions, 1);
    EXPECT_TRUE(pod.remap().inFast(mem.map().podLocalOfPage(hot)));
}

TEST_F(PodFixture, MigrationCapRespected)
{
    PodParams p = defaults();
    p.meaEntries = 8;
    p.maxMigrationsPerInterval = 2;
    Pod pod(0, eq, mem, p);
    for (std::uint64_t k = 0; k < 6; ++k)
        for (int i = 0; i < 3; ++i)
            demand(pod, slowPageOfPod0(k));
    pod.onInterval();
    eq.runAll();
    EXPECT_EQ(pod.stats().migrations, 2u);
}

TEST_F(PodFixture, RemapPermutationSurvivesManyIntervals)
{
    PodParams p = defaults();
    Pod pod(0, eq, mem, p);
    Rng rng; // default seed
    for (int interval = 0; interval < 20; ++interval) {
        for (int i = 0; i < 50; ++i)
            demand(pod, slowPageOfPod0(rng.nextBelow(64)));
        pod.onInterval();
        eq.runAll();
    }
    pod.remap().checkConsistency();
}

TEST_F(PodFixture, MetaCacheMissInjectsBookkeepingRead)
{
    PodParams p = defaults();
    p.metaCacheEnabled = true;
    p.metaCacheBytes = 4096;
    Pod pod(0, eq, mem, p);
    EXPECT_EQ(demand(pod, slowPageOfPod0(17)), 1);
    EXPECT_EQ(pod.stats().metaCacheMisses, 1u);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u);
    // Same page again: the remap entry is now cached.
    EXPECT_EQ(demand(pod, slowPageOfPod0(17)), 1);
    EXPECT_EQ(pod.stats().metaCacheHits, 1u);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u);
}

TEST_F(PodFixture, TrackingStorageMatchesPaper)
{
    EventQueue eq2;
    MemorySystem paper_mem(eq2, SystemGeometry::paper(),
                           DramSpec::hbm1GHz(), DramSpec::ddr4_1600());
    PodParams p; // paper defaults: 64 entries x 2 bits
    Pod pod(0, eq2, paper_mem, p);
    EXPECT_EQ(pod.trackingStorageBits() / 8, 184u); // 184 B per Pod
}

TEST_F(PodFixture, SwapStillQueuedAtNextIntervalIsAborted)
{
    DecisionLog log(50_us, 1.0);
    Tracer tracer(TracerConfig{.enabled = true, .sampleEvery = 1});
    eq.attach({.tracer = &tracer, .decisions = &log});
    Pod pod(0, eq, mem, defaults());
    const PageId a = slowPageOfPod0(1);
    const PageId b = slowPageOfPod0(2);
    for (int i = 0; i < 4; ++i) {
        demand(pod, a);
        demand(pod, b);
    }
    pod.onInterval(); // one swap starts, the other waits for the engine
    ASSERT_EQ(log.size(), 2u);
    ASSERT_EQ(pod.engine().queuedOps(), 1u);
    const DecisionLog::Record queued = log.records()[1];
    EXPECT_TRUE(pod.guard().reserved(queued.page));
    EXPECT_TRUE(pod.guard().reserved(queued.victim));

    pod.onInterval(); // the next interval drops the stale candidate
    EXPECT_EQ(log.records()[1].outcome, DecisionLog::Outcome::kAborted);
    EXPECT_EQ(log.abortedCount(), 1u);
    EXPECT_TRUE(pod.guard().reserved(log.records()[0].page));
    EXPECT_FALSE(pod.guard().reserved(queued.page));
    EXPECT_FALSE(pod.guard().reserved(queued.victim));
    const std::string mid = tracer.toJson();
    EXPECT_NE(mid.find("\"swap_aborted\""), std::string::npos);
    EXPECT_EQ(occurrences(mid, "\"ph\":\"s\""), 2u);
    EXPECT_EQ(occurrences(mid, "\"ph\":\"f\""), 1u); // aborted flow ends
    eq.runAll();

    // A later interval may choose the freed page again.
    const PageId again = queued.page == mem.map().podLocalOfPage(a) ? a : b;
    for (int i = 0; i < 4; ++i)
        demand(pod, again);
    pod.onInterval();
    eq.runAll();
    EXPECT_EQ(log.records().back().page, queued.page);
    EXPECT_EQ(log.records().back().outcome,
              DecisionLog::Outcome::kCompleted);
    EXPECT_TRUE(pod.remap().inFast(queued.page));
    const std::string end = tracer.toJson();
    EXPECT_EQ(occurrences(end, "\"ph\":\"s\""),
              occurrences(end, "\"ph\":\"f\""));
    EXPECT_EQ(pod.pendingWork(), 0u);
}

} // namespace
} // namespace mempod
