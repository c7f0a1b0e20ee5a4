/** @file Unit tests for the Section 3 offline accuracy study. */
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/interval_study.h"
#include "common/rng.h"
#include "trace/generator.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

IntervalStudyConfig
smallStudy()
{
    IntervalStudyConfig c;
    c.intervalRequests = 1000;
    c.meaEntries = 128;
    return c;
}

TEST(IntervalStudy, EmptyStreamYieldsNothing)
{
    const IntervalStudyResult r =
        runIntervalStudy({}, smallStudy());
    EXPECT_EQ(r.intervals, 0u);
}

TEST(IntervalStudy, StableHotSetIsPerfectlyPredictable)
{
    // 30 pages, round-robin with descending weights, stationary: both
    // schemes should predict essentially everything.
    std::vector<std::uint64_t> stream;
    Rng rng(5);
    for (int i = 0; i < 20000; ++i)
        stream.push_back(rng.nextZipf(30, 1.2));
    const IntervalStudyResult r = runIntervalStudy(stream, smallStudy());
    EXPECT_GT(r.fcPredictionAccuracy[0], 0.9);
    EXPECT_GT(r.meaPredictionAccuracy[0], 0.9);
}

TEST(IntervalStudy, PageStreamFromTraceDisambiguatesCores)
{
    Trace t;
    TraceRecord a, b;
    a.core = 0;
    a.coreLocal = 0;
    b.core = 1;
    b.coreLocal = 0;
    t.push_back(a);
    t.push_back(b);
    VectorTraceSource source(t);
    const auto stream = pageStreamFromSource(source);
    EXPECT_NE(stream[0], stream[1]);
}

TEST(IntervalStudy, StreamingDefeatsFullCounters)
{
    // A sliding working window sweeping a structure far larger than
    // the interval: pages FC ranks highest in interval i (those with
    // the longest residence inside i) have left the window by i+1,
    // while the pages MEA keeps — recent ones — are exactly where the
    // window continues. This is the paper's bwaves/lbm observation.
    std::vector<std::uint64_t> stream;
    Rng rng(31);
    std::uint64_t window_base = 0;
    for (int i = 0; i < 40000; ++i) {
        if (i % 5 == 4)
            ++window_base; // window slides one page every 5 requests
        stream.push_back(window_base + rng.nextBelow(100));
    }
    IntervalStudyConfig cfg = smallStudy();
    cfg.intervalRequests = 1000;
    const IntervalStudyResult r = runIntervalStudy(stream, cfg);
    // MEA keeps boundary pages: clearly more future hits than FC.
    const double mea_total = r.meaPredictionHits[0] +
                             r.meaPredictionHits[1] +
                             r.meaPredictionHits[2];
    const double fc_total = r.fcPredictionHits[0] +
                            r.fcPredictionHits[1] + r.fcPredictionHits[2];
    EXPECT_GT(mea_total, fc_total);
}

TEST(IntervalStudy, PhaseChangesFavorMeaRecency)
{
    // Hot set rotates every interval-and-a-half: pages hot at the end
    // of an interval predict the next one better than pages hot at
    // its start.
    std::vector<std::uint64_t> stream;
    Rng rng(11);
    std::uint64_t base = 0;
    for (int i = 0; i < 40000; ++i) {
        if (i % 1500 == 0)
            base += 15;
        stream.push_back(base + rng.nextZipf(30, 1.0));
    }
    IntervalStudyConfig cfg = smallStudy();
    const IntervalStudyResult r = runIntervalStudy(stream, cfg);
    const double mea_total = r.meaPredictionHits[0] +
                             r.meaPredictionHits[1] +
                             r.meaPredictionHits[2];
    const double fc_total = r.fcPredictionHits[0] +
                            r.fcPredictionHits[1] + r.fcPredictionHits[2];
    EXPECT_GE(mea_total, fc_total * 0.95);
}

TEST(IntervalStudy, CountingAccuracyBelowPerfect)
{
    // On noisy streams MEA is a poor *counter* even when it predicts
    // well (the Figure 1 vs Figure 2 contrast).
    GeneratorConfig gc;
    gc.totalRequests = 50000;
    gc.footprintScale = 0.05;
    const auto stream =
        pageStreamFromSource(*WorkloadCatalog::global().open("mix5", gc));
    const IntervalStudyResult r = runIntervalStudy(stream, smallStudy());
    EXPECT_GT(r.intervals, 10u);
    for (int tier = 0; tier < 3; ++tier) {
        EXPECT_GE(r.meaCountingAccuracy[tier], 0.0);
        EXPECT_LE(r.meaCountingAccuracy[tier], 1.0);
    }
}

TEST(IntervalStudy, PredictionsBoundedByMeaCapacity)
{
    GeneratorConfig gc;
    gc.totalRequests = 30000;
    gc.footprintScale = 0.05;
    const IntervalStudyResult r = runIntervalStudy(
        pageStreamFromSource(*WorkloadCatalog::global().open("xalanc", gc)),
        smallStudy());
    EXPECT_LE(r.meaPredictionsPerInterval, 128.0);
    EXPECT_GT(r.meaPredictionsPerInterval, 0.0);
}

TEST(IntervalStudy, HitsNeverExceedTierSize)
{
    GeneratorConfig gc;
    gc.totalRequests = 30000;
    gc.footprintScale = 0.05;
    const IntervalStudyResult r = runIntervalStudy(
        pageStreamFromSource(*WorkloadCatalog::global().open("mix1", gc)),
        smallStudy());
    for (int tier = 0; tier < 3; ++tier) {
        EXPECT_LE(r.meaPredictionHits[tier], 10.0);
        EXPECT_LE(r.fcPredictionHits[tier], 10.0);
    }
}

} // namespace
} // namespace mempod
