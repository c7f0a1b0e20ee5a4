/** @file Unit tests for trace footprint/concentration analysis. */
#include <gtest/gtest.h>

#include "analysis/footprint.h"
#include "trace/generator.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

Trace
syntheticTrace(const std::vector<std::uint64_t> &pages)
{
    Trace t;
    for (std::size_t i = 0; i < pages.size(); ++i) {
        TraceRecord r;
        r.time = i * 100;
        r.coreLocal = pages[i] * kPageBytes;
        t.push_back(r);
    }
    return t;
}

FootprintStats
analyze(const Trace &trace, std::uint64_t window_requests = 5500)
{
    VectorTraceSource source(trace);
    return analyzeFootprint(source, window_requests);
}

TEST(Footprint, EmptyTrace)
{
    const FootprintStats s = analyze({}, 100);
    EXPECT_EQ(s.totalAccesses, 0u);
    EXPECT_EQ(s.distinctPages, 0u);
}

TEST(Footprint, CountsDistinctPages)
{
    const FootprintStats s =
        analyze(syntheticTrace({0, 1, 2, 0, 1, 0}), 100);
    EXPECT_EQ(s.totalAccesses, 6u);
    EXPECT_EQ(s.distinctPages, 3u);
}

TEST(Footprint, ConcentrationOfSinglePageIsTotal)
{
    const FootprintStats s =
        analyze(syntheticTrace({5, 5, 5, 5}), 100);
    for (double c : s.concentration)
        EXPECT_DOUBLE_EQ(c, 1.0);
    EXPECT_DOUBLE_EQ(s.skewIndex, 0.0); // one page: no inequality
}

TEST(Footprint, ConcentrationCurveIsMonotone)
{
    GeneratorConfig gc;
    gc.totalRequests = 30000;
    gc.footprintScale = 0.05;
    const Trace t = WorkloadCatalog::global().build("xalanc", gc);
    const FootprintStats s = analyze(t);
    for (std::size_t i = 1; i < s.concentration.size(); ++i)
        EXPECT_GE(s.concentration[i], s.concentration[i - 1]);
    EXPECT_LE(s.concentration.back(), 1.0 + 1e-9);
}

TEST(Footprint, SkewedWorkloadMoreConcentratedThanStreaming)
{
    GeneratorConfig gc;
    gc.totalRequests = 40000;
    gc.footprintScale = 0.05;
    const FootprintStats skewed = analyze(
        WorkloadCatalog::global().build("xalanc", gc));
    const FootprintStats streaming = analyze(
        WorkloadCatalog::global().build("lbm", gc));
    // Hottest 100 pages absorb far more of xalanc's traffic.
    EXPECT_GT(skewed.concentration[2], streaming.concentration[2]);
    EXPECT_GT(skewed.skewIndex, streaming.skewIndex);
}

TEST(Footprint, SingleTouchFraction)
{
    const FootprintStats s =
        analyze(syntheticTrace({0, 0, 1, 2}), 100);
    // Pages 1 and 2 touched once; page 0 twice.
    EXPECT_DOUBLE_EQ(s.singleTouchFraction, 2.0 / 3.0);
}

TEST(Footprint, WorkingSetWindows)
{
    // Two full windows of 3 accesses: {0,1,2} then {0,0,0}.
    const FootprintStats s =
        analyze(syntheticTrace({0, 1, 2, 0, 0, 0}), 3);
    ASSERT_EQ(s.workingSetPerWindow.size(), 2u);
    EXPECT_EQ(s.workingSetPerWindow[0], 3u);
    EXPECT_EQ(s.workingSetPerWindow[1], 1u);
    EXPECT_DOUBLE_EQ(s.meanWindowWorkingSet(), 2.0);
}

TEST(Footprint, CoresDistinguished)
{
    Trace t = syntheticTrace({0, 0});
    t[1].core = 1; // same page id, different core
    const FootprintStats s = analyze(t, 100);
    EXPECT_EQ(s.distinctPages, 2u);
}

TEST(Footprint, SkewIndexOrdersUniformVsZipf)
{
    // Uniform: every page once.
    std::vector<std::uint64_t> uniform;
    for (std::uint64_t p = 0; p < 1000; ++p)
        uniform.push_back(p);
    // Zipf-ish: page p gets ~1000/(p+1) accesses.
    std::vector<std::uint64_t> zipf;
    for (std::uint64_t p = 0; p < 50; ++p)
        for (std::uint64_t k = 0; k < 1000 / (p + 1); ++k)
            zipf.push_back(p);
    const double u =
        analyze(syntheticTrace(uniform), 100).skewIndex;
    const double z =
        analyze(syntheticTrace(zipf), 100).skewIndex;
    EXPECT_LT(u, 0.05);
    EXPECT_GT(z, 0.3);
}

} // namespace
} // namespace mempod
