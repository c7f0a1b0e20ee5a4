/** @file Unit tests for trace records and the synthetic generator. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "trace/generator.h"
#include "trace/native.h"
#include "trace/profiles.h"
#include "trace/record.h"
#include "trace/source.h"

namespace mempod {
namespace {

GeneratorConfig
smallConfig()
{
    GeneratorConfig c;
    c.totalRequests = 20000;
    c.seed = 7;
    c.footprintScale = 0.02;
    return c;
}

std::vector<BenchmarkProfile>
eightCores(const std::string &name)
{
    return std::vector<BenchmarkProfile>(8, findProfile(name));
}

/** Drain a generated stream into a vector. */
Trace
generate(std::vector<BenchmarkProfile> profiles, const GeneratorConfig &c)
{
    SyntheticTraceSource source(std::move(profiles), c);
    return materialize(source);
}

TEST(Generator, ProducesRequestedCount)
{
    const Trace t = generate(eightCores("xalanc"), smallConfig());
    EXPECT_EQ(t.size(), 20000u);
}

TEST(Generator, TimeSorted)
{
    const Trace t = generate(eightCores("mcf"), smallConfig());
    for (std::size_t i = 1; i < t.size(); ++i)
        ASSERT_GE(t[i].time, t[i - 1].time);
}

TEST(Generator, Deterministic)
{
    const Trace a = generate(eightCores("lbm"), smallConfig());
    const Trace b = generate(eightCores("lbm"), smallConfig());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].coreLocal, b[i].coreLocal);
        EXPECT_EQ(a[i].core, b[i].core);
    }
}

TEST(Generator, SeedChangesStream)
{
    GeneratorConfig c = smallConfig();
    const Trace a = generate(eightCores("lbm"), c);
    c.seed = 8;
    const Trace b = generate(eightCores("lbm"), c);
    int differing = 0;
    for (std::size_t i = 0; i < 100; ++i)
        differing += a[i].coreLocal != b[i].coreLocal ? 1 : 0;
    EXPECT_GT(differing, 50);
}

TEST(Generator, AllCoresRepresented)
{
    const Trace t = generate(eightCores("bzip"), smallConfig());
    std::unordered_set<int> cores;
    for (const auto &r : t)
        cores.insert(r.core);
    EXPECT_EQ(cores.size(), 8u);
}

TEST(Generator, FootprintRespected)
{
    GeneratorConfig c = smallConfig();
    const auto &prof = findProfile("gcc");
    const std::uint64_t pages = std::max<std::uint64_t>(
        4, static_cast<std::uint64_t>(
               (prof.footprintBytes / kPageBytes) * c.footprintScale));
    const Trace t = generate(eightCores("gcc"), c);
    for (const auto &r : t)
        ASSERT_LT(r.coreLocal / kPageBytes, pages);
}

TEST(Generator, WriteFractionApproximated)
{
    const Trace t = generate(eightCores("lbm"), smallConfig());
    VectorTraceSource source(t);
    const TraceSummary s = summarize(source);
    const double wf = static_cast<double>(s.writes) / s.records;
    EXPECT_NEAR(wf, findProfile("lbm").writeFraction, 0.05);
}

TEST(Generator, RateQuotasFollowProfiles)
{
    // mcf (22/us) should contribute ~4.4x the records of gcc (5/us).
    std::vector<BenchmarkProfile> profs(4, findProfile("mcf"));
    for (int i = 0; i < 4; ++i)
        profs.push_back(findProfile("gcc"));
    const Trace t = generate(profs, smallConfig());
    std::uint64_t mcf = 0, gcc = 0;
    for (const auto &r : t)
        (r.core < 4 ? mcf : gcc) += 1;
    EXPECT_NEAR(static_cast<double>(mcf) / gcc, 22.0 / 5.0, 0.5);
}

TEST(Generator, SkewedProfileConcentratesAccesses)
{
    // xalanc's top pages should take a large share of accesses.
    const Trace t = generate(eightCores("xalanc"), smallConfig());
    std::unordered_map<std::uint64_t, int> counts;
    for (const auto &r : t)
        if (r.core == 0)
            ++counts[r.coreLocal / kPageBytes];
    int total = 0, max_count = 0;
    for (auto &[p, c] : counts) {
        total += c;
        max_count = std::max(max_count, c);
    }
    EXPECT_GT(max_count, total / 100); // hottest page >> uniform share
}

TEST(Generator, StreamingProfileSpreadsAccessesEvenly)
{
    // lbm (95% streaming) spreads work evenly; xalanc concentrates a
    // large share on its hottest page.
    auto top_share = [](const Trace &t) {
        std::unordered_map<std::uint64_t, int> counts;
        int total = 0;
        for (const auto &r : t) {
            if (r.core != 0)
                continue;
            ++counts[r.coreLocal / kPageBytes];
            ++total;
        }
        int max_count = 0;
        for (auto &[p, c] : counts)
            max_count = std::max(max_count, c);
        return static_cast<double>(max_count) / total;
    };
    const Trace lbm = generate(eightCores("lbm"), smallConfig());
    const Trace xal = generate(eightCores("xalanc"), smallConfig());
    EXPECT_GT(top_share(xal), 4 * top_share(lbm));
}

TEST(Generator, PhaseChangeShiftsHotSet)
{
    // Compare hot pages of the first vs last quarter for a profile
    // with phase changes: overlap should be partial.
    GeneratorConfig c = smallConfig();
    c.totalRequests = 60000;
    const Trace t = generate(eightCores("xalanc"), c);
    auto top_pages = [&](std::size_t begin, std::size_t end) {
        std::unordered_map<std::uint64_t, int> counts;
        for (std::size_t i = begin; i < end; ++i)
            if (t[i].core == 0)
                ++counts[t[i].coreLocal / kPageBytes];
        std::vector<std::pair<int, std::uint64_t>> ranked;
        for (auto &[p, n] : counts)
            ranked.push_back({n, p});
        std::sort(ranked.rbegin(), ranked.rend());
        std::unordered_set<std::uint64_t> top;
        for (std::size_t i = 0; i < std::min<std::size_t>(10, ranked.size());
             ++i)
            top.insert(ranked[i].second);
        return top;
    };
    const auto first = top_pages(0, t.size() / 4);
    const auto last = top_pages(3 * t.size() / 4, t.size());
    std::size_t overlap = 0;
    for (auto p : first)
        overlap += last.contains(p) ? 1 : 0;
    EXPECT_LT(overlap, first.size()); // some of the hot set moved
}

TEST(TraceIo, SaveLoadRoundTrip)
{
    const Trace t = generate(eightCores("sphinx"), smallConfig());
    const std::string path = ::testing::TempDir() + "/trace.bin";
    writeNativeTrace(t, path);
    NativeTraceSource source(path);
    const Trace loaded = materialize(source);
    ASSERT_EQ(loaded.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(loaded[i].time, t[i].time);
        EXPECT_EQ(loaded[i].coreLocal, t[i].coreLocal);
        EXPECT_EQ(loaded[i].core, t[i].core);
        EXPECT_EQ(loaded[i].type, t[i].type);
    }
    std::remove(path.c_str());
}

TEST(TraceIoDeathTest, LoadRejectsGarbage)
{
    const std::string path = ::testing::TempDir() + "/garbage.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace", f);
    std::fclose(f);
    EXPECT_DEATH(NativeTraceSource source(path), "not a mempod trace");
    std::remove(path.c_str());
}

TEST(TraceSummaryTest, CountsFields)
{
    Trace t;
    for (int i = 0; i < 10; ++i) {
        TraceRecord r;
        r.time = i * 100;
        r.coreLocal = (i % 3) * kPageBytes;
        r.type = i % 2 ? AccessType::kWrite : AccessType::kRead;
        t.push_back(r);
    }
    VectorTraceSource source(t);
    const TraceSummary s = summarize(source);
    EXPECT_EQ(s.records, 10u);
    EXPECT_EQ(s.writes, 5u);
    EXPECT_EQ(s.touchedPages, 3u);
    EXPECT_EQ(s.duration, 900u);
}

TEST(Profiles, AllSeventeenPresent)
{
    EXPECT_EQ(allProfiles().size(), 17u);
    for (const auto &p : allProfiles()) {
        EXPECT_GT(p.footprintBytes, 0u);
        EXPECT_GT(p.reqsPerUs, 0.0);
        EXPECT_GE(p.writeFraction, 0.0);
        EXPECT_LE(p.writeFraction, 1.0);
    }
}

TEST(ProfilesDeathTest, UnknownProfileFatal)
{
    EXPECT_DEATH(findProfile("doom3"), "unknown");
}

} // namespace
} // namespace mempod
