/**
 * @file
 * The streaming synthetic generator against an append-then-sort
 * oracle. The oracle generates every core's quota core by core from
 * the same per-core models and stable-sorts the lot by time, the
 * materialized form of the merge; the source must yield the
 * same records in the same order, replay them on reset(), and hold
 * state whose size does not grow with the trace.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/catalog.h"
#include "trace/generator.h"
#include "trace/profiles.h"
#include "trace/source.h"

namespace mempod {
namespace {

/** Reference: each core's quota appended in core order, stable-sorted. */
Trace
sortedOracle(const std::vector<BenchmarkProfile> &profiles,
             const GeneratorConfig &cfg)
{
    const std::size_t cores = profiles.size();
    std::vector<CoreModel> models;
    for (std::size_t c = 0; c < cores; ++c)
        models.emplace_back(profiles[c], static_cast<std::uint8_t>(c),
                            cfg);

    double rate_sum = 0.0;
    for (const auto &p : profiles)
        rate_sum += p.reqsPerUs;
    std::vector<std::uint64_t> quota(cores);
    std::uint64_t assigned = 0;
    for (std::size_t c = 0; c < cores; ++c) {
        quota[c] = static_cast<std::uint64_t>(
            cfg.totalRequests * (profiles[c].reqsPerUs / rate_sum));
        assigned += quota[c];
    }
    quota[0] += cfg.totalRequests - assigned;

    Trace trace;
    trace.reserve(cfg.totalRequests);
    for (std::size_t c = 0; c < cores; ++c)
        for (std::uint64_t i = 0; i < quota[c]; ++i)
            trace.push_back(models[c].next());
    std::stable_sort(trace.begin(), trace.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.time < b.time;
                     });
    return trace;
}

std::vector<BenchmarkProfile>
profilesOf(const std::string &workload)
{
    std::vector<BenchmarkProfile> out;
    for (const auto &b :
         WorkloadCatalog::global().find(workload).synthetic.benchmarks)
        out.push_back(findProfile(b));
    return out;
}

/** Record-for-record equality; reports the first difference. */
void
expectSameStream(const Trace &want, const Trace &got,
                 const std::string &what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i].time, got[i].time) << what << " record " << i;
        ASSERT_EQ(want[i].core, got[i].core) << what << " record " << i;
        ASSERT_EQ(want[i].coreLocal, got[i].coreLocal)
            << what << " record " << i;
        ASSERT_EQ(want[i].type, got[i].type) << what << " record " << i;
    }
}

TEST(GeneratorStream, MatchesSortOracleOnEveryCatalogWorkload)
{
    const std::vector<std::string> names =
        WorkloadCatalog::global().names();
    ASSERT_EQ(names.size(), 27u);
    for (const std::string &name : names) {
        for (const std::uint64_t seed : {3u, 42u}) {
            GeneratorConfig cfg;
            cfg.totalRequests = 4001; // not a multiple of the cores
            cfg.seed = seed;
            cfg.footprintScale = 0.05;
            cfg.rateScale = 1.7;
            SyntheticTraceSource source(profilesOf(name), cfg);
            EXPECT_EQ(source.size(), cfg.totalRequests);
            expectSameStream(sortedOracle(profilesOf(name), cfg),
                             materialize(source),
                             name + " seed " + std::to_string(seed));
        }
    }
}

TEST(GeneratorStream, TiesGoToTheLowestCore)
{
    // A 1 ps mean gap floors almost every gap at 1 ps, so all cores
    // share each timestamp: the merge order is decided by ties alone.
    BenchmarkProfile fast = findProfile("mcf");
    fast.reqsPerUs = 1e6;
    std::vector<BenchmarkProfile> profiles(5, fast);
    profiles[2].reqsPerUs = 2e6; // unequal quotas
    GeneratorConfig cfg;
    cfg.totalRequests = 3000;
    SyntheticTraceSource source(profiles, cfg);
    const Trace got = materialize(source);

    std::size_t ties = 0;
    for (std::size_t i = 1; i < got.size(); ++i) {
        if (got[i].time == got[i - 1].time) {
            ++ties;
            EXPECT_GT(got[i].core, got[i - 1].core) << "record " << i;
        }
    }
    EXPECT_GT(ties, got.size() / 2);
    expectSameStream(sortedOracle(profiles, cfg), got, "ties");
}

TEST(GeneratorStream, ResetReplaysTheSameStream)
{
    GeneratorConfig cfg;
    cfg.totalRequests = 5000;
    cfg.footprintScale = 0.1;
    SyntheticTraceSource source(profilesOf("mix5"), cfg);
    const Trace first = materialize(source);

    // Reset mid-stream: the partial pass must not leak into the next.
    source.reset();
    TraceRecord r;
    for (int i = 0; i < 1234; ++i)
        ASSERT_TRUE(source.next(r));
    source.reset();
    Trace second;
    while (source.next(r))
        second.push_back(r);
    expectSameStream(first, second, "after reset");
    EXPECT_FALSE(source.next(r)); // stays at end of stream
}

TEST(GeneratorStream, ResidentStateIsIndependentOfLength)
{
    GeneratorConfig small;
    small.totalRequests = 1000;
    GeneratorConfig large = small;
    large.totalRequests = 100'000'000;
    const SyntheticTraceSource a(profilesOf("xalanc"), small);
    const SyntheticTraceSource b(profilesOf("xalanc"), large);
    EXPECT_GT(a.maxResidentBytes(), 0u);
    EXPECT_EQ(a.maxResidentBytes(), b.maxResidentBytes());
    // Eight cores of models and short record batches: a few KiB.
    EXPECT_LT(a.maxResidentBytes(), 32 * 1024u);
}

TEST(GeneratorStream, CatalogCursorsAreIndependent)
{
    GeneratorConfig gen;
    gen.totalRequests = 3000;
    const WorkloadCatalog &cat = WorkloadCatalog::global();
    const auto a = cat.open("xalanc", gen);
    const auto b = cat.open("xalanc", gen);
    EXPECT_EQ(a->size(), 3000u);
    EXPECT_EQ(a->maxResidentBytes(), b->maxResidentBytes());
    EXPECT_GT(a->maxResidentBytes(), 0u);

    // Half-read a, drain b, finish a: neither cursor moves the other.
    Trace from_a;
    TraceRecord r;
    while (from_a.size() < 1000 && a->next(r))
        from_a.push_back(r);
    const Trace from_b = materialize(*b);
    while (a->next(r))
        from_a.push_back(r);

    const Trace built = cat.build("xalanc", gen);
    expectSameStream(built, from_a, "cursor a");
    expectSameStream(built, from_b, "cursor b");
}

} // namespace
} // namespace mempod
