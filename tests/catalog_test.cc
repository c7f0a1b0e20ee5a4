/**
 * @file
 * Unit tests for the WorkloadCatalog: the synthetic Table 3 suite it
 * is seeded with, name lookup, trace building, and manifest-declared
 * external traces (including synthetic-name shadowing).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "trace/catalog.h"
#include "trace/manifest.h"
#include "trace/native.h"
#include "trace/profiles.h"

namespace mempod {
namespace {

TEST(Catalog, FifteenHomogeneousTwelveMixed)
{
    const WorkloadCatalog &cat = WorkloadCatalog::global();
    EXPECT_EQ(cat.names().size(), 27u);
    EXPECT_EQ(cat.homogeneousNames().size(), 15u);
    EXPECT_EQ(cat.mixedNames().size(), 12u);
}

TEST(Catalog, EveryWorkloadHasEightCores)
{
    const WorkloadCatalog &cat = WorkloadCatalog::global();
    for (const auto &name : cat.names()) {
        const CatalogEntry &e = cat.find(name);
        ASSERT_EQ(e.kind, CatalogEntry::Kind::kSynthetic);
        EXPECT_EQ(e.synthetic.benchmarks.size(), 8u) << name;
    }
}

TEST(Catalog, HomogeneousRunsOneBenchmarkEightTimes)
{
    const WorkloadCatalog &cat = WorkloadCatalog::global();
    for (const auto &name : cat.homogeneousNames()) {
        const CatalogEntry &e = cat.find(name);
        EXPECT_TRUE(e.homogeneous);
        for (const auto &b : e.synthetic.benchmarks)
            EXPECT_EQ(b, name);
    }
}

TEST(Catalog, MixesAreNamedSequentially)
{
    const auto mixes = WorkloadCatalog::global().mixedNames();
    for (std::size_t i = 0; i < mixes.size(); ++i)
        EXPECT_EQ(mixes[i], "mix" + std::to_string(i + 1));
}

TEST(Catalog, AllBenchmarksExistAsProfiles)
{
    const WorkloadCatalog &cat = WorkloadCatalog::global();
    for (const auto &name : cat.names())
        for (const auto &b : cat.find(name).synthetic.benchmarks)
            EXPECT_TRUE(hasProfile(b)) << name << "/" << b;
}

TEST(Catalog, Table3SpotChecks)
{
    // Double-checked entries from the published table survive
    // normalization: mix4 runs dealii and mcf twice.
    const auto &m4 = WorkloadCatalog::global().find("mix4").synthetic;
    EXPECT_EQ(std::count(m4.benchmarks.begin(), m4.benchmarks.end(),
                         "dealii"),
              2);
    EXPECT_EQ(std::count(m4.benchmarks.begin(), m4.benchmarks.end(),
                         "mcf"),
              2);
    // mix10 runs libquantum twice.
    const auto &m10 = WorkloadCatalog::global().find("mix10").synthetic;
    EXPECT_EQ(std::count(m10.benchmarks.begin(), m10.benchmarks.end(),
                         "libquantum"),
              2);
}

TEST(Catalog, FindByNameAndFatalOnUnknown)
{
    const WorkloadCatalog &cat = WorkloadCatalog::global();
    EXPECT_EQ(cat.find("mix7").synthetic.benchmarks.size(), 8u);
    EXPECT_EQ(cat.tryFind("mix99"), nullptr);
    EXPECT_DEATH(cat.find("mix99"), "unknown");
}

TEST(Catalog, BuildTraceIsDeterministicPerWorkload)
{
    GeneratorConfig c;
    c.totalRequests = 5000;
    c.footprintScale = 0.02;
    const Trace a = WorkloadCatalog::global().build("mix3", c);
    const Trace b = WorkloadCatalog::global().build("mix3", c);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i].coreLocal, b[i].coreLocal);
}

TEST(Catalog, DifferentWorkloadsGetDifferentSeeds)
{
    GeneratorConfig c;
    c.totalRequests = 5000;
    c.footprintScale = 0.02;
    // Two homogeneous workloads of the same benchmark name would
    // collide; different names must decorrelate.
    const Trace a = WorkloadCatalog::global().build("mix1", c);
    const Trace b = WorkloadCatalog::global().build("mix2", c);
    int differing = 0;
    for (std::size_t i = 0; i < 100; ++i)
        differing += a[i].coreLocal != b[i].coreLocal ? 1 : 0;
    EXPECT_GT(differing, 50);
}

TEST(Catalog, RepresentativeSubsetResolves)
{
    for (const auto &name : WorkloadCatalog::representativeNames())
        EXPECT_EQ(WorkloadCatalog::global()
                      .find(name)
                      .synthetic.benchmarks.size(),
                  8u);
}

/** Record a tiny synthetic trace + manifest into TempDir. */
class CatalogManifest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Unique per test: ctest runs sibling tests as concurrent
        // processes, and a shared dir races a reader in one test
        // against the fixture rewriting tiny.trc in another.
        dir_ = ::testing::TempDir() + "catalog_manifest_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        const std::string mkdir = "mkdir -p " + dir_;
        ASSERT_EQ(std::system(mkdir.c_str()), 0);

        GeneratorConfig gc;
        gc.totalRequests = 2000;
        gc.footprintScale = 0.02;
        reference_ = WorkloadCatalog::global().build("xalanc", gc);
        writeNativeTrace(reference_, dir_ + "/tiny.trc");

        std::ofstream m(dir_ + "/traces.json");
        m << "{\n  \"version\": 1,\n  \"traces\": [\n"
          << "    {\"name\": \"tiny\", \"format\": \"native\", "
             "\"file\": \"tiny.trc\"},\n"
          << "    {\"name\": \"xalanc\", \"format\": \"native\", "
             "\"file\": \"tiny.trc\"},\n"
          << "    {\"name\": \"tiny2x\", \"format\": \"native\", "
             "\"file\": \"tiny.trc\", \"time_scale\": 2.0}\n"
          << "  ]\n}\n";
        m.close();
        catalog_.loadManifest(dir_ + "/traces.json");
    }

    std::string dir_;
    Trace reference_;
    WorkloadCatalog catalog_; // local: keep global() pristine
};

TEST_F(CatalogManifest, RegistersExternalEntries)
{
    const CatalogEntry *e = catalog_.tryFind("tiny");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->kind, CatalogEntry::Kind::kExternal);
    EXPECT_EQ(e->external.format, "native");
    // New external names land after the 27 synthetic ones.
    EXPECT_EQ(catalog_.names().size(), 29u); // +tiny, +tiny2x
}

TEST_F(CatalogManifest, ShadowingInheritsHomogeneousFlag)
{
    // "xalanc" is shadowed in place: still one entry with that name,
    // now external, and still grouped as homogeneous so replayed
    // sidecar naming matches the live synthetic run.
    const CatalogEntry &e = catalog_.find("xalanc");
    EXPECT_EQ(e.kind, CatalogEntry::Kind::kExternal);
    EXPECT_TRUE(e.homogeneous);
    EXPECT_EQ(catalog_.homogeneousNames().size(), 15u);
}

TEST_F(CatalogManifest, ExternalOpenReplaysRecordedTrace)
{
    GeneratorConfig gc;
    gc.totalRequests = 0; // no cap
    const auto source = catalog_.open("tiny", gc);
    const Trace replayed = materialize(*source);
    ASSERT_EQ(replayed.size(), reference_.size());
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        ASSERT_EQ(replayed[i].time, reference_[i].time);
        ASSERT_EQ(replayed[i].core, reference_[i].core);
        ASSERT_EQ(replayed[i].coreLocal, reference_[i].coreLocal);
        ASSERT_EQ(replayed[i].type, reference_[i].type);
    }
}

TEST_F(CatalogManifest, TotalRequestsCapsExternalRecords)
{
    GeneratorConfig gc;
    gc.totalRequests = 100;
    const auto source = catalog_.open("tiny", gc);
    EXPECT_EQ(source->size(), 100u);
    EXPECT_EQ(materialize(*source).size(), 100u);
}

TEST_F(CatalogManifest, TimeScaleStretchesTimestamps)
{
    GeneratorConfig gc;
    gc.totalRequests = 50;
    const auto plain = materialize(*catalog_.open("tiny", gc));
    const auto scaled = materialize(*catalog_.open("tiny2x", gc));
    ASSERT_EQ(plain.size(), scaled.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
        ASSERT_EQ(scaled[i].time, plain[i].time * 2);
}

TEST_F(CatalogManifest, RateScaleFoldsIntoTimeScale)
{
    // rateScale compresses time (more requests per unit time), so a
    // 2.0 time_scale at rateScale 2.0 cancels back to the original.
    GeneratorConfig gc;
    gc.totalRequests = 50;
    gc.rateScale = 2.0;
    const auto scaled = materialize(*catalog_.open("tiny2x", gc));
    GeneratorConfig plain_gc;
    plain_gc.totalRequests = 50;
    const auto plain = materialize(*catalog_.open("tiny", plain_gc));
    ASSERT_EQ(plain.size(), scaled.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
        ASSERT_EQ(scaled[i].time, plain[i].time);
}

TEST_F(CatalogManifest, UnknownManifestKeyIsFatal)
{
    const std::string bad = dir_ + "/bad.json";
    std::ofstream m(bad);
    m << "{\"version\": 1, \"traces\": [{\"name\": \"x\", \"format\": "
         "\"native\", \"file\": \"tiny.trc\", \"frobnicate\": 1}]}\n";
    m.close();
    WorkloadCatalog cat;
    EXPECT_DEATH(cat.loadManifest(bad), "frobnicate");
}

/** A one-entry champsim manifest whose addr_bias is `bias`, verbatim. */
std::string
biasManifest(const std::string &dir, const std::string &bias)
{
    const std::string path = dir + "/bias.json";
    std::ofstream(path)
        << "{\"version\": 1, \"traces\": [{\"name\": \"x\", "
           "\"format\": \"champsim\", \"addr_bias\": "
        << bias << ", \"files\": [{\"path\": \"x.champsim\", "
                   "\"core\": 0}]}]}\n";
    return path;
}

TEST_F(CatalogManifest, IntegersLoadExactly)
{
    const auto specs =
        loadTraceManifest(biasManifest(dir_, "9007199254740993"));
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].addrBias, 9007199254740993ull);
    EXPECT_EQ(loadTraceManifest(biasManifest(dir_, "18446744073709551615"))
                  [0]
                      .addrBias,
              UINT64_MAX);
}

TEST_F(CatalogManifest, NonIntegersAreFatalNotUndefined)
{
    for (const char *bias :
         {"1e30", "18446744073709551616", "1.5", "-1"}) {
        const std::string path = biasManifest(dir_, bias);
        EXPECT_DEATH(loadTraceManifest(path),
                     "addr_bias.* must be a non-negative integer")
            << bias;
    }
}

TEST_F(CatalogManifest, DeepNestingIsFatalNotAStackOverflow)
{
    std::string objects;
    while (objects.size() < 200 * 1024)
        objects += "{\"a\":";
    for (const std::string &doc :
         {std::string(200 * 1024, '['), objects}) {
        const std::string path = dir_ + "/deep.json";
        std::ofstream(path) << doc;
        EXPECT_DEATH(loadTraceManifest(path),
                     "deep.json' line 1: nesting deeper");
    }
}

} // namespace
} // namespace mempod
