/**
 * @file
 * Golden regression pins: a fixed-seed 50k-request mix5 trace through
 * every mechanism on the paper system, with headline statistics
 * checked against checked-in values. Any change to the trace
 * generator, the DRAM timing model, or a migration mechanism that
 * shifts behaviour shows up here as an explicit diff instead of
 * silently drifting the reproduced figures.
 *
 * To regenerate after an *intentional* behaviour change:
 *   MEMPOD_PRINT_GOLDEN=1 ./build/tests/mempod_tests \
 *       --gtest_filter='Golden*' 2>/dev/null
 * and paste the printed tables over kGolden / kMetaGolden /
 * kSampledGolden / kSampledFastGolden / kFastGolden / kTraceGolden
 * below.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "sim/runner.h"
#include "sim/simulation.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

constexpr const char *kWorkload = "mix5";
constexpr std::uint64_t kRequests = 50000;
constexpr std::uint64_t kSeed = 42;

struct GoldenRow
{
    const char *label;
    Mechanism mechanism;
    std::uint64_t demandFast;
    std::uint64_t demandSlow;
    std::uint64_t migrations;
    std::uint64_t bytesMoved;
    std::uint64_t simulatedPs;
    std::uint64_t eventsExecuted;
    std::uint64_t blockedRequests;
    std::uint64_t blockedPs;
    std::uint64_t metadataPs;
    double ammatNs;
};

/**
 * The same run with the mechanism's bookkeeping cache enabled: pins
 * the metadata path (hit/miss split and the wait it charges) of the
 * three mechanisms that model one.
 */
struct MetaGoldenRow
{
    const char *label;
    Mechanism mechanism;
    std::uint64_t metaCacheHits;
    std::uint64_t metaCacheMisses;
    std::uint64_t migrations;
    std::uint64_t blockedRequests;
    std::uint64_t blockedPs;
    std::uint64_t metadataPs;
    double ammatNs;
};

// --- golden values (regenerate with MEMPOD_PRINT_GOLDEN=1) ---
constexpr GoldenRow kGolden[] = {
    {"NoMigration", Mechanism::kNoMigration, 5313u, 44687u, 0u, 0u,
     501132500u, 314047u, 0u, 0u, 0u, 57.780567900000001},
    {"HMA", Mechanism::kHma, 8753u, 41247u, 580u, 2375680u, 529132500u,
     543406u, 4u, 658691u, 0u, 63.132227899999997},
    {"THM", Mechanism::kThm, 17342u, 32658u, 811u, 3321856u, 501132500u,
     622361u, 357u, 80004104u, 0u, 61.994082900000002},
    {"CAMEO", Mechanism::kCameo, 8846u, 41154u, 36484u, 4669952u,
     501186250u, 989558u, 1080u, 96135360u, 0u, 61.847012900000003},
    {"MemPod", Mechanism::kMemPod, 11901u, 38099u, 456u, 1867776u,
     505947500u, 482753u, 85u, 18195141u, 0u, 59.017767899999996},
};

constexpr MetaGoldenRow kMetaGolden[] = {
    {"HMA+cache", Mechanism::kHma, 38859u, 11141u, 580u, 1u, 342000u,
     572059518u, 69.930727899999994},
    {"THM+cache", Mechanism::kThm, 38960u, 11040u, 811u, 357u, 78045911u,
     498311878u, 69.247937900000011},
    {"MemPod+cache", Mechanism::kMemPod, 40704u, 9296u, 456u, 86u,
     19262709u, 458583383u, 64.560037899999998},
};

/**
 * The same run in sampled mode (sim.sampling.enabled): pins the
 * fast-forward warm path and the window estimator. The trace spans
 * ~0.5 ms, so the period is shortened to 63 + 20 us; 83 us does not
 * divide MemPod's 50 us interval, so the windows stride its epochs.
 */
struct SampledGoldenRow
{
    const char *label;
    Mechanism mechanism;
    std::uint64_t sampleWindows;
    std::uint64_t eventsExecuted;
    std::uint64_t migrations;
    std::uint64_t demandFast;
    std::uint64_t demandSlow;
    std::uint64_t simulatedPs;
    double sampledAmmatNs;
    double sampledCiNs;
};

constexpr SampledGoldenRow kSampledGolden[] = {
    {"NoMigration", Mechanism::kNoMigration, 6u, 71965u, 0u, 5313u,
     44687u, 498279866u, 58.999596509718138, 3.5218683481068855},
    {"HMA", Mechanism::kHma, 6u, 75507u, 580u, 9384u, 40616u, 498050825u,
     66.386362017457344, 31.769025794902671},
    {"THM", Mechanism::kThm, 6u, 135354u, 811u, 17674u, 32326u,
     499205249u, 61.034441780236698, 4.564353101084909},
    {"CAMEO", Mechanism::kCameo, 6u, 226053u, 40359u, 9011u, 40989u,
     499205249u, 62.003554093463585, 3.5560721751483393},
    {"MemPod", Mechanism::kMemPod, 6u, 99595u, 456u, 12434u, 37566u,
     500007452u, 57.025823344264857, 7.5290949904103215},
};

/**
 * The sampled schedule over the fast model (dram.model=fast): the
 * measurement windows run on FastChannel while fast-forward runs on
 * the functional warm model, so this pins the measured=fast,
 * warm=functional pairing that the detailed sampled rows cannot.
 */
constexpr SampledGoldenRow kSampledFastGolden[] = {
    {"NoMigration", Mechanism::kNoMigration, 6u, 22908u, 0u, 5313u,
     44687u, 498279866u, 35.921537389506064, 0.49992713655405752},
    {"HMA", Mechanism::kHma, 6u, 26535u, 580u, 9386u, 40614u, 498050825u,
     35.938034889384795, 3.7371191078574033},
    {"THM", Mechanism::kThm, 6u, 44493u, 811u, 17685u, 32315u,
     498279866u, 39.194884576815355, 2.2784316068438515},
    {"CAMEO", Mechanism::kCameo, 6u, 59953u, 40933u, 9032u, 40968u,
     498279866u, 36.294026552296728, 0.56853044987651646},
    {"MemPod", Mechanism::kMemPod, 6u, 32910u, 456u, 12442u, 37558u,
     500007452u, 36.146706778095819, 3.9819659097337898},
};

/**
 * The plain run under the fixed-latency fast model (dram.model=fast):
 * pins FastChannel's queueing and completion path, which no other
 * golden exercises.
 */
constexpr GoldenRow kFastGolden[] = {
    {"NoMigration", Mechanism::kNoMigration, 5313u, 44687u, 0u, 0u,
     501146151u, 99998u, 0u, 0u, 0u, 36.044258399999997},
    {"HMA", Mechanism::kHma, 8862u, 41138u, 580u, 2375680u, 529146151u,
     174244u, 3u, 930142u, 0u, 40.700624640000001},
    {"THM", Mechanism::kThm, 17448u, 32552u, 811u, 3321856u, 501146151u,
     203806u, 352u, 70385316u, 0u, 41.206705900000003},
    {"CAMEO", Mechanism::kCameo, 9019u, 40981u, 40778u, 5219584u,
     501188651u, 263110u, 1157u, 47511626u, 0u, 36.735645480000002},
    {"MemPod", Mechanism::kMemPod, 11960u, 38040u, 456u, 1867776u,
     505390000u, 158376u, 85u, 16001623u, 0u, 38.468922120000002},
};

struct TraceGolden
{
    std::uint64_t records;
    std::uint64_t reads;
    std::uint64_t writes;
    std::uint64_t touchedPages;
    std::uint64_t duration;
};
constexpr TraceGolden kTraceGolden = {50000, 36614, 13386, 7844,
                                      501102994};

/** What a golden run changes on top of the plain paper system. */
enum class Variant
{
    kPlain,
    kMetaCache, //!< bookkeeping caches on (kMetaGolden)
    kSampled,   //!< shortened sampled-mode schedule (kSampledGolden)
    kSampledFast, //!< kSampled over the fast model (kSampledFastGolden)
    kFast,      //!< fixed-latency fast memory model (kFastGolden)
};

SimConfig
goldenConfig(Mechanism m, Variant v)
{
    SimConfig cfg = SimConfig::paper(m);
    // 4x MemPod's interval (200 us) instead of the harnesses' 40x: the
    // 50k-request trace spans ~0.5 ms, so this golden actually sees
    // HMA epochs fire rather than pinning HMA == NoMigration.
    if (m == Mechanism::kHma)
        cfg.scaleHmaEpoch(4.0);
    switch (v) {
      case Variant::kPlain:
        break;
      case Variant::kMetaCache:
        cfg.mempod.pod.metaCacheEnabled = true;
        cfg.hma.metaCacheEnabled = true;
        cfg.thm.metaCacheEnabled = true;
        break;
      case Variant::kSampled:
        cfg.sampling.enabled = true;
        cfg.sampling.fastfwdPs = 63_us;
        break;
      case Variant::kSampledFast:
        cfg.dramModel = DramModel::kFast;
        cfg.sampling.enabled = true;
        cfg.sampling.fastfwdPs = 63_us;
        break;
      case Variant::kFast:
        cfg.dramModel = DramModel::kFast;
        break;
    }
    return cfg;
}

const char *
mechanismEnumName(Mechanism m)
{
    switch (m) {
      case Mechanism::kNoMigration: return "kNoMigration";
      case Mechanism::kMemPod: return "kMemPod";
      case Mechanism::kHma: return "kHma";
      case Mechanism::kThm: return "kThm";
      case Mechanism::kCameo: return "kCameo";
    }
    return "?";
}

bool
printGolden()
{
    return std::getenv("MEMPOD_PRINT_GOLDEN") != nullptr;
}

TEST(GoldenTrace, GeneratorIsPinned)
{
    GeneratorConfig gc;
    gc.totalRequests = kRequests;
    gc.seed = kSeed;
    const Trace trace =
        WorkloadCatalog::global().build(kWorkload, gc);
    VectorTraceSource source(trace);
    const TraceSummary s = summarize(source);
    if (printGolden()) {
        std::printf("constexpr TraceGolden kTraceGolden = "
                    "{%llu, %llu, %llu, %llu, %llu};\n",
                    static_cast<unsigned long long>(s.records),
                    static_cast<unsigned long long>(s.reads),
                    static_cast<unsigned long long>(s.writes),
                    static_cast<unsigned long long>(s.touchedPages),
                    static_cast<unsigned long long>(s.duration));
        return;
    }
    EXPECT_EQ(s.records, kTraceGolden.records);
    EXPECT_EQ(s.reads, kTraceGolden.reads);
    EXPECT_EQ(s.writes, kTraceGolden.writes);
    EXPECT_EQ(s.touchedPages, kTraceGolden.touchedPages);
    EXPECT_EQ(static_cast<std::uint64_t>(s.duration),
              kTraceGolden.duration);
}

/** Run one golden job per row of `variant`. */
template <typename Row, std::size_t N>
std::vector<JobResult>
runRows(const Row (&rows)[N], Variant variant, std::uint32_t shards = 0)
{
    // Run through the BatchRunner so the tier-1 suite exercises the
    // parallel path; determinism makes the worker count irrelevant.
    BatchRunner runner({.jobs = 2});
    for (const Row &g : rows) {
        BatchJob job;
        job.config = goldenConfig(g.mechanism, variant);
        job.config.shards = shards;
        job.workload = kWorkload;
        job.gen.totalRequests = kRequests;
        job.gen.seed = kSeed;
        job.label = g.label;
        runner.add(std::move(job));
    }
    std::vector<JobResult> results = runner.runAll();
    EXPECT_EQ(results.size(), N);
    return results;
}

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

void
printRow(const GoldenRow &g, const RunResult &r)
{
    std::printf("    {\"%s\", Mechanism::%s, %lluu, %lluu, %lluu, "
                "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %.17g},\n",
                g.label, mechanismEnumName(g.mechanism),
                ull(r.memStats.demandFast), ull(r.memStats.demandSlow),
                ull(r.migration.migrations), ull(r.migration.bytesMoved),
                ull(static_cast<std::uint64_t>(r.simulatedPs)),
                ull(r.eventsExecuted), ull(r.migration.blockedRequests),
                ull(r.migration.blockedPs), ull(r.migration.metadataPs),
                r.ammatNs);
}

void
expectRow(const GoldenRow &g, const RunResult &r)
{
    EXPECT_EQ(r.completed, kRequests) << g.label;
    EXPECT_EQ(r.memStats.demandFast, g.demandFast) << g.label;
    EXPECT_EQ(r.memStats.demandSlow, g.demandSlow) << g.label;
    EXPECT_EQ(r.migration.migrations, g.migrations) << g.label;
    EXPECT_EQ(r.migration.bytesMoved, g.bytesMoved) << g.label;
    EXPECT_EQ(static_cast<std::uint64_t>(r.simulatedPs), g.simulatedPs)
        << g.label;
    EXPECT_EQ(r.eventsExecuted, g.eventsExecuted) << g.label;
    EXPECT_EQ(r.migration.blockedRequests, g.blockedRequests) << g.label;
    EXPECT_EQ(r.migration.blockedPs, g.blockedPs) << g.label;
    EXPECT_EQ(r.migration.metadataPs, g.metadataPs) << g.label;
    // Deterministic, but allow for FP library variation across
    // toolchains; the integer pins above carry the regression burden.
    EXPECT_NEAR(r.ammatNs, g.ammatNs, g.ammatNs * 1e-9) << g.label;
}

/** Run `rows` under `variant` and check (or print) each GoldenRow. */
template <std::size_t N>
void
pinRows(const GoldenRow (&rows)[N], Variant variant)
{
    const std::vector<JobResult> results = runRows(rows, variant);
    ASSERT_EQ(results.size(), N);
    for (std::size_t i = 0; i < N; ++i) {
        const GoldenRow &g = rows[i];
        ASSERT_TRUE(results[i].ok) << g.label << ": "
                                   << results[i].error;
        if (printGolden())
            printRow(g, results[i].result);
        else
            expectRow(g, results[i].result);
    }
}

TEST(GoldenResults, EveryMechanismIsPinned)
{
    pinRows(kGolden, Variant::kPlain);
}

TEST(GoldenResults, EveryMechanismIsPinnedAtTwoShards)
{
    // The sharded PDES kernel must hit the *same* checked-in goldens
    // as the serial kernel — down to the executed-event count — for
    // all five mechanisms. Any drift here means the canonical event
    // order leaked a partition dependence.
    if (printGolden())
        GTEST_SKIP() << "goldens are regenerated from the serial run";
    const std::vector<JobResult> results =
        runRows(kGolden, Variant::kPlain, 2);
    ASSERT_EQ(results.size(), std::size(kGolden));
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << kGolden[i].label << ": "
                                   << results[i].error;
        expectRow(kGolden[i], results[i].result);
    }
}

TEST(GoldenResults, FastModelRowsArePinned)
{
    pinRows(kFastGolden, Variant::kFast);
}

TEST(GoldenResults, MetadataCacheRowsArePinned)
{
    const std::vector<JobResult> results =
        runRows(kMetaGolden, Variant::kMetaCache);
    ASSERT_EQ(results.size(), std::size(kMetaGolden));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const MetaGoldenRow &g = kMetaGolden[i];
        ASSERT_TRUE(results[i].ok) << g.label << ": "
                                   << results[i].error;
        const RunResult &r = results[i].result;
        const MigrationStats &m = r.migration;
        if (printGolden()) {
            std::printf("    {\"%s\", Mechanism::%s, %lluu, %lluu, "
                        "%lluu, %lluu, %lluu, %lluu, %.17g},\n",
                        g.label, mechanismEnumName(g.mechanism),
                        ull(m.metaCacheHits), ull(m.metaCacheMisses),
                        ull(m.migrations), ull(m.blockedRequests),
                        ull(m.blockedPs), ull(m.metadataPs), r.ammatNs);
            continue;
        }
        EXPECT_EQ(r.completed, kRequests) << g.label;
        EXPECT_EQ(m.metaCacheHits, g.metaCacheHits) << g.label;
        EXPECT_EQ(m.metaCacheMisses, g.metaCacheMisses) << g.label;
        EXPECT_EQ(m.metaCacheHits + m.metaCacheMisses, kRequests)
            << g.label;
        EXPECT_EQ(m.migrations, g.migrations) << g.label;
        EXPECT_EQ(m.blockedRequests, g.blockedRequests) << g.label;
        EXPECT_EQ(m.blockedPs, g.blockedPs) << g.label;
        EXPECT_EQ(m.metadataPs, g.metadataPs) << g.label;
        EXPECT_NEAR(r.ammatNs, g.ammatNs, g.ammatNs * 1e-9) << g.label;
    }
}

/** Run `rows` under sampled `variant` and check (or print) each row. */
template <std::size_t N>
void
pinSampledRows(const SampledGoldenRow (&rows)[N], Variant variant)
{
    const std::vector<JobResult> results = runRows(rows, variant);
    ASSERT_EQ(results.size(), N);
    for (std::size_t i = 0; i < N; ++i) {
        const SampledGoldenRow &g = rows[i];
        ASSERT_TRUE(results[i].ok) << g.label << ": "
                                   << results[i].error;
        const RunResult &r = results[i].result;
        if (printGolden()) {
            std::printf("    {\"%s\", Mechanism::%s, %lluu, %lluu, "
                        "%lluu, %lluu, %lluu, %lluu, %.17g, %.17g},\n",
                        g.label, mechanismEnumName(g.mechanism),
                        ull(r.sampleWindows), ull(r.eventsExecuted),
                        ull(r.migration.migrations),
                        ull(r.memStats.demandFast),
                        ull(r.memStats.demandSlow),
                        ull(static_cast<std::uint64_t>(r.simulatedPs)),
                        r.sampledAmmatNs, r.sampledCiNs);
            continue;
        }
        EXPECT_TRUE(r.sampled) << g.label;
        EXPECT_GE(r.sampleWindows, 5u) << g.label;
        EXPECT_EQ(r.completed, kRequests) << g.label;
        EXPECT_EQ(r.sampleWindows, g.sampleWindows) << g.label;
        EXPECT_EQ(r.eventsExecuted, g.eventsExecuted) << g.label;
        EXPECT_EQ(r.migration.migrations, g.migrations) << g.label;
        EXPECT_EQ(r.memStats.demandFast, g.demandFast) << g.label;
        EXPECT_EQ(r.memStats.demandSlow, g.demandSlow) << g.label;
        EXPECT_EQ(static_cast<std::uint64_t>(r.simulatedPs), g.simulatedPs)
            << g.label;
        EXPECT_NEAR(r.sampledAmmatNs, g.sampledAmmatNs,
                    g.sampledAmmatNs * 1e-9)
            << g.label;
        EXPECT_NEAR(r.sampledCiNs, g.sampledCiNs, g.sampledCiNs * 1e-9)
            << g.label;
    }
}

TEST(GoldenResults, SampledRowsArePinned)
{
    pinSampledRows(kSampledGolden, Variant::kSampled);
}

TEST(GoldenResults, SampledFastRowsArePinned)
{
    pinSampledRows(kSampledFastGolden, Variant::kSampledFast);
}

} // namespace
} // namespace mempod
