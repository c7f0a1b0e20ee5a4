/**
 * @file
 * End-to-end tests for event tracing and AMMAT attribution: the
 * attribution components must sum to the measured AMMAT exactly (they
 * partition every demand's arrival-to-finish interval), trace bytes
 * must be identical at any worker count, and bad output directories
 * must fail fast.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

SimConfig
tinyConfig(Mechanism m)
{
    SimConfig c = SimConfig::paper(m);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    c.hma.interval = 200_us;
    c.hma.sortStall = 14_us;
    c.hma.threshold = 4;
    return c;
}

Trace
tinyTrace(const std::string &workload, std::uint64_t requests = 40000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015;
    return WorkloadCatalog::global().build(workload, gc);
}

void
expectAttributionPartitions(Mechanism m)
{
    const Trace t = tinyTrace("xalanc");
    const RunResult r = runSimulation(tinyConfig(m), t, "xalanc");
    ASSERT_EQ(r.completed, t.size());
    // The five components are integer-ps sums over the same set of
    // completed demands AMMAT averages, divided by the same
    // denominator; only double rounding separates the two.
    EXPECT_NEAR(r.attribution.totalNs(), r.ammatNs,
                r.ammatNs * 1e-12)
        << mechanismName(m);
    EXPECT_GT(r.attribution.serviceNs, 0.0);
    EXPECT_GE(r.attribution.queueWaitNs, 0.0);
}

TEST(Attribution, SumsToAmmatMemPod)
{
    expectAttributionPartitions(Mechanism::kMemPod);
}

TEST(Attribution, SumsToAmmatHma)
{
    expectAttributionPartitions(Mechanism::kHma);
}

TEST(Attribution, SumsToAmmatNoMigration)
{
    expectAttributionPartitions(Mechanism::kNoMigration);
}

TEST(Attribution, MigrationComponentsAppearUnderMemPod)
{
    const Trace t = tinyTrace("xalanc");
    const RunResult r =
        runSimulation(tinyConfig(Mechanism::kMemPod), t, "xalanc");
    ASSERT_GT(r.migration.migrations, 0u);
    // Swaps lock pages, so some demands must have been parked.
    EXPECT_GT(r.migration.blockedPs, 0u);
    EXPECT_GT(r.attribution.blockedNs, 0.0);
}

TEST(Attribution, PercentilesAreOrderedAndExported)
{
    const Trace t = tinyTrace("mix5");
    const RunResult r =
        runSimulation(tinyConfig(Mechanism::kMemPod), t, "mix5");
    EXPECT_GT(r.latency.p50Ns, 0.0);
    EXPECT_LE(r.latency.p50Ns, r.latency.p95Ns);
    EXPECT_LE(r.latency.p95Ns, r.latency.p99Ns);
    ASSERT_FALSE(r.perCoreLatency.empty());
    for (const LatencyPercentiles &lp : r.perCoreLatency) {
        EXPECT_LE(lp.p50Ns, lp.p95Ns);
        EXPECT_LE(lp.p95Ns, lp.p99Ns);
    }
}

TEST(TraceE2E, MemPodTraceContainsFullMigrationLifecycle)
{
    SimConfig c = tinyConfig(Mechanism::kMemPod);
    c.tracer.enabled = true;
    c.tracer.sampleEvery = 8;
    c.tracer.seed = 42;
    Simulation sim(c);
    const Trace t = tinyTrace("xalanc");
    const RunResult r = sim.run(t, "xalanc");
    ASSERT_GT(r.migration.migrations, 0u);
    ASSERT_NE(sim.tracer(), nullptr);
    const std::string json = sim.tracer()->toJson();
    for (const char *needle :
         {"mea_victory", "\"migration\"", "read_phase", "write_phase",
          "remap_commit", "\"demand\"", "\"queue\"", "\"service\"",
          "\"ph\":\"s\"", "\"ph\":\"f\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
}

TEST(TraceE2E, TracingOffChangesNoResults)
{
    const Trace t = tinyTrace("xalanc", 20000);
    SimConfig off = tinyConfig(Mechanism::kMemPod);
    SimConfig on = off;
    on.tracer.enabled = true;
    on.tracer.sampleEvery = 4;
    const RunResult a = runSimulation(off, t, "xalanc");
    const RunResult b = runSimulation(on, t, "xalanc");
    // The tracer only records; goldens (event counts, AMMAT) hold.
    EXPECT_EQ(serializeRunResult(a), serializeRunResult(b));
}

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(TraceE2E, TraceBytesIdenticalAcrossWorkerCounts)
{
    const std::filesystem::path base =
        std::filesystem::temp_directory_path() /
        "mempod_trace_jobs_test";
    std::filesystem::remove_all(base);

    auto runBatch = [&](unsigned jobs, const std::string &sub) {
        RunnerOptions ro;
        ro.jobs = jobs;
        ro.artifacts.root = (base / sub).string();
        BatchRunner runner(ro);
        for (Mechanism m : {Mechanism::kMemPod, Mechanism::kHma,
                            Mechanism::kNoMigration}) {
            BatchJob job;
            job.config = tinyConfig(m);
            job.config.tracer.enabled = true;
            job.config.tracer.sampleEvery = 8;
            job.config.tracer.seed = 42;
            job.workload = "xalanc";
            job.gen.totalRequests = 20000;
            job.gen.footprintScale = 0.015; // tinyTrace's records
            job.label = mechanismName(m);
            runner.add(job);
        }
        for (const JobResult &r : runner.runAll())
            ASSERT_TRUE(r.ok) << r.error;
    };
    runBatch(1, "j1");
    runBatch(4, "j4");

    std::size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(
             base / "j1" / "traces")) {
        ++files;
        const auto other =
            base / "j4" / "traces" / e.path().filename();
        ASSERT_TRUE(std::filesystem::exists(other))
            << e.path().filename();
        EXPECT_EQ(slurp(e.path()), slurp(other))
            << e.path().filename();
    }
    EXPECT_EQ(files, 3u);
    for (const auto &e : std::filesystem::directory_iterator(
             base / "j1" / "stats")) {
        const auto other = base / "j4" / "stats" / e.path().filename();
        ASSERT_TRUE(std::filesystem::exists(other));
        EXPECT_EQ(slurp(e.path()), slurp(other))
            << e.path().filename();
    }
    std::filesystem::remove_all(base);
}

TEST(OutputDirs, UnwritableOutDirFailsFast)
{
    // A path *under an existing file* can never become a directory.
    const std::filesystem::path file =
        std::filesystem::temp_directory_path() / "mempod_probe_file";
    std::FILE *f = std::fopen(file.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    const std::string bad = (file / "sub").string();
    EXPECT_EXIT(bench::ensureWritableDir(bad, "--out", "test"),
                ::testing::ExitedWithCode(2), "--out");
    EXPECT_EXIT(
        bench::ensureWritableDir(file.string(), "--out", "test"),
        ::testing::ExitedWithCode(2), "ot a directory");
    std::filesystem::remove(file);
}

} // namespace
} // namespace mempod
