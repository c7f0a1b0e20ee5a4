/**
 * @file
 * Tests for the parallel BatchRunner: bit-identical results at any
 * worker count (the determinism guarantee the harnesses rely on),
 * submission-order results, per-job failure capture, and each job
 * opening its own trace cursor through the catalog.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sim/runner.h"
#include "sim/simulation.h"
#include "trace/catalog.h"
#include "trace/native.h"

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

GeneratorConfig
tinyGen(std::uint64_t requests = 20000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015; // fit the tiny geometry's core slices
    return gc;
}

BatchJob
tinyJob(Mechanism m, const std::string &workload)
{
    BatchJob job;
    job.config = tinyConfig(m);
    job.workload = workload;
    job.gen = tinyGen();
    job.label = mechanismName(m);
    return job;
}

RunnerOptions
withJobs(unsigned workers)
{
    RunnerOptions opt;
    opt.jobs = workers;
    return opt;
}

std::vector<BatchJob>
sampleJobs()
{
    std::vector<BatchJob> jobs;
    for (const char *w : {"xalanc", "mix5", "mcf"})
        for (Mechanism m : {Mechanism::kNoMigration, Mechanism::kMemPod})
            jobs.push_back(tinyJob(m, w));
    return jobs;
}

std::vector<JobResult>
runWith(unsigned workers)
{
    BatchRunner runner(withJobs(workers));
    for (auto &job : sampleJobs())
        runner.add(std::move(job));
    return runner.runAll();
}

TEST(BatchRunner, ResultsIdenticalAtAnyWorkerCount)
{
    const auto serial = runWith(1);
    const auto parallel = runWith(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        // Field-for-field, bit-exact (hex-float doubles included).
        EXPECT_EQ(serializeRunResult(serial[i].result),
                  serializeRunResult(parallel[i].result))
            << "job " << i << " diverges between --jobs 1 and 4";
    }
}

TEST(BatchRunner, ResultsComeBackInSubmissionOrder)
{
    const auto expected = sampleJobs();
    const auto results = runWith(4);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].workload, expected[i].workload);
        EXPECT_EQ(results[i].label, expected[i].label);
        EXPECT_EQ(results[i].result.workload, expected[i].workload);
    }
}

TEST(BatchRunner, ThrowingJobIsCapturedWithoutKillingTheBatch)
{
    BatchRunner runner(withJobs(4));
    runner.add(tinyJob(Mechanism::kNoMigration, "xalanc"));
    runner.add(tinyJob(Mechanism::kMemPod, "no-such-workload"));
    runner.add(tinyJob(Mechanism::kMemPod, "mix5"));
    const auto results = runner.runAll();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("unknown workload"),
              std::string::npos)
        << results[1].error;
    EXPECT_EQ(results[1].workload, "no-such-workload");
    EXPECT_TRUE(results[2].ok) << results[2].error;
    EXPECT_EQ(results[2].result.completed, 20000u);
}

TEST(BatchRunner, IntervalStudyJobsRunOnThePool)
{
    BatchRunner runner(withJobs(2));
    for (const char *w : {"xalanc", "mix5"}) {
        BatchJob job;
        job.kind = JobKind::kIntervalStudy;
        job.study.intervalRequests = 2000;
        job.workload = w;
        job.gen = tinyGen(30000);
        runner.add(std::move(job));
    }
    const auto results = runner.runAll();
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_GT(r.study.intervals, 0u);
    }
}

TEST(BatchRunner, RunAllIsRepeatable)
{
    BatchRunner runner(withJobs(2));
    runner.add(tinyJob(Mechanism::kNoMigration, "xalanc"));
    const auto first = runner.runAll();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(runner.pending(), 0u);
    runner.add(tinyJob(Mechanism::kMemPod, "xalanc"));
    const auto second = runner.runAll();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_TRUE(second[0].ok) << second[0].error;
    EXPECT_EQ(second[0].result.mechanism,
              runSimulation(tinyConfig(Mechanism::kMemPod),
                            WorkloadCatalog::global().build("xalanc",
                                               tinyGen()),
                            "xalanc")
                  .mechanism);
}

/**
 * A native trace registered in the global catalog, as mempod_sim
 * --trace does, replays through the runner exactly as in memory: each
 * job opens its own reader, at any worker count. The registration
 * outlives the test in this process, so the name is unique.
 */
TEST(BatchRunner, RegisteredNativeTraceMatchesInMemoryReplay)
{
    const Trace original =
        WorkloadCatalog::global().build("xalanc", tinyGen());
    const auto dir = std::filesystem::temp_directory_path() /
                     "mempod_runner_native";
    std::filesystem::create_directories(dir);
    ExternalTraceSpec spec;
    spec.name = "runner-test-native-replay";
    spec.format = "native";
    spec.files.push_back({(dir / "replay.trc").string(), 0});
    writeNativeTrace(original, spec.files[0].path);
    WorkloadCatalog::global().registerExternal(spec);

    const std::vector<Mechanism> mechs{
        Mechanism::kNoMigration, Mechanism::kMemPod, Mechanism::kHma};
    std::vector<std::string> in_memory;
    for (Mechanism m : mechs)
        in_memory.push_back(serializeRunResult(
            runSimulation(tinyConfig(m), original, spec.name)));

    for (const unsigned workers : {1u, 4u}) {
        BatchRunner runner(withJobs(workers));
        for (Mechanism m : mechs)
            runner.add(tinyJob(m, spec.name));
        const auto results = runner.runAll();
        ASSERT_EQ(results.size(), mechs.size());
        for (std::size_t i = 0; i < mechs.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_EQ(serializeRunResult(results[i].result), in_memory[i])
                << mechanismName(mechs[i]) << " at jobs " << workers;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(RunnerOptions, ZeroJobsFallsBackToHardwareConcurrency)
{
    BatchRunner runner(withJobs(0));
    EXPECT_GE(runner.workerCount(), 1u);
}

/** Read every regular file in `dir` into a name -> bytes map. */
std::map<std::string, std::string>
slurpDir(const std::filesystem::path &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        out[entry.path().filename().string()] = ss.str();
    }
    return out;
}

std::map<std::string, std::string>
runStatsBatch(unsigned workers, const std::filesystem::path &dir)
{
    RunnerOptions opt;
    opt.jobs = workers;
    opt.artifacts.root = dir.string();
    BatchRunner runner(opt);
    for (auto &job : sampleJobs()) {
        job.config.statsIntervalPs = 20_us;
        runner.add(std::move(job));
    }
    const auto results = runner.runAll();
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.error;
    return slurpDir(dir / "stats");
}

TEST(BatchRunner, StatsFilesIdenticalAtAnyWorkerCount)
{
    const auto base = std::filesystem::temp_directory_path() /
                      "mempod_stats_determinism";
    std::filesystem::remove_all(base);
    const auto serial = runStatsBatch(1, base / "jobs1");
    const auto parallel = runStatsBatch(2, base / "jobs2");

    // One .json and one .jsonl per job, named by submission index.
    ASSERT_EQ(serial.size(), 2 * sampleJobs().size());
    ASSERT_TRUE(serial.count("job000_NoMigration_xalanc.json"));
    ASSERT_TRUE(serial.count("job001_MemPod_xalanc.jsonl"));

    // Byte-identical file sets regardless of --jobs.
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto &[name, bytes] : serial) {
        auto it = parallel.find(name);
        ASSERT_NE(it, parallel.end()) << name;
        EXPECT_EQ(bytes, it->second)
            << name << " diverges between --jobs 1 and 2";
    }
    std::filesystem::remove_all(base);
}

TEST(BatchRunner, StatsFilesNumberAcrossRepeatedBatches)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "mempod_stats_batches";
    std::filesystem::remove_all(dir);
    RunnerOptions opt;
    opt.jobs = 2;
    opt.artifacts.root = dir.string();
    BatchRunner runner(opt);
    runner.add(tinyJob(Mechanism::kNoMigration, "xalanc"));
    runner.runAll();
    runner.add(tinyJob(Mechanism::kMemPod, "xalanc"));
    runner.runAll();
    // The second batch continues the numbering instead of clobbering
    // the first batch's job000.
    EXPECT_TRUE(std::filesystem::exists(
        dir / "stats" / "job000_NoMigration_xalanc.json"));
    EXPECT_TRUE(std::filesystem::exists(
        dir / "stats" / "job001_MemPod_xalanc.json"));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mempod
