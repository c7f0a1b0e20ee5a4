/**
 * @file
 * Tests for the bench/ scaffolding: CLI parsing (including rejection
 * of malformed input), workload-set selection, and the job and
 * runner-option helpers.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.h"

namespace mempod::bench {
namespace {

/** Build a mutable argv from string literals. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args)
        : storage_(std::move(args))
    {
        ptrs_.push_back(const_cast<char *>("harness"));
        for (auto &s : storage_)
            ptrs_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> ptrs_;
};

Options
parse(std::vector<std::string> args)
{
    Argv a(std::move(args));
    return parseOptions(a.argc(), a.argv(), "test");
}

/** The config a harness timing job runs under `opt`. */
SimConfig
jobConfig(const Options &opt)
{
    return timingJob(SimConfig::paper(Mechanism::kMemPod), "xalanc", opt)
        .config;
}

TEST(ParseOptions, Defaults)
{
    const Options opt = parse({});
    EXPECT_FALSE(opt.full);
    EXPECT_EQ(opt.requests, 0u);
    EXPECT_EQ(opt.seed, 42u);
    EXPECT_EQ(opt.jobs, 0u); // 0 = hardware concurrency
    EXPECT_TRUE(opt.workloads.empty());
    EXPECT_EQ(opt.timingRequests(), 800'000u);
    EXPECT_EQ(opt.offlineRequests(), 600'000u);
}

TEST(ParseOptions, AllFlags)
{
    const Options opt = parse({"--full", "--requests", "12345",
                               "--seed", "7", "--jobs", "3",
                               "--workloads", "xalanc,mix5"});
    EXPECT_TRUE(opt.full);
    EXPECT_EQ(opt.requests, 12345u);
    EXPECT_EQ(opt.seed, 7u);
    EXPECT_EQ(opt.jobs, 3u);
    ASSERT_EQ(opt.workloads.size(), 2u);
    EXPECT_EQ(opt.workloads[0], "xalanc");
    EXPECT_EQ(opt.workloads[1], "mix5");
    EXPECT_EQ(opt.timingRequests(), 12345u);
    EXPECT_EQ(opt.offlineRequests(), 12345u);
}

TEST(ParseOptions, FullModeScales)
{
    const Options opt = parse({"--full"});
    EXPECT_EQ(opt.timingRequests(), 8'000'000u);
    EXPECT_EQ(opt.offlineRequests(), 4'000'000u);
}

TEST(ParseOptionsDeathTest, RejectsUnknownOption)
{
    EXPECT_EXIT(parse({"--frobnicate"}),
                ::testing::ExitedWithCode(2), "unknown option");
}

TEST(ParseOptionsDeathTest, RejectsMissingValue)
{
    EXPECT_EXIT(parse({"--requests"}), ::testing::ExitedWithCode(2),
                "needs a value");
}

TEST(ParseOptionsDeathTest, RejectsNonNumericRequests)
{
    EXPECT_EXIT(parse({"--requests", "lots"}),
                ::testing::ExitedWithCode(2), "unsigned integer");
}

TEST(ParseOptionsDeathTest, RejectsTrailingGarbage)
{
    EXPECT_EXIT(parse({"--seed", "12abc"}),
                ::testing::ExitedWithCode(2), "unsigned integer");
}

TEST(ParseOptionsDeathTest, RejectsZeroJobs)
{
    EXPECT_EXIT(parse({"--jobs", "0"}), ::testing::ExitedWithCode(2),
                "--jobs must be in");
}

TEST(ParseOptionsDeathTest, RejectsAbsurdJobs)
{
    EXPECT_EXIT(parse({"--jobs", "4096"}),
                ::testing::ExitedWithCode(2), "--jobs must be in");
}

TEST(ParseOptionsDeathTest, RejectsUnknownWorkload)
{
    EXPECT_EXIT(parse({"--workloads", "xalanc,bogus"}),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(ParseOptions, ArtifactFlags)
{
    const Options opt =
        parse({"--out", "/tmp", "--trace-sample", "16"});
    EXPECT_EQ(opt.artifacts.root, "/tmp");
    // Default emit set: stats, traces and decisions, no perf.
    EXPECT_TRUE(opt.artifacts.wantStats());
    EXPECT_TRUE(opt.artifacts.wantTraces());
    EXPECT_TRUE(opt.artifacts.wantDecisions());
    EXPECT_FALSE(opt.artifacts.wantPerf());
    EXPECT_EQ(opt.traceSample, 16u);
    // Defaults: no sink at all, 1-in-64 sampling.
    const Options def = parse({});
    EXPECT_FALSE(def.artifacts.enabled());
    EXPECT_EQ(def.traceSample, 64u);
}

TEST(ParseOptions, EmitSelectsArtifactKinds)
{
    const Options opt =
        parse({"--out", "/tmp", "--emit", "stats,perf"});
    EXPECT_TRUE(opt.artifacts.wantStats());
    EXPECT_FALSE(opt.artifacts.wantTraces());
    EXPECT_FALSE(opt.artifacts.wantDecisions());
    EXPECT_TRUE(opt.artifacts.wantPerf());
    // Asking for perf artifacts implies host profiling.
    EXPECT_TRUE(jobConfig(opt).perfEnabled);
    EXPECT_FALSE(jobConfig(parse({})).perfEnabled);
}

TEST(ParseOptions, FidelityFlag)
{
    const SimConfig def = jobConfig(parse({}));
    EXPECT_EQ(def.dramModel, DramModel::kDetailed);
    EXPECT_FALSE(def.sampling.enabled);
    EXPECT_EQ(jobConfig(parse({"--fidelity", "fast"})).dramModel,
              DramModel::kFast);
    const SimConfig sampled = jobConfig(parse({"--fidelity", "sampled"}));
    EXPECT_EQ(sampled.dramModel, DramModel::kDetailed);
    EXPECT_TRUE(sampled.sampling.enabled);
}

TEST(ParseOptions, ShortcutFlagsAreOrderedSetEntries)
{
    const Options opt =
        parse({"--shards", "4", "--set", "sim.shards=2", "--paranoid",
               "--fidelity", "fast", "--set", "dram.model=detailed",
               "--perf"});
    const std::vector<std::pair<std::string, std::string>> expected{
        {"sim.shards", "4"},          {"sim.shards", "2"},
        {"validate.paranoid", "true"}, {"dram.model", "fast"},
        {"dram.model", "detailed"},   {"perf.enabled", "true"}};
    EXPECT_EQ(opt.sets, expected);
    // The last entry for a key wins.
    const SimConfig c = jobConfig(opt);
    EXPECT_EQ(c.shards, 2u);
    EXPECT_EQ(c.dramModel, DramModel::kDetailed);
    EXPECT_TRUE(c.validateParanoid);
    EXPECT_TRUE(c.perfEnabled);
}

TEST(ParseOptions, SetCollectsOverridesInOrder)
{
    const Options opt = parse({"--set", "sim.sampling.measure_ps=1000",
                               "--set", "dram.model=fast"});
    ASSERT_EQ(opt.sets.size(), 2u);
    EXPECT_EQ(opt.sets[0].first, "sim.sampling.measure_ps");
    EXPECT_EQ(opt.sets[0].second, "1000");
    EXPECT_EQ(opt.sets[1].first, "dram.model");
    EXPECT_EQ(opt.sets[1].second, "fast");
}

TEST(ParseOptionsDeathTest, RejectsUnknownEmitKind)
{
    EXPECT_EXIT(parse({"--out", "/tmp", "--emit", "stats,bogus"}),
                ::testing::ExitedWithCode(2), "unknown artifact kind");
}

TEST(ParseOptionsDeathTest, EmitRequiresOut)
{
    EXPECT_EXIT(parse({"--emit", "stats"}),
                ::testing::ExitedWithCode(2), "--emit requires --out");
}

TEST(ParseOptionsDeathTest, RejectsUnknownFidelity)
{
    EXPECT_EXIT(parse({"--fidelity", "turbo"}),
                ::testing::ExitedWithCode(2), "--fidelity must be");
}

TEST(ParseOptionsDeathTest, RejectsAbsurdShards)
{
    EXPECT_EXIT(parse({"--shards", "1025"}),
                ::testing::ExitedWithCode(2), "--shards must be in");
}

TEST(ParseOptionsDeathTest, ExtraRowErrorsExitTwo)
{
    Argv a({"--knob", "bad"});
    EXPECT_EXIT(parseOptions(a.argc(), a.argv(), "test",
                             {{"--knob", "V", "test row",
                               [](const std::string &v) {
                                   return "rejects '" + v + "'";
                               }}}),
                ::testing::ExitedWithCode(2), "--knob rejects 'bad'");
}

TEST(ParseOptionsDeathTest, RejectsZeroTraceSample)
{
    EXPECT_EXIT(parse({"--trace-sample", "0"}),
                ::testing::ExitedWithCode(2),
                "--trace-sample must be");
}

TEST(WorkloadSelection, SweepDefaultsToRepresentativeSet)
{
    const Options opt = parse({});
    EXPECT_EQ(opt.sweepWorkloads(),
              WorkloadCatalog::representativeNames());
}

TEST(WorkloadSelection, SweepFullCoversSuite)
{
    const Options opt = parse({"--full"});
    const std::size_t all = WorkloadCatalog::global().names().size();
    EXPECT_EQ(opt.sweepWorkloads().size(), all);
    EXPECT_EQ(opt.suiteWorkloads().size(), all);
}

TEST(WorkloadSelection, ExplicitListWinsEverywhere)
{
    const Options opt = parse({"--full", "--workloads", "mcf,mix9"});
    const std::vector<std::string> expected{"mcf", "mix9"};
    EXPECT_EQ(opt.sweepWorkloads(), expected);
    EXPECT_EQ(opt.suiteWorkloads(), expected);
}

TEST(WorkloadSelection, SuiteDefaultsToAll27)
{
    const Options opt = parse({});
    EXPECT_EQ(opt.suiteWorkloads().size(), 27u);
}

TEST(JobHelpers, RunnerOptionsHonorJobsAndOut)
{
    const Options opt = parse({"--jobs", "2"});
    const RunnerOptions ro = runnerOptions(opt);
    EXPECT_EQ(ro.jobs, 2u);
    EXPECT_TRUE(ro.progress);
    EXPECT_EQ(ro.artifacts.root, opt.artifacts.root);
}

TEST(JobHelpers, TimingJobCarriesHarnessScale)
{
    const Options opt = parse({"--requests", "4000", "--seed", "9"});
    const BatchJob job = timingJob(
        SimConfig::paper(Mechanism::kMemPod), "xalanc", opt, "MemPod");
    EXPECT_EQ(job.kind, JobKind::kTiming);
    EXPECT_EQ(job.workload, "xalanc");
    EXPECT_EQ(job.gen.totalRequests, 4000u);
    EXPECT_EQ(job.gen.seed, 9u);
    EXPECT_EQ(job.label, "MemPod");
    EXPECT_EQ(job.config.mechanism, Mechanism::kMemPod);
}

TEST(JobHelpers, TimingJobKeepsConfigWithoutFlags)
{
    SimConfig c = SimConfig::paper(Mechanism::kMemPod);
    c.shards = 4;
    c.validateParanoid = true;
    c.perfEnabled = true;
    const BatchJob job = timingJob(c, "xalanc", parse({}));
    EXPECT_EQ(job.config.shards, 4u);
    EXPECT_TRUE(job.config.validateParanoid);
    EXPECT_TRUE(job.config.perfEnabled);
}

TEST(JobHelpers, StudyJobUsesOfflineScale)
{
    const Options opt = parse({});
    IntervalStudyConfig study;
    study.intervalRequests = 1234;
    const BatchJob job = studyJob(study, "mix5", opt);
    EXPECT_EQ(job.kind, JobKind::kIntervalStudy);
    EXPECT_EQ(job.study.intervalRequests, 1234u);
    EXPECT_EQ(job.gen.totalRequests, opt.offlineRequests());
}

TEST(JobHelpersDeathTest, NeedIsFatalOnFailedJob)
{
    JobResult r;
    r.ok = false;
    r.error = "boom";
    r.workload = "xalanc";
    r.label = "MemPod";
    EXPECT_EXIT(need(r), ::testing::ExitedWithCode(1), "boom");
    EXPECT_EXIT(needStudy(r), ::testing::ExitedWithCode(1), "boom");
}

TEST(Mean, HandlesEmptyAndValues)
{
    EXPECT_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

} // namespace
} // namespace mempod::bench
