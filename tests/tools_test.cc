/**
 * @file
 * End-to-end tests of the CLI tools, invoking the real binaries
 * (paths injected by CMake as MEMPOD_*_TOOL_PATH):
 *   - trace_tool summary --json emits the pinned
 *     mempod-trace-summary-v1 schema
 *   - perf_tool diff tolerates metric keys present in only one file
 *     (reports "(new)"/"(removed)" instead of crashing or silently
 *     skipping)
 *   - explain_tool's per-component attribution sums exactly to the
 *     measured AMMAT delta between two real runs
 *   - mempod_sim (MEMPOD_SIM_PATH) rejects bad command lines with exit
 *     2, prints the same results as an in-process run, writes run
 *     directories that are byte-identical across --jobs and --shards,
 *     and replays its own --record capture exactly
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "sim/simulation.h"
#include "sim/stats_writer.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

/** stdout and exit code of a shell command. */
struct CmdResult
{
    std::string out;
    int status = -1;
};

std::string
slurp(const std::filesystem::path &p)
{
    std::ostringstream ss;
    ss << std::ifstream(p, std::ios::binary).rdbuf();
    return ss.str();
}

/** Run `cmd`; stderr goes to `*err` when given, else is discarded. */
CmdResult
run(const std::string &cmd, std::string *err = nullptr)
{
    const std::filesystem::path err_file =
        std::filesystem::temp_directory_path() /
        ("mempod_tools_test_" + std::to_string(getpid()) + ".stderr");
    CmdResult r;
    std::FILE *p =
        popen((cmd + " 2>" + (err ? err_file.string() : "/dev/null"))
                  .c_str(),
              "r");
    if (!p)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    const int rc = pclose(p);
    r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    if (err) {
        *err = slurp(err_file);
        std::filesystem::remove(err_file);
    }
    return r;
}

std::filesystem::path
tmpDir()
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("mempod_tools_test_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir);
    return dir;
}

void
writeText(const std::filesystem::path &p, const std::string &text)
{
    std::ofstream(p, std::ios::binary) << text;
}

SimConfig
tinyConfig(Mechanism m)
{
    SimConfig c = SimConfig::paper(m);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    return c;
}

Trace
tinyTrace(std::uint64_t requests = 30000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015;
    return WorkloadCatalog::global().build("xalanc", gc);
}

TEST(TraceTool, SummaryJsonMatchesPinnedSchema)
{
    const auto dir = tmpDir();
    SimConfig c = tinyConfig(Mechanism::kMemPod);
    c.tracer.enabled = true;
    c.tracer.sampleEvery = 8;
    Simulation sim(c);
    sim.run(tinyTrace(), "xalanc");
    ASSERT_NE(sim.tracer(), nullptr);
    const auto trace_file = dir / "run.trace.json";
    writeText(trace_file, sim.tracer()->toJson());

    const CmdResult r = run(std::string(MEMPOD_TRACE_TOOL_PATH) +
                            " summary " + trace_file.string() +
                            " --json");
    EXPECT_EQ(r.status, 0);
    // Golden schema keys: removing or renaming any of these breaks
    // downstream consumers and must be a deliberate schema bump.
    for (const char *key :
         {"\"schema\":\"mempod-trace-summary-v1\"", "\"events\":",
          "\"unmatched_ends\":", "\"open_spans\":", "\"counts\":",
          "\"markers\":", "\"demands\":", "\"migrations\":",
          "\"blocked\":", "\"complete\":", "\"total_us\":", "\"top\":"})
        EXPECT_NE(r.out.find(key), std::string::npos) << key;
    std::filesystem::remove_all(dir);
}

TEST(PerfTool, DiffReportsNewAndRemovedKeysWithoutFailing)
{
    const auto dir = tmpDir();
    writeText(dir / "base.json",
              "{\"events_per_second\": 100, \"old\": {\"wall_ms\": 5}}");
    writeText(dir / "cur.json",
              "{\"events_per_second\": 101, \"fresh\": {\"wall_ms\": 7}}");
    const CmdResult r =
        run(std::string(MEMPOD_PERF_TOOL_PATH) + " diff " +
            (dir / "base.json").string() + " " +
            (dir / "cur.json").string());
    // Schema drift alone is not a regression: exit 0.
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.out.find("(new)"), std::string::npos);
    EXPECT_NE(r.out.find("(removed)"), std::string::npos);
    EXPECT_NE(r.out.find("1 new, 1 removed"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(PerfTool, DiffStillFailsOnGenuineRegression)
{
    const auto dir = tmpDir();
    writeText(dir / "base.json", "{\"events_per_second\": 100}");
    writeText(dir / "cur.json", "{\"events_per_second\": 10}");
    const CmdResult r =
        run(std::string(MEMPOD_PERF_TOOL_PATH) + " diff " +
            (dir / "base.json").string() + " " +
            (dir / "cur.json").string());
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.out.find("REGRESSION"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(PerfTool, DeeplyNestedInputExitsTwo)
{
    const auto dir = tmpDir();
    writeText(dir / "base.json", "{\"events_per_second\": 100}");
    writeText(dir / "deep.json", std::string(200 * 1024, '['));
    const CmdResult r =
        run(std::string(MEMPOD_PERF_TOOL_PATH) + " diff " +
            (dir / "base.json").string() + " " +
            (dir / "deep.json").string());
    // 2 = unreadable input, distinct from 1 = regression found.
    EXPECT_EQ(r.status, 2);
    std::filesystem::remove_all(dir);
}

TEST(ExplainTool, AttributionSumsExactlyToMeasuredAmmatDelta)
{
    const auto dir = tmpDir();
    const Trace t = tinyTrace();
    std::filesystem::path stats[2], decisions[2];
    int i = 0;
    for (Mechanism m : {Mechanism::kNoMigration, Mechanism::kMemPod}) {
        Simulation sim(tinyConfig(m));
        const RunResult r = sim.run(t, "xalanc");
        stats[i] = dir / (std::string(mechanismName(m)) + ".json");
        writeText(stats[i], StatsWriter::toJson(sim.registry(),
                                                sim.finalSnapshot(), r));
        decisions[i] =
            dir / (std::string(mechanismName(m)) + ".decisions.jsonl");
        writeText(decisions[i],
                  StatsWriter::decisionsToJsonl(*sim.decisionLog(),
                                                "xalanc", r.mechanism));
        ++i;
    }
    const CmdResult r = run(std::string(MEMPOD_EXPLAIN_TOOL_PATH) + " " +
                            stats[0].string() + " " + stats[1].string() +
                            " --decisions " + decisions[0].string() +
                            " " + decisions[1].string());
    // Exit 0 is the tool's own exactness guarantee: it verifies the
    // five component deltas sum to the measured AMMAT delta.
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("attribution_delta_check: OK"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("first diverging decision"), std::string::npos);
    EXPECT_NE(r.out.find("decisions: base 0"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(ExplainTool, IdenticalRunsReportIdenticalLedgers)
{
    const auto dir = tmpDir();
    const Trace t = tinyTrace(15000);
    Simulation sim(tinyConfig(Mechanism::kMemPod));
    const RunResult r = sim.run(t, "xalanc");
    const auto stats = dir / "run.json";
    const auto dec = dir / "run.decisions.jsonl";
    writeText(stats, StatsWriter::toJson(sim.registry(),
                                         sim.finalSnapshot(), r));
    writeText(dec, StatsWriter::decisionsToJsonl(*sim.decisionLog(),
                                                 "xalanc", r.mechanism));
    const CmdResult out = run(std::string(MEMPOD_EXPLAIN_TOOL_PATH) +
                              " " + stats.string() + " " +
                              stats.string() + " --decisions " +
                              dec.string() + " " + dec.string());
    EXPECT_EQ(out.status, 0);
    EXPECT_NE(out.out.find("decision ledgers are identical"),
              std::string::npos)
        << out.out;
    std::filesystem::remove_all(dir);
}

/** mempod_sim with `args`, its BENCH_mempod_sim.json kept in `dir`. */
std::string
mempodSim(const std::filesystem::path &dir, const std::string &args)
{
    return std::string(MEMPOD_SIM_PATH) + " --bench-out " + dir.string() +
           " " + args;
}

template <typename... Args>
std::string
format(const char *fmt, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, args...);
    return buf;
}

/** Every regular file under `root`, by relative path, with its bytes. */
std::map<std::string, std::string>
tree(const std::filesystem::path &root)
{
    std::map<std::string, std::string> files;
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(root)) {
        if (e.is_regular_file())
            files[std::filesystem::relative(e.path(), root)] =
                slurp(e.path());
    }
    return files;
}

/** The in-process run mempod_sim's default 42-seed job performs. */
RunResult
inProcess(const SimConfig &c, const std::string &workload)
{
    GeneratorConfig gc;
    gc.totalRequests = 20000;
    gc.seed = 42;
    return runSimulation(c, WorkloadCatalog::global().build(workload, gc),
                         workload);
}

TEST(MempodSim, UnknownFlagExitsTwoWithNothingOnStdout)
{
    std::string err;
    const CmdResult r =
        run(std::string(MEMPOD_SIM_PATH) + " --requets 1000", &err);
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(err.find("unknown option '--requets'"), std::string::npos)
        << err;
    EXPECT_EQ(r.out, "");
}

TEST(MempodSim, BadCommandLinesExitTwo)
{
    const char *bad[] = {
        "--requests abc",
        "--config none.json --mechanism hma",
        "--config none.json --preset future",
        "--preset fast-only --mechanism cameo",
        "--preset slow-only --mechanism mempod",
        "--preset future-fast-only --mechanism hma",
        "--preset turbo",
        "--mechanism turbo",
        "--workloads xalanc,mcf",
        "--trace none.trc --workloads xalanc",
    };
    for (const char *args : bad) {
        std::string err;
        const CmdResult r =
            run(std::string(MEMPOD_SIM_PATH) + " " + args, &err);
        EXPECT_EQ(r.status, 2) << args;
        EXPECT_NE(err.find("mempod_sim: "), std::string::npos) << args;
        EXPECT_EQ(r.out, "") << args;
    }
}

TEST(MempodSim, HelpPrintsTheSharedTable)
{
    const CmdResult r = run(std::string(MEMPOD_SIM_PATH) + " --help");
    EXPECT_EQ(r.status, 0);
    for (const char *row :
         {"--requests N", "--shards N", "--out DIR", "--set KEY=VALUE",
          "--mechanism NAME", "--preset NAME", "--baseline", "--help"})
        EXPECT_NE(r.out.find(row), std::string::npos) << row;
}

TEST(MempodSim, MemPodResultsMatchInProcessRun)
{
    const auto dir = tmpDir();
    const CmdResult r =
        run(mempodSim(dir, "--workloads xalanc --requests 20000"));
    ASSERT_EQ(r.status, 0);
    const RunResult want =
        inProcess(SimConfig::paper(Mechanism::kMemPod), "xalanc");
    EXPECT_GT(want.migration.migrations, 0u);
    for (const std::string &line :
         {format("AMMAT:              %.2f ns\n", want.ammatNs),
          format("migrations:         %llu (",
                 static_cast<unsigned long long>(
                     want.migration.migrations)),
          format("(%llu events)\n", static_cast<unsigned long long>(
                                        want.eventsExecuted))})
        EXPECT_NE(r.out.find(line), std::string::npos) << line << r.out;
    std::filesystem::remove_all(dir);
}

TEST(MempodSim, HmaBaselineMatchesInProcessRuns)
{
    const auto dir = tmpDir();
    const CmdResult r = run(mempodSim(
        dir, "--workloads mix5 --mechanism hma --requests 20000 "
             "--baseline"));
    ASSERT_EQ(r.status, 0);
    SimConfig hma = SimConfig::paper(Mechanism::kHma);
    hma.scaleHmaEpoch(40.0);
    SimConfig none = hma;
    none.mechanism = Mechanism::kNoMigration;
    const RunResult want = inProcess(hma, "mix5");
    const RunResult base = inProcess(none, "mix5");
    for (const std::string &line :
         {format("no-migration AMMAT: %.2f ns\n", base.ammatNs),
          format("AMMAT:              %.2f ns  (%.3f normalized)\n",
                 want.ammatNs, want.ammatNs / base.ammatNs),
          format("migrations:         %llu (",
                 static_cast<unsigned long long>(
                     want.migration.migrations)),
          format("(%llu events)\n", static_cast<unsigned long long>(
                                        want.eventsExecuted))})
        EXPECT_NE(r.out.find(line), std::string::npos) << line << r.out;
    std::filesystem::remove_all(dir);
}

TEST(MempodSim, RunDirectoryIdenticalAcrossJobsAndShards)
{
    const auto dir = tmpDir();
    const std::string args = "--workloads xalanc --requests 20000 "
                             "--baseline --emit stats,traces,decisions";
    const CmdResult a = run(mempodSim(
        dir, args + " --jobs 1 --shards 0 --out " + (dir / "a").string()));
    const CmdResult b = run(mempodSim(
        dir, args + " --jobs 2 --shards 4 --out " + (dir / "b").string()));
    ASSERT_EQ(a.status, 0);
    ASSERT_EQ(b.status, 0);
    EXPECT_EQ(a.out, b.out);
    const auto files = tree(dir / "a");
    EXPECT_EQ(files.size(), 8u); // 2 jobs x (json, jsonl, trace, ledger)
    EXPECT_TRUE(files == tree(dir / "b"));
    std::filesystem::remove_all(dir);
}

TEST(MempodSim, RecordThenTraceReplaysIdentically)
{
    const auto dir = tmpDir();
    const std::string trc = (dir / "capture.trc").string();
    const CmdResult live =
        run(mempodSim(dir, "--workloads xalanc --requests 20000 "
                           "--baseline --record " + trc));
    const CmdResult replay =
        run(mempodSim(dir, "--trace " + trc + " --baseline"));
    ASSERT_EQ(live.status, 0);
    ASSERT_EQ(replay.status, 0);
    const std::string recorded = "recorded 20000 records to " + trc + "\n";
    ASSERT_EQ(live.out.rfind(recorded, 0), 0u) << live.out;
    EXPECT_EQ(live.out.substr(recorded.size()), replay.out);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mempod
