/**
 * @file
 * End-to-end tests of the CLI tools, invoking the real binaries
 * (paths injected by CMake as MEMPOD_*_TOOL_PATH):
 *   - every trace_tool numeric argument rejects a malformed token
 *     with exit 2
 *   - run_tool (MEMPOD_RUN_TOOL_PATH): summary, trace (its --json
 *     digest keeps the pinned mempod-trace-summary-v1 schema, it
 *     counts unmatched async ends instead of failing on them, and a
 *     malformed document exits 2), the speedup gate
 *     (which fails on a missing, zero or non-finite leaf), explain
 *     (its per-component attribution sums exactly to the measured AMMAT
 *     delta between two real runs; it rejects malformed ledgers), and
 *     check, with one failing fixture per schema or run-level assertion
 *     and a pass on a real fig8 run directory
 *   - mempod_sim (MEMPOD_SIM_PATH) rejects bad command lines with exit
 *     2, prints the same results as an in-process run, writes run
 *     directories that are byte-identical across --jobs and --shards,
 *     and replays its own --record capture exactly
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/stats_writer.h"
#include "trace/catalog.h"
#include "trace/native.h"

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

TEST(TraceTool, MalformedNumbersExitTwoWithUsage)
{
    const auto dir = tmpDir();
    const std::string trc = (dir / "in.trc").string();
    writeNativeTrace(tinyTrace(200), trc);
    const std::string out = (dir / "out.trc").string();
    const std::string stem = (dir / "conv").string();
    // One fixture per numeric argument. A prefix parse (strtoull)
    // reads "abc" as 0, "20000x" as 20000, "4x2" as 4 and "-5" as
    // 2^64 - 5, so each must be rejected as a whole token.
    for (const std::string &args :
         {"record xalanc " + out + " abc",
          "record xalanc " + out + " 20000x",
          "record xalanc " + out + " -5",
          "record xalanc " + out + " 20000 4x2",
          "convert " + trc + " " + stem + " sift --period-ps 1e3",
          "convert " + trc + " " + stem + " champsim --addr-bias abc"}) {
        std::string err;
        const CmdResult r =
            run(std::string(MEMPOD_TRACE_TOOL_PATH) + " " + args, &err);
        EXPECT_EQ(r.status, 2) << args;
        EXPECT_NE(err.find("usage: trace_tool"), std::string::npos)
            << args << ": " << err;
        EXPECT_TRUE(r.out.empty()) << args << ": " << r.out;
    }
    EXPECT_FALSE(std::filesystem::exists(out));
    std::filesystem::remove_all(dir);
}

/** run_tool with `args`; stderr into `*err` when given. */
CmdResult
runTool(const std::string &args, std::string *err = nullptr)
{
    return run(std::string(MEMPOD_RUN_TOOL_PATH) + " " + args, err);
}

TEST(RunTool, DeeplyNestedInputExitsTwo)
{
    const auto dir = tmpDir();
    writeText(dir / "base.json", "{\"events_per_sim_ms\": 100}");
    writeText(dir / "deep.json", std::string(200 * 1024, '['));
    // 2 = unreadable input, distinct from 1 = a finding.
    EXPECT_EQ(runTool("summary " + (dir / "deep.json").string()).status, 2);
    EXPECT_EQ(runTool("speedup " + (dir / "base.json").string() + " " +
                      (dir / "deep.json").string() + " 10")
                  .status,
              2);
    std::filesystem::remove_all(dir);
}

TEST(RunTool, TraceJsonMatchesPinnedSchema)
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

    const CmdResult r = runTool("trace " + trace_file.string() + " --json");
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

TEST(RunTool, TraceBadCommandLinesExitTwoWithUsage)
{
    const auto dir = tmpDir();
    const std::string file = (dir / "empty.trace.json").string();
    writeText(file, "{\"traceEvents\":[\n]}\n");
    // TOPK must be a whole unsigned token; a prefix parse would read
    // "abc" as 0 and "3x" as 3.
    for (const std::string &args :
         {std::string("trace"), "trace " + file + " abc",
          "trace " + file + " 3x", "trace " + file + " -1",
          "trace " + file + " 3 4"}) {
        std::string err;
        const CmdResult r = runTool(args, &err);
        EXPECT_EQ(r.status, 2) << args;
        EXPECT_NE(err.find("usage: run_tool trace"), std::string::npos)
            << args << ": " << err;
        EXPECT_TRUE(r.out.empty()) << args << ": " << r.out;
    }
    EXPECT_EQ(runTool("trace " + file + " 3 --json").status, 0);
    std::filesystem::remove_all(dir);
}

TEST(RunTool, TraceRejectsMalformedDocument)
{
    // One broken event line must not be skipped: the digest reads the
    // file as one JSON document, as `check` does.
    const auto dir = tmpDir();
    const std::string file = (dir / "bad.trace.json").string();
    writeText(file, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
                    R"({"ph":"i","name":"x","ts":1,"pid":0,"tid":0},)"
                    "\n{garbage\n]}\n");
    std::string err;
    for (const char *flags : {"", " --json"}) {
        const CmdResult r = runTool("trace " + file + flags, &err);
        EXPECT_EQ(r.status, 2) << flags;
        EXPECT_NE(err.find("not valid JSON"), std::string::npos) << err;
        EXPECT_NE(err.find("line 3"), std::string::npos) << err;
        EXPECT_TRUE(r.out.empty()) << r.out;
    }
    EXPECT_EQ(runTool("trace " + (dir / "absent.json").string()).status, 2);
    writeText(file, "{\"displayTimeUnit\":\"ns\"}\n");
    EXPECT_EQ(runTool("trace " + file, &err).status, 2);
    EXPECT_NE(err.find("missing key 'traceEvents'"), std::string::npos)
        << err;
    std::filesystem::remove_all(dir);
}

TEST(RunTool, TraceCountsAnUnmatchedEndWithoutFailing)
{
    const auto dir = tmpDir();
    const std::string file = (dir / "e.trace.json").string();
    writeText(file,
              "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
              R"({"ph":"b","cat":"mem","id":"1","name":"demand","ts":1,)"
              R"("pid":0,"tid":0},)"
              "\n"
              R"({"ph":"e","cat":"mem","id":"1","name":"demand","ts":3,)"
              R"("pid":0,"tid":0},)"
              "\n"
              R"({"ph":"e","cat":"mem","id":"2","name":"demand","ts":4,)"
              R"("pid":0,"tid":0})"
              "\n]}\n");
    const CmdResult json = runTool("trace " + file + " --json");
    EXPECT_EQ(json.status, 0);
    EXPECT_NE(json.out.find("\"events\":3,\"unmatched_ends\":1,"
                            "\"open_spans\":0,"),
              std::string::npos)
        << json.out;
    EXPECT_NE(json.out.find("\"demands\":{\"complete\":1,\"total_us\":"
                            "2.000,"),
              std::string::npos)
        << json.out;
    const CmdResult text = runTool("trace " + file);
    EXPECT_EQ(text.status, 0);
    EXPECT_NE(text.out.find("events: 3  (unmatched async ends: 1, "
                            "still-open spans: 0)"),
              std::string::npos)
        << text.out;
    // The same file is a finding for `check`, which holds traces to
    // balanced spans.
    std::string err;
    EXPECT_EQ(runTool("check " + file, &err).status, 1);
    EXPECT_NE(err.find("async end without a begin: demand"),
              std::string::npos)
        << err;
    std::filesystem::remove_all(dir);
}

TEST(RunTool, SummaryTabulatesEveryNumericLeaf)
{
    const auto dir = tmpDir();
    writeText(dir / "a.json", "{\"x\": {\"y\": 1.5}, \"n\": 3}");
    const CmdResult r = runTool("summary " + (dir / "a.json").string());
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.out.find("x.y"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("1.5"), std::string::npos) << r.out;
    std::filesystem::remove_all(dir);
}

/** `run_tool speedup` over two BENCH bodies; stderr into `*err`. */
CmdResult
speedup(const std::string &base, const std::string &cur,
        const std::string &factor, std::string *err = nullptr)
{
    const auto dir = tmpDir();
    writeText(dir / "base.json", base);
    writeText(dir / "cur.json", cur);
    const CmdResult r = runTool("speedup " + (dir / "base.json").string() +
                                    " " + (dir / "cur.json").string() +
                                    " " + factor,
                                err);
    std::filesystem::remove_all(dir);
    return r;
}

TEST(RunTool, SpeedupGatesOnTheFactor)
{
    const std::string base = "{\"events_per_sim_ms\": 1000}";
    const std::string cur = "{\"events_per_sim_ms\": 100}";
    const CmdResult ok = speedup(base, cur, "10");
    EXPECT_EQ(ok.status, 0);
    EXPECT_NE(ok.out.find("10.00x fewer events, need 10.0x: OK"),
              std::string::npos)
        << ok.out;
    const CmdResult slow = speedup(base, cur, "10.5");
    EXPECT_EQ(slow.status, 1);
    EXPECT_NE(slow.out.find("FAIL"), std::string::npos) << slow.out;
    for (const char *factor : {"0", "-3", "ten", "inf"})
        EXPECT_EQ(speedup(base, cur, factor).status, 2) << factor;
}

TEST(RunTool, SpeedupFailsOnAMissingLeaf)
{
    const std::string good = "{\"events_per_sim_ms\": 1000}";
    const std::string none = "{\"events_executed\": 5}";
    for (const auto &[b, c] : {std::pair{none, good}, std::pair{good, none}}) {
        std::string err;
        EXPECT_EQ(speedup(b, c, "10", &err).status, 1);
        EXPECT_NE(err.find("has no events_per_sim_ms leaf"),
                  std::string::npos)
            << err;
    }
}

TEST(RunTool, SpeedupFailsOnAZeroLeaf)
{
    // A zero current cost once made the speedup infinite and passed.
    const std::string good = "{\"events_per_sim_ms\": 1000}";
    const std::string zero = "{\"events_per_sim_ms\": 0}";
    for (const auto &[b, c] : {std::pair{good, zero}, std::pair{zero, good}}) {
        std::string err;
        EXPECT_EQ(speedup(b, c, "10", &err).status, 1);
        EXPECT_NE(err.find("has events_per_sim_ms 0: an empty run"),
                  std::string::npos)
            << err;
    }
}

TEST(RunTool, SpeedupFailsOnANonFiniteLeaf)
{
    // The BENCH writer renders a non-finite double as null.
    const std::string good = "{\"events_per_sim_ms\": 1000}";
    const std::string nan = "{\"events_per_sim_ms\": null}";
    for (const auto &[b, c] : {std::pair{good, nan}, std::pair{nan, good}}) {
        std::string err;
        EXPECT_EQ(speedup(b, c, "10", &err).status, 1);
        EXPECT_NE(err.find("has a non-finite events_per_sim_ms"),
                  std::string::npos)
            << err;
    }
    std::string err;
    EXPECT_EQ(speedup(good, "{\"events_per_sim_ms\": -1}", "10", &err)
                  .status,
              1);
    EXPECT_NE(err.find("negative"), std::string::npos) << err;
}

/** Two real runs' stats and ledgers: no-migration, then MemPod. */
struct RunPair
{
    std::filesystem::path stats[2], decisions[2];
};

RunPair
writeRunPair(const std::filesystem::path &dir, std::uint64_t requests)
{
    const Trace t = tinyTrace(requests);
    RunPair p;
    int i = 0;
    for (Mechanism m : {Mechanism::kNoMigration, Mechanism::kMemPod}) {
        Simulation sim(tinyConfig(m));
        const RunResult r = sim.run(t, "xalanc");
        const std::string name = mechanismName(m);
        p.stats[i] = dir / (name + ".json");
        writeText(p.stats[i], StatsWriter::toJson(sim.registry(),
                                                  sim.finalSnapshot(), r));
        p.decisions[i] = dir / (name + ".decisions.jsonl");
        writeText(p.decisions[i],
                  StatsWriter::decisionsToJsonl(*sim.decisionLog(),
                                                "xalanc", r.mechanism));
        ++i;
    }
    return p;
}

TEST(RunTool, ExplainAttributionSumsExactlyToMeasuredAmmatDelta)
{
    const auto dir = tmpDir();
    const RunPair p = writeRunPair(dir, 30000);
    const CmdResult r =
        runTool("explain " + p.stats[0].string() + " " +
                p.stats[1].string() + " --decisions " +
                p.decisions[0].string() + " " + p.decisions[1].string());
    // Exit 0 is the tool's own exactness guarantee: it verifies the
    // five component deltas sum to the measured AMMAT delta.
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("attribution_delta_check: OK"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("first diverging decision"), std::string::npos);
    EXPECT_NE(r.out.find("decisions: base 0"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(RunTool, ExplainIdenticalRunsReportIdenticalLedgers)
{
    const auto dir = tmpDir();
    const RunPair p = writeRunPair(dir, 15000);
    const std::string s = p.stats[1].string(), d = p.decisions[1].string();
    const CmdResult out = runTool("explain " + s + " " + s +
                                  " --decisions " + d + " " + d);
    EXPECT_EQ(out.status, 0);
    EXPECT_NE(out.out.find("decision ledgers are identical"),
              std::string::npos)
        << out.out;
    std::filesystem::remove_all(dir);
}

TEST(RunTool, ExplainRejectsLedgersThatBreakTheirSchema)
{
    const auto dir = tmpDir();
    const RunPair p = writeRunPair(dir, 15000);
    const std::string header =
        "{\"schema\":\"mempod-decisions-v1\",\"workload\":\"w\","
        "\"mechanism\":\"MemPod\",\"epoch_ps\":1,"
        "\"benefit_per_touch_ns\":1,\"decisions\":3,\"committed\":3,"
        "\"aborted\":0,\"ping_pongs\":0}\n";
    // A header whose totals no body backs once read as "identical
    // (0 decisions)"; a header without totals once read them as 0.
    const std::pair<std::string, std::string> cases[] = {
        {header, "header decisions 3 but the body has 0"},
        {"{\"schema\":\"mempod-decisions-v1\",\"decisions\":3}\n",
         "line 1: missing key 'workload'"},
        {"", "empty ledger"},
    };
    const auto bad = dir / "bad.decisions.jsonl";
    for (const auto &[text, want] : cases) {
        writeText(bad, text);
        std::string err;
        const CmdResult r =
            runTool("explain " + p.stats[1].string() + " " +
                        p.stats[1].string() + " --decisions " +
                        p.decisions[1].string() + " " + bad.string(),
                    &err);
        EXPECT_EQ(r.status, 2) << want;
        EXPECT_NE(err.find(bad.string() + ": "), std::string::npos) << err;
        EXPECT_NE(err.find(want), std::string::npos) << err;
    }
    std::filesystem::remove_all(dir);
}

// A minimal run directory that passes every check: one MemPod job
// that migrated (stats, time series, ledger, trace, perf) plus a
// BENCH file. Each mutation below breaks exactly one assertion.
const std::map<std::string, std::string> kGoodRun = {
    {"stats/job000_MemPod_w.json",
     R"({"schema":"mempod-stats-v1","workload":"w","mechanism":"MemPod",)"
     R"("sim_time_ps":1000,"summary":{"ammat_ns":10,"demand_requests":5,)"
     R"("migrations":2,"attribution_ns":{"mshr_wait":1,"metadata":1,)"
     R"("blocked":2,"queue_wait":3,"service":3},)"
     R"("latency_ns":{"p50":1,"p95":2,"p99":3}},)"
     R"("metrics":{"frontend.ammat_ps":{"value":1},)"
     R"("pod0.migration.migrations":{"value":2}}})"},
    {"stats/job000_MemPod_w.jsonl",
     "{\"interval\":0,\"counters\":{\"core0.issued\":3}}\n"
     "{\"interval\":1,\"counters\":{\"pod0.migration.migrations\":1}}\n"
     "{\"interval\":2,\"counters\":{\"pod0.migration.migrations\":1}}\n"},
    {"decisions/job000_MemPod_w.decisions.jsonl",
     R"({"schema":"mempod-decisions-v1","workload":"w","mechanism":"MemPod",)"
     R"("epoch_ps":1,"benefit_per_touch_ns":1,"decisions":2,"committed":1,)"
     R"("aborted":1,"ping_pongs":1})"
     "\n"
     R"({"seq":0,"time_ps":1,"epoch":1,"pod":0,"page":1,"victim":2,)"
     R"("tracker_count":3,"predicted_benefit_ns":4,"outcome":"completed",)"
     R"("commit_ps":5,"ping_pong":true,"realized_near_hits":6})"
     "\n"
     R"({"seq":1,"time_ps":1,"epoch":1,"pod":0,"page":1,"victim":2,)"
     R"("tracker_count":3,"predicted_benefit_ns":4,"outcome":"aborted",)"
     R"("commit_ps":5,"ping_pong":false,"realized_near_hits":6})"
     "\n"},
    {"traces/job000_MemPod_w.trace.json",
     R"({"displayTimeUnit":"ns","traceEvents":[)"
     R"({"name":"process_name","ph":"M","pid":0,"tid":0},)"
     R"({"name":"demand","ph":"b","ts":1,"pid":0,"tid":0,)"
     R"("cat":"req","id":"1"},)"
     R"({"name":"demand","ph":"e","ts":2,"pid":0,"tid":0,)"
     R"("cat":"req","id":"1"},)"
     R"({"name":"mea_victory","ph":"i","ts":3,"pid":0,"tid":1},)"
     R"({"name":"migration","ph":"s","ts":3,"pid":0,"tid":1,)"
     R"("cat":"mig","id":"2"},)"
     R"({"name":"read_phase","ph":"X","ts":4,"pid":0,"tid":1},)"
     R"({"name":"write_phase","ph":"X","ts":5,"pid":0,"tid":1},)"
     R"({"name":"migration","ph":"f","ts":6,"pid":0,"tid":1,)"
     R"("cat":"mig","id":"2"},)"
     R"({"name":"remap_commit","ph":"i","ts":6,"pid":0,"tid":1}]})"},
    {"perf/job000_MemPod_w.perf.json",
     R"({"schema":"mempod-perf-v1","wall_seconds":0.1,"events_executed":5,)"
     R"("phases_ns":{},"counters":{}})"},
    {"BENCH_w.json",
     R"({"schema":"mempod-bench-v2","name":"w","jobs":1,)"
     R"("events_executed":5,"events_per_sim_ms":2.5})"},
};

/** Replace one file's first `from` with `to`; an empty `from` replaces
 *  the whole text, and a null `to` deletes the file. */
struct Mutation
{
    const char *file;
    const char *from;
    const char *to;
    const char *want; //!< expected "<where>: <violation>" substring
};

/** kGoodRun under `dir`, with `m` applied. */
void
writeRun(const std::filesystem::path &dir, const Mutation *m = nullptr)
{
    std::filesystem::remove_all(dir);
    for (const auto &dsub : {"stats", "decisions", "traces", "perf"})
        std::filesystem::create_directories(dir / dsub);
    for (auto [name, text] : kGoodRun) {
        if (m && name == m->file) {
            if (!m->to)
                continue;
            const std::size_t at = *m->from ? text.find(m->from) : 0;
            ASSERT_NE(at, std::string::npos) << m->from;
            text.replace(at, *m->from ? std::strlen(m->from) : text.size(),
                         m->to);
        }
        writeText(dir / name, text);
    }
}

TEST(RunToolCheck, MinimalRunPasses)
{
    const auto dir = tmpDir() / "run";
    writeRun(dir);
    std::string err;
    const CmdResult r = runTool("check " + dir.string(), &err);
    EXPECT_EQ(r.status, 0) << err;
    EXPECT_NE(r.out.find("6 file(s) in 1 path(s), 0 violation(s)"),
              std::string::npos)
        << r.out;
    std::filesystem::remove_all(dir.parent_path());
}

/** Each mutation must fail check with its own violation message. */
void
expectViolations(const std::vector<Mutation> &cases)
{
    const auto dir = tmpDir() / "run";
    for (const Mutation &m : cases) {
        writeRun(dir, &m);
        std::string err;
        const CmdResult r = runTool("check " + dir.string(), &err);
        EXPECT_EQ(r.status, 1) << m.file << ": " << m.want;
        EXPECT_NE(err.find(m.want), std::string::npos)
            << "want: " << m.want << "\ngot: " << err;
    }
    std::filesystem::remove_all(dir.parent_path());
}

const char kStats[] = "stats/job000_MemPod_w.json";
const char kSeries[] = "stats/job000_MemPod_w.jsonl";
const char kLedger[] = "decisions/job000_MemPod_w.decisions.jsonl";
const char kTrace[] = "traces/job000_MemPod_w.trace.json";
const char kPerf[] = "perf/job000_MemPod_w.perf.json";
const char kBench[] = "BENCH_w.json";

TEST(RunToolCheck, StatsAssertions)
{
    expectViolations({
        {kStats, "stats-v1", "stats-v0", "w.json: schema is"},
        {kStats, "\"workload\"", "\"x\"", "w.json: missing key 'workload'"},
        {kStats, "\"mechanism\"", "\"x\"", "w.json: missing key 'mechanism'"},
        {kStats, "\"sim_time_ps\"", "\"x\"",
         "w.json: missing key 'sim_time_ps'"},
        {kStats, "\"summary\"", "\"x\"", "w.json: missing key 'summary'"},
        {kStats, "\"metrics\"", "\"x\"", "w.json: missing key 'metrics'"},
        {kStats, "\"demand_requests\":5", "\"demand_requests\":0",
         "w.json: demand_requests is not > 0"},
        {kStats, "\"ammat_ns\":10", "\"ammat_ns\":0",
         "w.json: ammat_ns is not > 0"},
        {kStats, "frontend.ammat_ps", "frontend.x",
         "w.json: metrics lack frontend.ammat_ps"},
        {kStats, "\"service\":3", "\"service\":3.0001",
         "w.json: attribution sums to 10.0001, not AMMAT 10"},
        {kStats, "\"p95\":2", "\"p95\":4",
         "w.json: latency percentiles are not ordered"},
        {kStats, "\"p99\":3", "\"p99\":1",
         "w.json: latency percentiles are not ordered"},
        {kStats, "pod0.migration", "pod1.migration",
         "w.json: MemPod metrics have no pod0.* key"},
        {kSeries, "\"counters\":{\"core0", "\"c\":{\"core0",
         "w.jsonl: line 1: missing key 'counters'"},
        {kSeries, "{\"interval\":2", "{\"interval\":2,",
         "w.jsonl: line 3: not valid JSON"},
    });
}

TEST(RunToolCheck, LedgerAssertions)
{
    std::vector<Mutation> cases = {
        {kLedger, "decisions-v1", "decisions-v2",
         "decisions.jsonl: line 1: schema is 'mempod-decisions-v2'"},
        {kLedger, "\"decisions\":2", "\"decisions\":3",
         "decisions.jsonl: header decisions 3 but the body has 2"},
        {kLedger, "\"seq\":1", "\"seq\":2",
         "decisions.jsonl: line 3: seq 2, expected 1"},
        {kLedger, "\"outcome\":\"completed\"", "\"outcome\":\"done\"",
         "decisions.jsonl: line 2: outcome 'done' is not pending"},
        {kLedger, "\"committed\":1", "\"committed\":2",
         "decisions.jsonl: header committed 2 but the body has 1"},
        {kLedger, "\"aborted\":1", "\"aborted\":0",
         "decisions.jsonl: header aborted 0 but the body has 1"},
        {kLedger, "\"ping_pongs\":1", "\"ping_pongs\":0",
         "decisions.jsonl: header ping_pongs 0 but the body has 1"},
        {kLedger, "\"ping_pong\":true", "\"ping_pong\":1",
         "decisions.jsonl: line 2: 'ping_pong' is not a boolean"},
        {kLedger, "", "", "decisions.jsonl: empty ledger"},
    };
    // Every required key, header and body alike.
    std::vector<std::string> keys, wants;
    for (const char *key :
         {"workload", "mechanism", "epoch_ps", "benefit_per_touch_ns",
          "decisions", "committed", "aborted", "ping_pongs"}) {
        keys.push_back(std::string("\"") + key + "\":");
        wants.push_back(std::string("line 1: missing key '") + key + "'");
    }
    for (const char *key :
         {"seq", "time_ps", "epoch", "pod", "page", "victim",
          "tracker_count", "predicted_benefit_ns", "outcome", "commit_ps",
          "ping_pong", "realized_near_hits"}) {
        keys.push_back(std::string("\"") + key + "\":");
        wants.push_back(std::string("line 2: missing key '") + key + "'");
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
        cases.push_back({kLedger, keys[i].c_str(), "\"x\":", wants[i].c_str()});
    expectViolations(cases);
}

TEST(RunToolCheck, TraceAssertions)
{
    expectViolations({
        {kTrace, "\"ns\"", "\"ms\"", "trace.json: displayTimeUnit is not ns"},
        {kTrace, "", R"({"displayTimeUnit":"ns","traceEvents":[]})",
         "trace.json: traceEvents is empty"},
        // The old CI test was a substring test: "" and "Bb" passed.
        {kTrace, "\"ph\":\"i\"", "\"ph\":\"\"",
         "trace.json: traceEvents[3]: ph '' is not one of"},
        {kTrace, "\"ph\":\"i\"", "\"ph\":\"Bb\"",
         "trace.json: traceEvents[3]: ph 'Bb' is not one of"},
        {kTrace, "\"ph\":\"i\"", "\"ph\":\"Z\"",
         "trace.json: traceEvents[3]: ph 'Z' is not one of"},
        {kTrace, "\"ph\":\"i\"", "\"x\":\"i\"",
         "trace.json: traceEvents[3]: missing key 'ph'"},
        {kTrace, "\"pid\":0,\"tid\":1}", "\"tid\":1}",
         "trace.json: traceEvents[3]: missing key 'pid'"},
        {kTrace, "\"pid\":0,\"tid\":1}", "\"pid\":0}",
         "trace.json: traceEvents[3]: missing key 'tid'"},
        {kTrace, "\"ts\":3,", "",
         "trace.json: traceEvents[3]: missing key 'ts'"},
        {kTrace, "\"name\":\"mea_victory\",", "",
         "trace.json: traceEvents[3]: missing key 'name'"},
        {kTrace, R"("id":"1")", R"("id":"9")",
         "trace.json: traceEvents[2]: async end without a begin: demand"},
        {kTrace, "\"ph\":\"e\"", "\"ph\":\"i\"",
         "trace.json: unbalanced async span: demand"},
    });
}

TEST(RunToolCheck, PerfAndBenchAssertions)
{
    expectViolations({
        {kPerf, "perf-v1", "perf-v0", "perf.json: schema is"},
        {kPerf, "\"wall_seconds\"", "\"x\"",
         "perf.json: missing key 'wall_seconds'"},
        {kPerf, "\"phases_ns\"", "\"x\"", "perf.json: missing key 'phases_ns'"},
        {kPerf, "\"counters\"", "\"x\"", "perf.json: missing key 'counters'"},
        {kPerf, "\"events_executed\":5", "\"events_executed\":0",
         "perf.json: events_executed is not > 0"},
        {kBench, "bench-v2", "bench-v1", "BENCH_w.json: schema is"},
        {kBench, "\"name\"", "\"x\"", "BENCH_w.json: missing key 'name'"},
        {kBench, "\"jobs\":1", "\"jobs\":-1",
         "BENCH_w.json: 'jobs' is not an unsigned integer"},
        {kBench, "\"events_executed\"", "\"x\"",
         "BENCH_w.json: missing key 'events_executed'"},
        {kBench, "2.5", "null",
         "BENCH_w.json: 'events_per_sim_ms' is not a number"},
        {kBench, "2.5", "-2.5", "BENCH_w.json: events_per_sim_ms is negative"},
        // The wall-clock half is gone for good: it would break the
        // file's byte-identity across runs.
        {kBench, "\"jobs\":1", "\"jobs\":1,\"wall_seconds\":3",
         "BENCH_w.json: has keys beyond schema"},
    });
}

TEST(RunToolCheck, RunLevelAssertions)
{
    const std::string empty_ledger =
        R"({"schema":"mempod-decisions-v1","workload":"w",)"
        R"("mechanism":"HMA","epoch_ps":1,"benefit_per_touch_ns":1,)"
        R"("decisions":0,"committed":0,"aborted":0,"ping_pongs":0})"
        "\n";
    const std::string one_interval =
        "{\"interval\":0,\"counters\":{}}\n"
        "{\"interval\":1,\"counters\":{\"pod0.migration.migrations\":2}}\n";
    expectViolations({
        {kLedger, "", empty_ledger.c_str(),
         "run: no decision ledger records a decision"},
        {kTrace, "remap_commit", "remap",
         "run: MemPod migrated, but no trace shows a full mea_victory"},
        {kTrace, "\"ph\":\"f\"", "\"ph\":\"t\"",
         "run: MemPod migrated, but no trace shows a full mea_victory"},
        {kSeries, "", one_interval.c_str(),
         "run: MemPod migrated, but no MemPod .jsonl shows per-pod"},
        {kSeries, nullptr, nullptr,
         "run: MemPod migrated, but no MemPod .jsonl shows per-pod"},
        {kStats, nullptr, nullptr, "job000_MemPod_w.jsonl has no"},
        {kTrace, nullptr, nullptr, "run: traces/ holds no trace files"},
        {kPerf, nullptr, nullptr, "run: perf/ holds no perf files"},
        {kBench, "", "", "BENCH_w.json: not valid JSON"},
    });
}

TEST(RunToolCheck, ForeignFilesEmptyRunsAndMissingPaths)
{
    const auto dir = tmpDir() / "run";
    writeRun(dir);
    writeText(dir / "stats" / "notes.txt", "x");
    std::string err;
    EXPECT_EQ(runTool("check " + dir.string(), &err).status, 1);
    EXPECT_NE(err.find("notes.txt: not a run artifact or BENCH file"),
              std::string::npos)
        << err;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    EXPECT_EQ(runTool("check " + dir.string(), &err).status, 1);
    EXPECT_NE(err.find("run: no run artifacts found"), std::string::npos)
        << err;
    EXPECT_EQ(runTool("check " + (dir / "absent").string()).status, 2);
    std::filesystem::remove_all(dir.parent_path());
}

TEST(RunToolCheck, RealFig8RunDirectoryPasses)
{
    // Too short for MemPod to reach an epoch, so the MemPod-keyed run
    // rules stay quiet; CAMEO's line swaps still fill its ledger.
    const auto dir = tmpDir();
    const CmdResult fig8 =
        run(std::string(MEMPOD_FIG8_PATH) + " --requests 2000 --jobs 2 "
            "--out " + (dir / "run").string() +
            " --emit stats,traces,decisions,perf --bench-out " +
            dir.string());
    ASSERT_EQ(fig8.status, 0);
    std::string err;
    const CmdResult r =
        runTool("check " + (dir / "run").string() + " " +
                    (dir / "BENCH_fig8_comparison.json").string(),
                &err);
    EXPECT_EQ(r.status, 0) << err;
    EXPECT_NE(r.out.find("211 file(s) in 2 path(s), 0 violation(s)"),
              std::string::npos)
        << r.out;
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
    const auto a_dir = dir / "a", b_dir = dir / "b";
    const std::string args = "--workloads xalanc --requests 20000 "
                             "--baseline --emit stats,traces,decisions";
    const CmdResult a = run(mempodSim(
        a_dir, args + " --jobs 1 --shards 0 --out " + a_dir.string()));
    const CmdResult b = run(mempodSim(
        b_dir, args + " --jobs 2 --shards 4 --out " + b_dir.string()));
    ASSERT_EQ(a.status, 0);
    ASSERT_EQ(b.status, 0);
    EXPECT_EQ(a.out, b.out);
    // 2 jobs x (json, jsonl, trace, ledger), plus BENCH_mempod_sim.json,
    // which holds deterministic fields only.
    const auto files = tree(a_dir);
    EXPECT_EQ(files.size(), 9u);
    EXPECT_TRUE(files == tree(b_dir));
    std::string err;
    EXPECT_EQ(runTool("check " + a_dir.string() + " " + b_dir.string(),
                      &err)
                  .status,
              0)
        << err;
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
