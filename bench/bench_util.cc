#include "bench_util.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <algorithm>

#include "common/json.h"
#include "common/log.h"
#include "common/number.h"
#include "sim/stats_writer.h"
#include "trace/generator.h"

namespace mempod::bench {

namespace {

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            if (start < s.size())
                out.push_back(s.substr(start));
            break;
        }
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

void
listWorkloads()
{
    const WorkloadCatalog &cat = WorkloadCatalog::global();
    std::printf("homogeneous (8 copies of one benchmark):\n ");
    for (const auto &name : cat.homogeneousNames())
        std::printf(" %s", name.c_str());
    std::printf("\n\nmixed (Table 3, normalized to 8 cores):\n");
    for (const auto &name : cat.mixedNames()) {
        const CatalogEntry &e = cat.find(name);
        if (e.kind == CatalogEntry::Kind::kExternal)
            continue; // listed below with its source
        std::printf("  %-6s:", name.c_str());
        for (const auto &b : e.synthetic.benchmarks)
            std::printf(" %s", b.c_str());
        std::printf("\n");
    }
    bool headed = false;
    for (const auto &name : cat.names()) {
        const CatalogEntry &e = cat.find(name);
        if (e.kind != CatalogEntry::Kind::kExternal)
            continue;
        if (!headed) {
            std::printf("\nexternal traces (from --manifest):\n");
            headed = true;
        }
        std::printf("  %-12s %s (%zu file%s)\n", name.c_str(),
                    e.external.format.c_str(), e.external.files.size(),
                    e.external.files.size() == 1 ? "" : "s");
    }
}

/**
 * Read `text` as an unsigned integer in [lo, hi] into `out`; returns
 * the error text ("" on success).
 */
std::string
uintInRange(const std::string &text, std::uint64_t &out,
            std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX)
{
    std::uint64_t v = 0;
    if (parseDecimal(text, v) != std::errc())
        return "expects an unsigned integer, got '" + text + "'";
    if (v < lo || v > hi) {
        return "must be " +
               (hi == UINT64_MAX ? ">= " + std::to_string(lo)
                                 : "in [" + std::to_string(lo) + ", " +
                                       std::to_string(hi) + "]") +
               ", got " + text;
    }
    out = v;
    return {};
}

template <typename T>
Flag::Action
storeUint(T &out, std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX)
{
    return [&out, lo, hi](const std::string &v) {
        std::uint64_t n = 0;
        const std::string err = uintInRange(v, n, lo, hi);
        out = static_cast<T>(n);
        return err;
    };
}

} // namespace

Flag::Action
storeTrue(bool &out)
{
    return [&out](const std::string &) {
        out = true;
        return std::string();
    };
}

Flag::Action
storeText(std::string &out)
{
    return [&out](const std::string &v) {
        out = v;
        return std::string();
    };
}

void
usageError(const char *what, const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n", what, message.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv, const char *what,
             std::vector<Flag> extra)
{
    Options opt;
    bool emit_given = false;
    // A shortcut flag is one dotted-key entry in Options::sets.
    const auto enable = [&opt](const char *key) {
        return [&opt, key](const std::string &) {
            opt.sets.emplace_back(key, "true");
            return std::string();
        };
    };
    std::vector<Flag> table = {
        {"--full", nullptr, "paper-scale run (all workloads, long traces)",
         storeTrue(opt.full)},
        {"--requests", "N", "trace length (also caps external traces)",
         storeUint(opt.requests)},
        {"--seed", "N", "generator seed (default 42)", storeUint(opt.seed)},
        {"--jobs", "N", "worker threads in [1, 1024] (default: all cores)",
         storeUint(opt.jobs, 1, 1024)},
        {"--shards", "N",
         "sim.shards=N: PDES shards in [0, 1024]; 0 = serial kernel",
         [&](const std::string &v) {
             std::uint64_t n = 0;
             const std::string err = uintInRange(v, n, 0, 1024);
             opt.sets.emplace_back("sim.shards", std::to_string(n));
             return err;
         }},
        {"--workloads", "a,b", "explicit workload list",
         [&](const std::string &v) {
             opt.workloads = splitCommas(v);
             return std::string();
         }},
        {"--manifest", "FILE",
         "load a traces.json manifest; its traces become workloads",
         [&](const std::string &v) {
             // Load immediately: later flags (--list-workloads, the
             // --workloads validation below) see the external traces.
             WorkloadCatalog::global().loadManifest(v);
             return std::string();
         }},
        {"--list-workloads", nullptr, "print the workload suite and exit",
         [](const std::string &) -> std::string {
             listWorkloads();
             std::exit(0);
         }},
        {"--out", "DIR",
         "run directory for stats/, traces/, decisions/, perf/",
         [&](const std::string &v) -> std::string {
             opt.artifacts.root = v;
             return v.empty() ? "needs a directory" : "";
         }},
        {"--emit", "LIST",
         "kinds under --out: stats,traces,decisions (default),perf",
         [&](const std::string &v) -> std::string {
             emit_given = true;
             std::string bad;
             if (!applyEmitList(v, opt.artifacts, &bad)) {
                 return "has unknown artifact kind '" + bad +
                        "' (use stats,traces,decisions,perf)";
             }
             if (opt.artifacts.perf) // a perf sidecar needs a profile
                 opt.sets.emplace_back("perf.enabled", "true");
             return {};
         }},
        {"--interval-us", "N",
         "JSONL period in simulated us (default 50; 0 = summary only)",
         storeUint(opt.intervalUs)},
        {"--trace-sample", "N", "trace 1 in N demand requests (default 64)",
         storeUint(opt.traceSample, 1)},
        {"--perf", nullptr,
         "perf.enabled=true: host profile, table on stderr",
         enable("perf.enabled")},
        {"--fidelity", "MODE",
         "detailed|fast: dram.model=MODE; sampled: "
         "sim.sampling.enabled=true",
         [&](const std::string &v) -> std::string {
             if (v == "detailed" || v == "fast")
                 opt.sets.emplace_back("dram.model", v);
             else if (v == "sampled")
                 opt.sets.emplace_back("sim.sampling.enabled", "true");
             else
                 return "must be detailed, fast or sampled, got '" + v +
                        "'";
             return {};
         }},
        {"--set", "KEY=VALUE",
         "dotted-key config override (repeatable; see EXPERIMENTS.md)",
         [&](const std::string &v) -> std::string {
             const std::size_t eq = v.find('=');
             if (eq == std::string::npos || eq == 0)
                 return "expects key=value, got '" + v + "'";
             opt.sets.emplace_back(v.substr(0, eq), v.substr(eq + 1));
             return {};
         }},
        {"--paranoid", nullptr,
         "validate.paranoid=true: O(pages) invariant scans every epoch",
         enable("validate.paranoid")},
        {"--bench-out", "DIR", "where BENCH_<name>.json lands (default .)",
         [&](const std::string &v) -> std::string {
             opt.benchOut = v;
             return v.empty() ? "needs a directory" : "";
         }},
    };
    table.insert(table.end(), extra.begin(), extra.end());
    table.push_back({"--help", nullptr, "print this table and exit",
                     [&](const std::string &) -> std::string {
                         std::printf("%s\noptions:\n", what);
                         for (const Flag &f : table) {
                             const std::string lhs =
                                 f.arg ? std::string(f.name) + " " + f.arg
                                       : f.name;
                             std::printf("  %-20s %s\n", lhs.c_str(),
                                         f.help);
                         }
                         std::exit(0);
                     }});

    for (int i = 1; i < argc; ++i) {
        const std::string name =
            std::strcmp(argv[i], "-h") ? argv[i] : "--help";
        const auto row =
            std::find_if(table.begin(), table.end(),
                         [&](const Flag &f) { return name == f.name; });
        if (row == table.end())
            usageError(what, "unknown option '" + name + "'");
        std::string value;
        if (row->arg) {
            if (i + 1 >= argc)
                usageError(what, name + " needs a value");
            value = argv[++i];
        }
        const std::string err = row->apply(value);
        if (!err.empty())
            usageError(what, name + " " + err);
    }
    for (const auto &w : opt.workloads)
        WorkloadCatalog::global().find(w); // fatal on typo, up front
    if (emit_given && !opt.artifacts.enabled())
        usageError(what, "--emit requires --out DIR");
    if (opt.artifacts.enabled())
        ensureWritableDir(opt.artifacts.root, "--out", what);
    if (opt.benchOut != ".")
        ensureWritableDir(opt.benchOut, "--bench-out", what);
    return opt;
}

void
ensureWritableDir(const std::string &dir, const char *flag,
                  const char *what)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string where = std::string(flag) + ": ";
    if (ec) {
        usageError(what, where + "cannot create directory '" + dir +
                             "': " + ec.message());
    }
    // create_directories succeeds silently when `dir` already exists —
    // even as a plain file; a write probe catches that and read-only
    // mounts in one check.
    if (!std::filesystem::is_directory(dir, ec) || ec)
        usageError(what, where + "'" + dir + "' is not a directory");
    const std::string probe = dir + "/.write-probe";
    std::FILE *f = std::fopen(probe.c_str(), "wb");
    if (!f) {
        usageError(what, where + "directory '" + dir +
                             "' is not writable: " + std::strerror(errno));
    }
    std::fclose(f);
    std::filesystem::remove(probe, ec);
}

std::vector<std::string>
Options::sweepWorkloads() const
{
    if (!workloads.empty())
        return workloads;
    if (full)
        return WorkloadCatalog::global().names();
    return WorkloadCatalog::representativeNames();
}

std::vector<std::string>
Options::suiteWorkloads() const
{
    if (!workloads.empty())
        return workloads;
    return WorkloadCatalog::global().names();
}

RunnerOptions
runnerOptions(const Options &opt)
{
    RunnerOptions ro;
    ro.jobs = opt.jobs;
    ro.progress = true;
    ro.artifacts = opt.artifacts;
    return ro;
}

BatchJob
timingJob(const SimConfig &config, const std::string &workload,
          const Options &opt, std::string label)
{
    BatchJob job;
    job.kind = JobKind::kTiming;
    job.config = config;
    job.config.statsIntervalPs = opt.statsIntervalPs();
    job.config.tracer.enabled = opt.artifacts.wantTraces();
    job.config.tracer.sampleEvery = opt.traceSample;
    job.config.tracer.seed = opt.seed;
    for (const auto &[key, value] : opt.sets)
        job.config.set(key, value);
    job.workload = workload;
    job.gen.totalRequests = opt.timingRequests();
    job.gen.seed = opt.seed;
    job.label = std::move(label);
    return job;
}

BatchJob
studyJob(const IntervalStudyConfig &study, const std::string &workload,
         const Options &opt)
{
    BatchJob job;
    job.kind = JobKind::kIntervalStudy;
    job.study = study;
    job.workload = workload;
    job.gen.totalRequests = opt.offlineRequests();
    job.gen.seed = opt.seed;
    return job;
}

const RunResult &
need(const JobResult &r)
{
    if (!r.ok)
        MEMPOD_FATAL("job %s/%s failed: %s", r.label.c_str(),
                     r.workload.c_str(), r.error.c_str());
    return r.result;
}

const IntervalStudyResult &
needStudy(const JobResult &r)
{
    if (!r.ok)
        MEMPOD_FATAL("study job %s failed: %s", r.workload.c_str(),
                     r.error.c_str());
    return r.study;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

void
banner(const char *figure, const char *caption, const Options &opt)
{
    std::printf("=== %s — %s ===\n", figure, caption);
    std::printf("mode: %s (use --full for the paper-scale sweep)\n\n",
                opt.full ? "FULL" : "reduced");
}

void
finishBench(const char *name, const Options &opt,
            const std::vector<JobResult> &results)
{
    std::uint64_t jobs = 0, events = 0, simulated_ps = 0;
    PerfReport perf;
    bool have_perf = false;
    for (const JobResult &r : results) {
        if (!r.ok)
            continue;
        ++jobs;
        events += r.result.eventsExecuted;
        simulated_ps += r.result.simulatedPs;
        if (r.hasPerf) {
            perf.merge(r.perf);
            have_perf = true;
        }
    }
    // Simulation cost: events executed per simulated millisecond, the
    // leaf `run_tool speedup` gates. Like every field here it is a pure
    // function of the configs and traces, so the file is byte-identical
    // across --jobs, reruns and hosts.
    const double events_per_sim_ms =
        simulated_ps > 0 ? static_cast<double>(events) /
                               (static_cast<double>(simulated_ps) / 1e9)
                         : 0.0;
    const std::string path = opt.benchOut + "/BENCH_" + name + ".json";
    StatsWriter::writeFile(
        path, "{\n  \"schema\":\"mempod-bench-v2\",\n  \"name\":\"" +
                  json::escape(name) + "\",\n  \"jobs\":" +
                  std::to_string(jobs) + ",\n  \"events_executed\":" +
                  std::to_string(events) +
                  ",\n  \"events_per_sim_ms\":" +
                  json::formatDouble(events_per_sim_ms) + "\n}\n");
    std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    if (have_perf)
        perf.printTable(stderr, name);
}

} // namespace mempod::bench
