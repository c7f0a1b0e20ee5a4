/**
 * @file
 * Shared scaffolding for the figure/table harnesses: CLI options
 * (scale control, workload selection, worker count), workload-set
 * helpers, and BatchRunner glue. Every job opens its own trace through
 * WorkloadCatalog::open; nothing caches traces between jobs.
 *
 * Every simulation binary parses its command line with parseOptions()
 * over one option table: the shared rows in bench_util.cc plus any
 * rows the binary adds (tools/mempod_sim.cc adds its single-run
 * flags). Run any binary with --help for the table. Shortcut flags
 * (--shards, --paranoid, --perf, --fidelity) append dotted-key
 * entries to Options::sets in command-line order next to --set, so
 * the last entry for a key wins.
 *
 * Results are identical at any --jobs value (same seed => same
 * numbers); only wall-clock time changes. The run directory is
 * validated up front (created if missing, probed for writability) so a
 * bad path fails before hours of simulation, not after.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/report.h"
#include "sim/runner.h"
#include "trace/catalog.h"
#include "trace/record.h"

namespace mempod::bench {

/** Parsed harness options. */
struct Options
{
    bool full = false;
    std::uint64_t requests = 0; //!< 0 = pick by mode
    std::uint64_t seed = 42;
    unsigned jobs = 0; //!< worker threads; 0 = hardware concurrency
    std::vector<std::string> workloads; //!< empty = pick by mode
    ArtifactSink artifacts; //!< --out run dir + --emit enable bits
    std::uint64_t intervalUs = 50; //!< JSONL period (µs); 0 = off
    std::uint64_t traceSample = 64; //!< trace 1 in N demand requests
    //! dotted-key overrides from --set and the shortcut flags, in
    //! command-line order; applied to every timing job
    std::vector<std::pair<std::string, std::string>> sets;
    std::string benchOut = "."; //!< where BENCH_<name>.json lands

    /**
     * Sampling period in picoseconds for timing jobs: 0 unless the
     * sink emits stats (the sampler adds events, so it stays off when
     * nobody consumes the records).
     */
    TimePs
    statsIntervalPs() const
    {
        return artifacts.wantStats() ? intervalUs * 1'000'000 : 0;
    }

    /** Trace length for timing simulations. */
    std::uint64_t
    timingRequests() const
    {
        if (requests)
            return requests;
        return full ? 8'000'000 : 800'000;
    }

    /** Trace length for the offline (Section 3) studies. */
    std::uint64_t
    offlineRequests() const
    {
        if (requests)
            return requests;
        return full ? 4'000'000 : 600'000;
    }

    /** Workload set for timing sweeps (small unless --full). */
    std::vector<std::string> sweepWorkloads() const;

    /** Full suite (all 27) unless the user narrowed it. */
    std::vector<std::string> suiteWorkloads() const;
};

/**
 * One row of an option table: the flag, its argument name (nullptr
 * for a switch), one line of help, and the action. The action gets the
 * argument ("" for a switch) and returns an error message, empty on
 * success.
 */
struct Flag
{
    using Action = std::function<std::string(const std::string &value)>;

    const char *name;
    const char *arg;
    const char *help;
    Action apply;
};

/** Row actions that set `out` (true, or the argument); never fail. */
Flag::Action storeTrue(bool &out);
Flag::Action storeText(std::string &out);

/**
 * Parse argv against the shared harness rows plus `extra`; --help
 * prints the whole table and exits 0. A bad flag or value prints
 * "<what>: <message>" to stderr and exits 2.
 */
Options parseOptions(int argc, char **argv, const char *what,
                     std::vector<Flag> extra = {});

/** Print "<what>: <message>" to stderr and exit(2). */
[[noreturn]] void usageError(const char *what,
                             const std::string &message);

/**
 * Create `dir` if missing and prove it is writable by creating and
 * removing a probe file. On any failure prints a clear error naming
 * the flag and exits(2) — output directories must fail fast, before
 * simulations run, not at the first write hours later.
 */
void ensureWritableDir(const std::string &dir, const char *flag,
                       const char *what);

/** RunnerOptions honoring --jobs, progress on stderr, --out. */
RunnerOptions runnerOptions(const Options &opt);

/** A timing job at the harness's scale (timingRequests, seed). */
BatchJob timingJob(const SimConfig &config, const std::string &workload,
                   const Options &opt, std::string label = {});

/** An offline interval-study job (offlineRequests, seed). */
BatchJob studyJob(const IntervalStudyConfig &study,
                  const std::string &workload, const Options &opt);

/** Unwrap a timing result; fatal (with job context) on failure. */
const RunResult &need(const JobResult &r);

/**
 * The run's measured AMMAT: the SMARTS window estimate on sampled
 * runs (the full-run average is meaningless there — fast-forwarded
 * demands complete without stall accounting), the exact full-run
 * average otherwise. Figure harnesses normalize with this so every
 * --fidelity mode produces comparable tables.
 */
inline double
measuredAmmat(const RunResult &r)
{
    return r.sampled ? r.sampledAmmatNs : r.ammatNs;
}

/** Unwrap an interval-study result; fatal on failure. */
const IntervalStudyResult &needStudy(const JobResult &r);

/** Mean of a vector. */
double mean(const std::vector<double> &v);

/** Print the standard harness banner. */
void banner(const char *figure, const char *caption,
            const Options &opt);

/**
 * Standard harness epilogue: write BENCH_<name>.json
 * ("mempod-bench-v2": name, jobs, events_executed, events_per_sim_ms;
 * deterministic fields only) into --bench-out and, when any job ran
 * with perf.enabled, print the merged one-page host-profile table to
 * stderr (stdout stays byte-identical to a perf-disabled run).
 */
void finishBench(const char *name, const Options &opt,
                 const std::vector<JobResult> &results);

} // namespace mempod::bench
