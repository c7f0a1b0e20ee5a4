/**
 * @file
 * Parallel batch execution of independent simulation and interval-
 * study jobs. Every figure/table harness is a cross product of
 * workloads and configurations whose runs share nothing but the input
 * traces, so the BatchRunner executes them on a fixed-size worker
 * pool: each job builds its own Simulation (own EventQueue, own RNG
 * state) and opens its own cursor on the trace through the read-only
 * WorkloadCatalog, the only state jobs share: a fresh generator for a
 * synthetic workload, a fresh reader for an external one. A synthetic
 * trace is never stored, so a sweep holds O(cores) trace state per
 * running job, not its records. Results come back in
 * submission order regardless of completion order, and a job that
 * throws is captured as a per-job failure instead of killing the
 * batch — so a 27-workload x 6-configuration sweep reports the one
 * broken cell and still fills in the other 161.
 *
 * Determinism guarantee: the simulator is bit-reproducible given
 * (config, trace), and trace generation is bit-reproducible given
 * (workload, GeneratorConfig), no matter which worker thread runs
 * either. Hence the results of a batch are identical at any worker
 * count, including 1.
 */
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/interval_study.h"
#include "common/perf.h"
#include "sim/artifacts.h"
#include "sim/config.h"
#include "sim/report.h"
#include "trace/generator.h"

namespace mempod {

/** What a BatchJob asks the worker to run over its trace. */
enum class JobKind
{
    kTiming,        //!< full timing simulation -> RunResult
    kIntervalStudy, //!< Section 3 offline study -> IntervalStudyResult
};

/** One unit of work: a configuration plus the workload it replays. */
struct BatchJob
{
    JobKind kind = JobKind::kTiming;

    SimConfig config;          //!< used by kTiming jobs
    IntervalStudyConfig study; //!< used by kIntervalStudy jobs

    /** Workload name; keys trace generation and labels the result. */
    std::string workload;

    /** Trace parameters (requests, seed, scales) the job opens with. */
    GeneratorConfig gen;

    /** Display label for progress/error reports (e.g. "MemPod"). */
    std::string label;
};

/** Outcome of one job; exactly one payload is meaningful. */
struct JobResult
{
    bool ok = false;
    std::string error; //!< exception message when !ok

    std::string workload; //!< copied from the job, for reporting
    std::string label;

    RunResult result;          //!< kTiming payload
    IntervalStudyResult study; //!< kIntervalStudy payload

    double wallSeconds = 0.0;

    /** Host profile of the run; set when the job's config enabled it. */
    bool hasPerf = false;
    PerfReport perf;
};

/** Worker-pool knobs. */
struct RunnerOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Print a line per completed job (from the main thread only). */
    bool progress = false;

    /** Progress destination; nullptr = stderr. */
    std::FILE *progressStream = nullptr;

    /**
     * Run-directory sink for every per-job artifact. When its root is
     * non-empty, each timing job writes the enabled kinds under fixed
     * subdirectories:
     *
     *   stats/      "job<NNN>[_<label>]_<workload>.json" (plus
     *               ".jsonl" when the job's config armed the interval
     *               sampler); NNN is the submission index, so the file
     *               set and its bytes are identical at any worker
     *               count.
     *   traces/     "<same stem>.trace.json" (Chrome trace-event
     *               JSON) when the job's config armed the tracer;
     *               deterministic sampling keeps the bytes identical
     *               at any worker count.
     *   decisions/  "<same stem>.decisions.jsonl"
     *               ("mempod-decisions-v1") when the job's config
     *               enabled the ledger; populated entirely in the
     *               coordinator domain, so deterministic and safe to
     *               `diff -r` across --jobs/--shards settings.
     *   perf/       "<same stem>.perf.json" when the job's config
     *               enabled the host profiler. Deliberately a sibling
     *               of stats/: perf sidecars carry wall times and are
     *               *not* byte-deterministic, so determinism checks
     *               diff the other subdirectories and skip this one.
     */
    ArtifactSink artifacts = {};
};

/**
 * Fixed-size worker pool over a list of independent jobs.
 *
 *   BatchRunner runner({.jobs = 4});
 *   for (...) runner.add({...});
 *   std::vector<JobResult> results = runner.runAll();
 *
 * runAll() blocks until every job finished and returns results in
 * submission order. It may be called repeatedly; each call runs the
 * jobs added since the previous one.
 */
class BatchRunner
{
  public:
    explicit BatchRunner(RunnerOptions opt = {});

    /** Enqueue a job; returns its index into runAll()'s result. */
    std::size_t add(BatchJob job);

    /** Jobs queued for the next runAll(). */
    std::size_t pending() const { return jobs_.size(); }

    /** Worker-thread count runAll() will use. */
    unsigned workerCount() const;

    /** Run everything; blocking. Results are in submission order. */
    std::vector<JobResult> runAll();

  private:
    JobResult execute(const BatchJob &job, std::size_t index);

    RunnerOptions opt_;
    std::vector<BatchJob> jobs_;
    std::size_t statsIndexBase_ = 0; //!< jobs run by prior runAll()s
};

/**
 * Canonical textual form of a RunResult with bit-exact floating-point
 * fields (hex-float rendering) — the determinism tests compare these
 * across worker counts, and it is handy for debugging goldens.
 */
std::string serializeRunResult(const RunResult &r);

} // namespace mempod
