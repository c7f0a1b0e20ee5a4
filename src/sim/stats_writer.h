/**
 * @file
 * Structured exporters over the metric registry: an end-of-run JSON
 * document (summary block derived from the RunResult plus every
 * registered instrument with its description) and a JSONL interval
 * trace (one line per IntervalSampler record with the non-zero counter
 * deltas and the gauge levels at the interval boundary). Both are
 * emitted from name-ordered snapshots, so the bytes are deterministic
 * for a given run regardless of registration order or worker count.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/decision_log.h"
#include "common/metrics.h"
#include "common/perf.h"
#include "sim/report.h"

namespace mempod {

/** JSON / JSONL rendering of run statistics. */
class StatsWriter
{
  public:
    /**
     * Full end-of-run document: run identity, a "summary" object
     * mirroring the RunResult (the numbers the console tables print),
     * and a "metrics" object with every registered instrument.
     */
    static std::string toJson(const MetricRegistry &reg,
                              const MetricSnapshot &snap,
                              const RunResult &result);

    /**
     * One JSON line per interval: index, [start_ps, end_ps), the
     * non-zero counter deltas and the gauge values at the interval
     * end. Returns "" when there are no records.
     */
    static std::string
    toJsonl(const std::vector<IntervalRecord> &records);

    /**
     * Migration decision ledger as a "mempod-decisions-v1" JSONL
     * sidecar: a header line with run identity and ledger totals,
     * then one line per decision in the order the policy made them.
     * The ledger is populated entirely in the coordinator domain, so
     * these bytes are identical at any jobs/shards setting. The
     * schema is documented in EXPERIMENTS.md.
     */
    static std::string decisionsToJsonl(const DecisionLog &log,
                                        const std::string &workload,
                                        const std::string &mechanism);

    /**
     * Deterministic per-job file stem "job<NNN>[_<label>]_<workload>"
     * keyed by the submission index, so a batch writes the same file
     * set at any worker count. Label/workload are sanitized to
     * [A-Za-z0-9._-].
     */
    static std::string jobFileStem(std::size_t index,
                                   const std::string &label,
                                   const std::string &workload);

    /**
     * Host-profile sidecar document ("mempod-perf-v1"): wall/RSS/rate
     * header, phase wall times, host counters/gauges/histograms and
     * the per-shard busy/stall ledger. Host facts only — this file is
     * intentionally *not* deterministic, which is why it lives beside
     * (never inside) the stats directory CI byte-compares.
     */
    static std::string perfToJson(const PerfReport &r);

    /**
     * Write `content` to `path`; throws std::runtime_error on error.
     * Crash-safe: the bytes go to a temp file in the target directory
     * which is atomically renamed over `path`, so a killed run leaves
     * either the old file or the complete new one — never a truncated
     * JSON document.
     */
    static void writeFile(const std::string &path,
                          const std::string &content);
};

} // namespace mempod
