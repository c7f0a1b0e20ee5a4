/**
 * @file
 * Host-side self-profiling for the simulator: where does the *host's*
 * time go, as opposed to the simulated system's (common/metrics.h).
 *
 * A PerfMonitor accumulates wall-clock phase times (RAII PerfScope on
 * a monotonic clock), named host counters/gauges/histograms, and
 * per-shard busy/stall lanes for the PDES executor. Everything here is
 * strictly *outside* deterministic simulation state: host time is only
 * ever read, never fed back into event scheduling, so enabling the
 * monitor cannot change a single output byte at any --shards/--jobs
 * value (proven by pdes_determinism_test). When no monitor is attached
 * the instrumented layers pay exactly one branch on a null pointer.
 *
 * Thread discipline: the monitor itself is not locked. The coordinator
 * thread owns the maps; worker threads touch only their own shard lane
 * (resized once, before workers observe the monitor), and every lane
 * hand-off in sim/parallel.cc flows through the executor's mutex, so
 * the accesses are ordered without atomics.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace mempod {

/** Monotonic host clock, nanoseconds since an arbitrary epoch. */
std::uint64_t perfNowNs();

/** Peak resident set size of this process, in KiB (0 if unknown). */
std::uint64_t perfMaxRssKib();

/** Host identity stamped into bench/perf artifacts. */
struct PerfHostInfo
{
    std::string sysname; //!< uname sysname, e.g. "Linux"
    std::string machine; //!< uname machine, e.g. "x86_64"
    unsigned cpus = 0;   //!< hardware_concurrency
};

PerfHostInfo perfHostInfo();

/**
 * Snapshot of one run's host profile, assembled by
 * Simulation::collectPerf after the run drains. Plain data so it can be
 * copied into JobResult and serialized by StatsWriter::perfToJson.
 */
struct PerfReport
{
    double wallSeconds = 0.0;        //!< monitor lifetime (all phases)
    std::uint64_t maxRssKib = 0;     //!< process peak RSS
    std::uint64_t simTimePs = 0;     //!< simulated time covered
    std::uint64_t eventsExecuted = 0;
    double eventsPerSecond = 0.0;    //!< events / run-phase seconds
    std::uint64_t windows = 0;       //!< PDES windows (0 when serial)

    /** Phase wall times, in first-recorded order (setup/run/report). */
    std::vector<std::pair<std::string, std::uint64_t>> phasesNs;

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    /** Log2 bucket arrays; bucket b>=1 covers [2^(b-1), 2^b). */
    std::map<std::string, std::vector<std::uint64_t>> histograms;

    /** One PDES worker shard's host accounting. */
    struct Shard
    {
        std::uint64_t busyNs = 0;  //!< running lane events
        std::uint64_t stallNs = 0; //!< parked at the window barrier
        std::uint64_t events = 0;  //!< lane events it executed
    };
    std::vector<Shard> shards;

    /** Fold another report into this one (bench aggregation). */
    void merge(const PerfReport &other);

    /** The one-page `--perf` host-profile table (stderr-friendly). */
    void printTable(std::FILE *out, const std::string &title) const;
};

/** Accumulator behind the PerfScope/instrumentation hooks. */
class PerfMonitor
{
  public:
    PerfMonitor() : startNs_(perfNowNs()) {}

    PerfMonitor(const PerfMonitor &) = delete;
    PerfMonitor &operator=(const PerfMonitor &) = delete;

    std::uint64_t startNs() const { return startNs_; }

    void phaseAddNs(const std::string &phase, std::uint64_t ns);
    std::uint64_t phaseNs(const std::string &phase) const;

    void
    counterAdd(const std::string &name, std::uint64_t delta)
    {
        counters_[name] += delta;
    }

    void
    counterMax(const std::string &name, std::uint64_t v)
    {
        std::uint64_t &slot = counters_[name];
        if (v > slot)
            slot = v;
    }

    void gaugeSet(const std::string &name, double v) { gauges_[name] = v; }

    /**
     * Named histogram; the returned reference is stable, so hot paths
     * resolve it once and sample through the pointer thereafter.
     */
    Log2Histogram &histogram(const std::string &name)
    {
        return histograms_[name];
    }

    /** Size the per-shard lanes; call before workers see the monitor. */
    void resizeShards(std::size_t n) { shards_.resize(n); }
    PerfReport::Shard &shard(std::size_t s) { return shards_[s]; }
    std::size_t numShards() const { return shards_.size(); }

    /**
     * Rate-limited heartbeat: true when at least `interval_ns` of wall
     * time passed since the last true return (or since construction).
     */
    bool heartbeatDue(std::uint64_t interval_ns);

    /**
     * Assemble the report: every accumulator plus the derived rates.
     * `sim_time_ps`/`events` come from the simulation; events/s uses
     * the "run" phase when recorded, total wall otherwise.
     */
    PerfReport report(std::uint64_t sim_time_ps,
                      std::uint64_t events) const;

  private:
    std::uint64_t startNs_;
    std::uint64_t lastHeartbeatNs_ = 0;
    /** Insertion-ordered so the report prints setup/run/report. */
    std::vector<std::pair<std::string, std::uint64_t>> phases_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Log2Histogram> histograms_;
    std::vector<PerfReport::Shard> shards_;
};

/**
 * RAII wall-clock phase scope. A null monitor makes construction and
 * destruction a single branch each — the disabled cost everywhere.
 */
class PerfScope
{
  public:
    PerfScope(PerfMonitor *pm, const char *phase)
        : pm_(pm), phase_(phase), t0_(pm ? perfNowNs() : 0)
    {
    }

    ~PerfScope() { close(); }

    /** End the phase before scope exit (idempotent). */
    void
    close()
    {
        if (pm_) {
            pm_->phaseAddNs(phase_, perfNowNs() - t0_);
            pm_ = nullptr;
        }
    }

    PerfScope(const PerfScope &) = delete;
    PerfScope &operator=(const PerfScope &) = delete;

  private:
    PerfMonitor *pm_;
    const char *phase_;
    std::uint64_t t0_;
};

} // namespace mempod
