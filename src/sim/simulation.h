/**
 * @file
 * The top-level simulation driver: builds the memory system, the
 * configured migration manager and the trace frontend over one event
 * queue, runs a trace to completion (including draining in-flight
 * migrations), and returns the measured statistics.
 */
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/decision_log.h"
#include "common/event_queue.h"
#include "common/metrics.h"
#include "common/perf.h"
#include "common/tracer.h"
#include "mem/frontend.h"
#include "mem/manager.h"
#include "mem/memory_system.h"
#include "sim/config.h"
#include "sim/fidelity.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "sim/validate.h"
#include "trace/record.h"
#include "trace/source.h"

namespace mempod {

/**
 * Build the manager `cfg.mechanism` selects, wired to `eq` and `mem`.
 * Panics on a value outside the Mechanism enum.
 */
std::unique_ptr<MemoryManager> buildManager(const SimConfig &cfg,
                                            EventQueue &eq,
                                            MemorySystem &mem);

/** One configured system instance; run one trace through it. */
class Simulation
{
  public:
    explicit Simulation(const SimConfig &config);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /**
     * Replay a record stream to completion and collect statistics.
     * Streaming sources (disk-backed replays) run in O(1) memory; the
     * frontend keeps only a one-record lookahead.
     */
    RunResult run(TraceSource &source,
                  const std::string &workload_name = "");

    /** Convenience: replay an in-memory trace. */
    RunResult run(const Trace &trace,
                  const std::string &workload_name = "");

    EventQueue &eq() { return eq_; }
    MemorySystem &mem() { return *mem_; }
    MemoryManager &manager() { return *manager_; }
    TraceFrontend &frontend() { return *frontend_; }
    const SimConfig &config() const { return config_; }

    /** Every instrument registered by this simulation's components. */
    const MetricRegistry &registry() const { return registry_; }

    /** Snapshot taken after the last run() drained; empty before. */
    const MetricSnapshot &finalSnapshot() const { return finalSnapshot_; }

    /** Interval sampler, or nullptr when statsIntervalPs == 0. */
    const IntervalSampler *sampler() const { return sampler_.get(); }

    /** Event tracer, or nullptr when config.tracer.enabled is false. */
    const Tracer *tracer() const { return tracer_.get(); }

    /** PDES executor, or nullptr when config.shards == 0 (serial). */
    const ParallelExecutor *executor() const { return exec_.get(); }

    /**
     * Migration decision ledger, or nullptr when
     * config.decisionsEnabled is false. Populated entirely from
     * coordinator-domain manager callbacks, so its contents are
     * byte-identical at any jobs/shards setting.
     */
    const DecisionLog *decisionLog() const { return decisions_.get(); }

    /** Invariant checker, or nullptr when validation is disabled. */
    const InvariantChecker *validator() const { return validator_.get(); }

    /**
     * The per-touch fast-vs-slow latency gap (ns) used to price
     * predicted migration benefit: the difference in tRCD+tCL+tBL
     * between the far and near device specs. Exposed for tests.
     */
    static double benefitPerTouchNs(const SimConfig &config);

    /**
     * Host profile of the last run(), or nullptr before the first run
     * or when profiling is disabled. Wall times/RSS here are host
     * facts — everything simulation-visible stays byte-identical
     * whether or not this exists.
     */
    const PerfReport *
    perfReport() const
    {
        return perfReport_ ? &*perfReport_ : nullptr;
    }

    /**
     * The static lookahead a sharded run of `config` synchronizes at:
     * the minimum channel->coordinator completion delay, min over the
     * present tiers of (min(tCL, tCWL) + tBL) plus the interconnect
     * latency. Exposed so tests can pin the derivation.
     */
    static TimePs lookaheadPs(const SimConfig &config);

  private:
    void registerAllMetrics();
    /** Fold every layer's host counters into perfReport_ after run(). */
    void collectPerf(const RunResult &r);

    SimConfig config_;
    EventQueue eq_;
    // The probe owners, attached to eq_ before any component exists.
    std::unique_ptr<PerfMonitor> perf_;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<DecisionLog> decisions_;
    // Declared before mem_: the channels hold references to the
    // executor's per-lane queues, so the executor must be destroyed
    // after the memory system (members destroy in reverse order).
    std::unique_ptr<ParallelExecutor> exec_;
    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<LogicalToPhysical> placement_;
    std::unique_ptr<MemoryManager> manager_;
    std::unique_ptr<TraceFrontend> frontend_;
    std::unique_ptr<InvariantChecker> validator_;
    std::unique_ptr<FidelityController> fidelity_;
    MetricRegistry registry_;
    std::unique_ptr<IntervalSampler> sampler_;
    MetricSnapshot finalSnapshot_;
    std::optional<PerfReport> perfReport_;
};

/** Convenience: build + run in one call. */
RunResult runSimulation(const SimConfig &config, const Trace &trace,
                        const std::string &workload_name = "");
RunResult runSimulation(const SimConfig &config, TraceSource &source,
                        const std::string &workload_name = "");

} // namespace mempod
