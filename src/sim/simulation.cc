#include "sim/simulation.h"

#include <algorithm>

#include "baselines/cameo.h"
#include "baselines/hma.h"
#include "baselines/no_migration.h"
#include "baselines/thm.h"
#include "common/log.h"
#include "core/mempod_manager.h"

namespace mempod {

std::unique_ptr<MemoryManager>
buildManager(const SimConfig &cfg, EventQueue &eq, MemorySystem &mem)
{
    switch (cfg.mechanism) {
      case Mechanism::kNoMigration:
        return std::make_unique<NoMigrationManager>(mem);
      case Mechanism::kMemPod:
        return std::make_unique<MemPodManager>(eq, mem, cfg.mempod);
      case Mechanism::kHma:
        return std::make_unique<HmaManager>(eq, mem, cfg.hma);
      case Mechanism::kThm:
        return std::make_unique<ThmManager>(eq, mem, cfg.thm);
      case Mechanism::kCameo:
        return std::make_unique<CameoManager>(eq, mem, cfg.cameo);
    }
    MEMPOD_PANIC("unknown mechanism %d", static_cast<int>(cfg.mechanism));
}

TimePs
Simulation::lookaheadPs(const SimConfig &config)
{
    const auto tier_min = [](const DramSpec &s) {
        return std::min(s.timing.tCL, s.timing.tCWL) + s.timing.tBL;
    };
    TimePs l = tier_min(config.near);
    if (config.geom.slowChannels > 0)
        l = std::min(l, tier_min(config.far));
    return l + config.extraLatencyPs;
}

double
Simulation::benefitPerTouchNs(const SimConfig &config)
{
    const auto access_ps = [](const DramSpec &s) {
        return static_cast<double>(s.timing.tRCD + s.timing.tCL +
                                   s.timing.tBL);
    };
    return (access_ps(config.far) - access_ps(config.near)) / 1000.0;
}

Simulation::Simulation(const SimConfig &config) : config_(config)
{
    if (config_.perfEnabled)
        perf_ = std::make_unique<PerfMonitor>();
    PerfScope setup_scope(perf_.get(), "setup");

    config_.validate();
    config_.geom.validate();
    if (config_.sampling.enabled && config_.shards > 0) {
        MEMPOD_PANIC(
            "sampled simulation requires the serial kernel "
            "(sim.shards=0): its functional fast-forward completions "
            "run frontend and manager code synchronously inside the "
            "channel lane");
    }
    if (config_.tracer.enabled)
        tracer_ = std::make_unique<Tracer>(config_.tracer);
    // Decision epochs use the MemPod interval uniformly, so ledgers
    // from different mechanisms line up when compared.
    const TimePs epoch_ps = config_.mempod.interval;
    if (config_.decisionsEnabled) {
        decisions_ = std::make_unique<DecisionLog>(
            epoch_ps, benefitPerTouchNs(config_));
    }
    // The one attach point: every component built below reads its
    // probes through this queue (a sharded executor re-points the
    // coordinator's tracer at a staging buffer in its constructor).
    eq_.attach({tracer_.get(), decisions_.get(), perf_.get()});

    if (config_.shards > 0) {
        const std::size_t channels =
            config_.geom.fastChannels + config_.geom.slowChannels;
        exec_ = std::make_unique<ParallelExecutor>(
            eq_, channels, config_.shards, lookaheadPs(config_),
            config_.statsIntervalPs);
    }
    ShardPlan plan;
    if (exec_) {
        plan.channelQueues = exec_->channelQueues();
        plan.dispatch = [ex = exec_.get()](std::size_t ch, Request req,
                                           ChannelAddr where) {
            ex->dispatch(ch, req, where);
        };
    }
    mem_ = std::make_unique<MemorySystem>(
        eq_, config_.geom, config_.near, config_.far,
        config_.extraLatencyPs, config_.controller,
        exec_ ? &plan : nullptr, config_.dramModel,
        config_.sampling.enabled);
    if (exec_)
        exec_->bindChannels(*mem_);
    placement_ = std::make_unique<LogicalToPhysical>(
        config_.geom.totalPages(), config_.numCores,
        config_.placementSeed);

    manager_ = buildManager(config_, eq_, *mem_);

    frontend_ = std::make_unique<TraceFrontend>(
        eq_, *manager_, *placement_, config_.maxOutstanding);

    // Mechanisms whose bookkeeping pauses the cores (HMA's epoch sort)
    // override the hook; for everyone else this is a no-op.
    manager_->setCoreStallHook(
        [this](TimePs duration) { frontend_->suspendCores(duration); });

    if (config_.validateEnabled) {
        validator_ = std::make_unique<InvariantChecker>(
            config_, *frontend_, *mem_, *manager_, decisions_.get(),
            epoch_ps);
    }
    if (config_.sampling.enabled) {
        fidelity_ = std::make_unique<FidelityController>(
            eq_, *mem_, *frontend_, config_.sampling);
    }

    registerAllMetrics();
}

void
Simulation::registerAllMetrics()
{
    registry_.addCounterFn("sim.events_executed",
                           "events executed by the queue",
                           [this] {
                               return exec_ ? exec_->totalExecuted()
                                            : eq_.executed();
                           });
    mem_->registerMetrics(registry_);
    manager_->registerMetrics(registry_);
    frontend_->registerMetrics(registry_, config_.numCores);
    if (config_.statsIntervalPs > 0) {
        sampler_ = std::make_unique<IntervalSampler>(
            eq_, registry_, config_.statsIntervalPs);
    }
}

Simulation::~Simulation() = default;

RunResult
Simulation::run(const Trace &trace, const std::string &workload_name)
{
    VectorTraceSource source(trace);
    return run(source, workload_name);
}

RunResult
Simulation::run(TraceSource &source, const std::string &workload_name)
{
    PerfScope run_scope(perf_.get(), "run");
    const std::uint64_t trace_records = source.size();
    frontend_->setSource(source);
    manager_->start();
    frontend_->start();
    if (sampler_)
        sampler_->start();
    if (fidelity_)
        fidelity_->begin();

    auto drained = [&] {
        return frontend_->done() && mem_->inFlight() == 0 &&
               manager_->pendingWork() == 0;
    };
    // Heartbeat progress lines (stderr; stdout stays byte-identical):
    // a cheap countdown amortizes the wall-clock reads, then the
    // monitor rate-limits actual printing to one line per 5 s.
    constexpr std::uint64_t kHeartbeatStride = 4096;
    std::uint64_t hb_countdown = kHeartbeatStride;
    const auto heartbeat = [&] {
        if (!perf_) // disabled: one branch per progress check
            return;
        if (--hb_countdown != 0)
            return;
        hb_countdown = kHeartbeatStride;
        if (!perf_->heartbeatDue(5'000'000'000ull))
            return;
        const double wall =
            static_cast<double>(perfNowNs() - perf_->startNs()) / 1e9;
        const std::uint64_t events =
            exec_ ? exec_->totalExecuted() : eq_.executed();
        const std::uint64_t done_n = frontend_->completed();
        const double frac =
            trace_records ? static_cast<double>(done_n) /
                                static_cast<double>(trace_records)
                          : 0.0;
        const double sim_ms = static_cast<double>(eq_.now()) / 1e9;
        std::fprintf(
            stderr,
            "[perf]%s%s sim %.3f ms | %llu/%llu demands | %.2f M ev/s | "
            "%.2f ms sim/s | ETA %.0f s\n",
            workload_name.empty() ? "" : " ",
            workload_name.c_str(), sim_ms,
            static_cast<unsigned long long>(done_n),
            static_cast<unsigned long long>(trace_records),
            wall > 0 ? static_cast<double>(events) / wall / 1e6 : 0.0,
            wall > 0 ? sim_ms / wall : 0.0,
            frac > 0.0 ? wall * (1.0 - frac) / frac : 0.0);
        std::fflush(stderr);
    };
    // Watchdog: recurring timers keep the queue non-empty forever, so
    // a stuck drain would otherwise spin silently. One simulated
    // second with work outstanding and no demand completed or admitted
    // is a bug; with nothing outstanding the trace is only idle
    // between records.
    std::uint64_t last_progress = 0;
    std::uint64_t last_issued = 0;
    TimePs progress_at = 0;
    // Kept out of line: inlined, it made check_progress too large to
    // inline into the per-event loops.
    const auto window_expired = [&]() __attribute__((noinline, cold)) {
        const bool busy = frontend_->outstanding() != 0 ||
                          mem_->inFlight() != 0 ||
                          manager_->pendingWork() != 0;
        if (busy && frontend_->issued() == last_issued)
            MEMPOD_PANIC("simulation livelock: no progress for 1 s of "
                         "simulated time (pending=%llu)",
                         static_cast<unsigned long long>(
                             manager_->pendingWork()));
        last_issued = frontend_->issued();
        progress_at = eq_.now();
    };
    const auto check_progress = [&] {
        // Timer self-rescheduling executes events without advancing
        // the workload; only demand completions count as progress, and
        // admissions once the window has expired.
        const std::uint64_t progress = frontend_->completed();
        if (progress != last_progress || progress_at == 0) {
            last_progress = progress;
            progress_at = eq_.now();
        } else if (eq_.now() > progress_at + 1'000'000'000'000ull) {
            window_expired();
        }
        // Read-only conservation checks, self-rate-limited to one pass
        // per epoch of *simulated* time — the serial and sharded loops
        // call at different real cadences, but a read-and-panic probe
        // cannot perturb any output either way.
        if (validator_)
            validator_->periodicCheck(eq_.now());
        heartbeat();
    };
    const auto panic_deadlock = [&] {
        MEMPOD_PANIC(
            "simulation deadlock: frontend done=%d inflight=%llu "
            "managerPending=%llu",
            frontend_->done() ? 1 : 0,
            static_cast<unsigned long long>(mem_->inFlight()),
            static_cast<unsigned long long>(manager_->pendingWork()));
    };
    if (exec_) {
        exec_->setDrained(drained);
        for (;;) {
            const ParallelExecutor::Step step = exec_->runWindow();
            if (step == ParallelExecutor::Step::kFinished)
                break;
            if (step == ParallelExecutor::Step::kIdle)
                panic_deadlock();
            check_progress();
        }
        if (tracer_)
            exec_->absorbTraces(*tracer_);
    } else {
        while (!drained()) {
            if (!eq_.runOne())
                panic_deadlock();
            check_progress();
        }
    }

    if (sampler_)
        sampler_->finalize(eq_.now());
    finalSnapshot_ = registry_.snapshot(eq_.now());
    // "run" ends when the queue drains; derivation below is "report".
    run_scope.close();
    PerfScope report_scope(perf_.get(), "report");

    // The RunResult is *derived from the snapshot* so the registry
    // export and the printed tables can never disagree. Every gauge
    // below reads the exact function the old direct path called, so
    // the derivation is bit-identical.
    const MetricSnapshot &s = finalSnapshot_;
    RunResult r;
    r.workload = workload_name;
    r.mechanism = manager_->name();
    r.ammatNs = s.real("frontend.ammat_ps") / 1000.0;
    r.demandRequests = trace_records;
    r.completed = s.u64("frontend.completed");
    const std::uint64_t demand_fast = s.u64("mem.demand_fast");
    const std::uint64_t demand_total =
        demand_fast + s.u64("mem.demand_slow");
    r.fastServiceFraction =
        demand_total
            ? static_cast<double>(demand_fast) / demand_total
            : 0.0;
    r.rowHitRate = s.real("mem.row_hit_rate");
    r.rowHitRateFast = s.real("mem.fast.row_hit_rate");
    r.simulatedPs = s.simTimePs;
    r.eventsExecuted = s.u64("sim.events_executed");
    r.migration.migrations = s.u64("migration.migrations");
    r.migration.bytesMoved = s.u64("migration.bytes_moved");
    r.migration.blockedRequests = s.u64("migration.blocked_requests");
    r.migration.intervals = s.u64("migration.intervals");
    r.migration.candidatesSkipped = s.u64("migration.candidates_skipped");
    r.migration.wastedMigrations = s.u64("migration.wasted");
    r.migration.metaCacheHits = s.u64("migration.meta_cache_hits");
    r.migration.metaCacheMisses = s.u64("migration.meta_cache_misses");
    r.migration.blockedPs = s.u64("migration.blocked_ps");
    r.migration.metadataPs = s.u64("migration.metadata_ps");
    r.memStats.demandFast = demand_fast;
    r.memStats.demandSlow = s.u64("mem.demand_slow");
    r.memStats.migrationFast = s.u64("mem.migration_fast");
    r.memStats.migrationSlow = s.u64("mem.migration_slow");
    r.memStats.bookkeepingFast = s.u64("mem.bookkeeping_fast");
    r.memStats.bookkeepingSlow = s.u64("mem.bookkeeping_slow");
    r.podLocalMigrations = config_.mechanism == Mechanism::kMemPod;

    // AMMAT attribution: the per-stage picosecond sums partition every
    // completed demand's arrival-to-finish interval, so dividing by the
    // AMMAT denominator (the trace length) makes them sum to ammatNs.
    if (trace_records != 0) {
        const double denom =
            static_cast<double>(trace_records) * 1000.0; // ps -> ns
        r.attribution.mshrWaitNs =
            static_cast<double>(s.u64("frontend.mshr_wait_ps")) / denom;
        r.attribution.metadataNs =
            static_cast<double>(s.u64("migration.metadata_ps")) / denom;
        r.attribution.blockedNs =
            static_cast<double>(s.u64("migration.blocked_ps")) / denom;
        r.attribution.queueWaitNs =
            static_cast<double>(s.u64("mem.demand_queue_wait_ps")) /
            denom;
        r.attribution.serviceNs =
            static_cast<double>(s.u64("mem.demand_service_ps")) / denom;
    }
    r.latency.p50Ns = s.real("frontend.latency_p50_ns");
    r.latency.p95Ns = s.real("frontend.latency_p95_ns");
    r.latency.p99Ns = s.real("frontend.latency_p99_ns");

    if (fidelity_) {
        fidelity_->finish();
        const WindowStats &w = fidelity_->windowStats();
        r.sampled = true;
        r.sampledAmmatNs = w.mean() / 1000.0;
        r.sampledCiNs = w.ciHalfWidth() / 1000.0;
        r.sampleWindows = w.count();
    }

    // Per-core metrics are registered for [0, numCores), and the
    // placement rejects any trace core outside that range.
    const std::size_t cores_seen = frontend_->coresSeen();
    for (std::size_t c = 0; c < cores_seen; ++c) {
        const std::string cp = "core" + std::to_string(c);
        r.perCoreAmmatNs.push_back(s.real(cp + ".ammat_ps") / 1000.0);
        LatencyPercentiles lp;
        lp.p50Ns = s.real(cp + ".latency_p50_ns");
        lp.p95Ns = s.real(cp + ".latency_p95_ns");
        lp.p99Ns = s.real(cp + ".latency_p99_ns");
        r.perCoreLatency.push_back(lp);
    }

    // End-of-run audit over the fully assembled result (includes the
    // paranoid-depth mechanism scan, which walks only migrated state).
    if (validator_)
        validator_->finalCheck(r);

    report_scope.close();
    collectPerf(r);
    return r;
}

void
Simulation::collectPerf(const RunResult &r)
{
    if (!perf_)
        return;
    PerfMonitor &pm = *perf_;

    // Event-kernel occupancy over the coordinator and (when sharded)
    // every lane queue: a deterministic sim-side count.
    pm.counterMax("eq.peak_pending", eq_.peakPending());
    if (exec_) {
        for (std::size_t i = 0; i < exec_->numLanes(); ++i)
            pm.counterMax("eq.peak_pending",
                          exec_->channelQueue(i).peakPending());
        const std::vector<std::uint64_t> dom = exec_->perDomainExecuted();
        for (std::size_t d = 0; d < dom.size(); ++d)
            pm.counterAdd("eq.domain" + std::to_string(d) + ".executed",
                          dom[d]);
    } else {
        pm.counterAdd("eq.domain0.executed", eq_.executed());
    }
    // FR-FCFS arbiter density across every channel controller.
    std::uint64_t ticks = 0, arb = 0, issued = 0, work_banks = 0;
    for (std::size_t ch = 0; ch < mem_->numChannels(); ++ch) {
        const Channel::HostStats &h = mem_->channel(ch).hostStats();
        ticks += h.ticks;
        arb += h.arbPasses;
        issued += h.issued;
        work_banks += h.workBanks;
    }
    pm.counterAdd("channel.ticks", ticks);
    pm.counterAdd("channel.arb_passes", arb);
    pm.counterAdd("channel.issued", issued);
    pm.gaugeSet("channel.work_bank_density",
                arb ? static_cast<double>(work_banks) /
                          static_cast<double>(arb)
                    : 0.0);

    // Executor health: shard event ledger, horizon near-miss, and the
    // work-imbalance ratio (busiest shard / mean).
    if (exec_) {
        std::uint64_t max_ev = 0, sum_ev = 0;
        for (unsigned s = 0; s < exec_->shards(); ++s) {
            const std::uint64_t ev = exec_->perShardExecuted(s);
            pm.shard(s).events = ev;
            max_ev = std::max(max_ev, ev);
            sum_ev += ev;
        }
        const double mean =
            static_cast<double>(sum_ev) /
            static_cast<double>(std::max(1u, exec_->shards()));
        pm.gaugeSet("exec.work_imbalance",
                    mean > 0 ? static_cast<double>(max_ev) / mean : 0.0);
        const std::uint64_t slack = exec_->minHorizonSlackPs();
        pm.gaugeSet("exec.horizon_min_slack_ps",
                    slack == ~std::uint64_t{0}
                        ? 0.0
                        : static_cast<double>(slack));
        pm.counterAdd("exec.sampler_syncs", exec_->samplerSyncs());
    }

    perfReport_ = pm.report(r.simulatedPs, r.eventsExecuted);
    perfReport_->windows = exec_ ? exec_->windows() : 0;
}

RunResult
runSimulation(const SimConfig &config, const Trace &trace,
              const std::string &workload_name)
{
    Simulation sim(config);
    return sim.run(trace, workload_name);
}

RunResult
runSimulation(const SimConfig &config, TraceSource &source,
              const std::string &workload_name)
{
    Simulation sim(config);
    return sim.run(source, workload_name);
}

} // namespace mempod
