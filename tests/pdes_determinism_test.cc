/**
 * @file
 * Determinism proof for the conservative PDES executor: the sharded
 * kernel must be *byte-identical* to the serial one — every metric,
 * every sampler interval, every trace record — at every shard count.
 * The tests sweep randomized seeds, mechanisms and shard counts and
 * compare full MetricSnapshots (not headline numbers), so any
 * divergence names the exact metric that moved.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sim/runner.h"
#include "sim/simulation.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

constexpr std::uint64_t kRequests = 6000;
constexpr unsigned kShardCounts[] = {1, 2, 4, 8};

Trace
makeTrace(const char *workload, std::uint64_t seed)
{
    GeneratorConfig gc;
    gc.totalRequests = kRequests;
    gc.seed = seed;
    return WorkloadCatalog::global().build(workload, gc);
}

/** Run one config at one shard count; returns the final snapshot. */
struct RunCapture
{
    RunResult result;
    MetricSnapshot snapshot;
    std::string traceJson;
    std::vector<IntervalRecord> intervals;
};

RunCapture
runAt(SimConfig cfg, const Trace &trace, unsigned shards)
{
    cfg.shards = shards;
    Simulation sim(cfg);
    RunCapture cap;
    cap.result = sim.run(trace, "determinism");
    cap.snapshot = sim.finalSnapshot();
    if (sim.tracer())
        cap.traceJson = sim.tracer()->toJson();
    if (sim.sampler())
        cap.intervals = sim.sampler()->records();
    return cap;
}

void
expectSnapshotsEqual(const MetricSnapshot &serial,
                     const MetricSnapshot &sharded,
                     const std::string &label)
{
    EXPECT_EQ(serial.simTimePs, sharded.simTimePs) << label;
    ASSERT_EQ(serial.values.size(), sharded.values.size()) << label;
    auto a = serial.values.begin();
    auto b = sharded.values.begin();
    for (; a != serial.values.end(); ++a, ++b) {
        ASSERT_EQ(a->first, b->first) << label;
        const std::string at = label + " metric " + a->first;
        const MetricValue &va = a->second;
        const MetricValue &vb = b->second;
        EXPECT_EQ(va.count, vb.count) << at;
        // Exact double equality on purpose: both runs derive gauges
        // from identical integer state with identical arithmetic.
        EXPECT_EQ(va.real, vb.real) << at;
        EXPECT_EQ(va.buckets, vb.buckets) << at;
    }
}

struct Scenario
{
    const char *label;
    Mechanism mechanism;
    const char *workload;
    std::uint64_t seed;
    TimePs statsIntervalPs; //!< 0 = no sampler (no boundary steps)
};

// Mechanism x workload x seed spread; CAMEO is the line-granularity
// stressor (most events, most cross-domain traffic), MemPod exercises
// pods + interval timers, HMA exercises the core-stall hook.
const Scenario kScenarios[] = {
    {"mempod-mix5-s7", Mechanism::kMemPod, "mix5", 7, 0},
    {"mempod-lbm-s99", Mechanism::kMemPod, "lbm", 99, 50'000'000},
    {"cameo-mix5-s1234", Mechanism::kCameo, "mix5", 1234, 0},
    {"cameo-mcf-s5", Mechanism::kCameo, "mcf", 5, 25'000'000},
    {"hma-mix5-s21", Mechanism::kHma, "mix5", 21, 0},
    {"nomigration-zeusmp-s3", Mechanism::kNoMigration, "zeusmp", 3, 0},
};

SimConfig
scenarioConfig(const Scenario &s)
{
    SimConfig cfg = SimConfig::paper(s.mechanism);
    if (s.mechanism == Mechanism::kHma)
        cfg.scaleHmaEpoch(4.0);
    cfg.statsIntervalPs = s.statsIntervalPs;
    return cfg;
}

TEST(PdesDeterminism, SnapshotsIdenticalAcrossShardCounts)
{
    for (const Scenario &s : kScenarios) {
        const Trace trace = makeTrace(s.workload, s.seed);
        const SimConfig cfg = scenarioConfig(s);
        const RunCapture serial = runAt(cfg, trace, 0);
        ASSERT_EQ(serial.result.completed, kRequests) << s.label;
        for (unsigned shards : kShardCounts) {
            const RunCapture sharded = runAt(cfg, trace, shards);
            expectSnapshotsEqual(serial.snapshot, sharded.snapshot,
                                 std::string(s.label) + " shards=" +
                                     std::to_string(shards));
        }
    }
}

TEST(PdesDeterminism, SamplerIntervalsIdentical)
{
    // Boundary steps serialize sampler instants; every interval delta
    // must match the serial sampler's, not just the final totals.
    const Scenario s = {"mempod-mix5-sampled", Mechanism::kMemPod,
                        "mix5", 11, 10'000'000};
    const Trace trace = makeTrace(s.workload, s.seed);
    const SimConfig cfg = scenarioConfig(s);
    const RunCapture serial = runAt(cfg, trace, 0);
    ASSERT_GT(serial.intervals.size(), 3u)
        << "scenario too short to exercise boundary steps";
    for (unsigned shards : kShardCounts) {
        const RunCapture sharded = runAt(cfg, trace, shards);
        const std::string label =
            std::string(s.label) + " shards=" + std::to_string(shards);
        ASSERT_EQ(serial.intervals.size(), sharded.intervals.size())
            << label;
        for (std::size_t i = 0; i < serial.intervals.size(); ++i) {
            const IntervalRecord &ia = serial.intervals[i];
            const IntervalRecord &ib = sharded.intervals[i];
            const std::string il =
                label + " interval " + std::to_string(i);
            EXPECT_EQ(ia.index, ib.index) << il;
            EXPECT_EQ(ia.startPs, ib.startPs) << il;
            EXPECT_EQ(ia.endPs, ib.endPs) << il;
            expectSnapshotsEqual(ia.delta, ib.delta, il);
        }
    }
}

TEST(PdesDeterminism, TraceBytesIdentical)
{
    // The strongest oracle: the rendered Chrome-trace JSON, which
    // bakes in record order, track-id interning order and flow ids.
    SimConfig cfg = SimConfig::paper(Mechanism::kMemPod);
    cfg.tracer.enabled = true;
    cfg.tracer.sampleEvery = 4;
    cfg.tracer.seed = 7;
    const Trace trace = makeTrace("mix5", 7);
    const RunCapture serial = runAt(cfg, trace, 0);
    ASSERT_FALSE(serial.traceJson.empty());
    for (unsigned shards : {1u, 4u}) {
        const RunCapture sharded = runAt(cfg, trace, shards);
        EXPECT_EQ(serial.traceJson, sharded.traceJson)
            << "trace bytes diverge at shards=" << shards;
    }
}

TEST(PdesDeterminism, PerfMonitorDoesNotPerturbOutput)
{
    // The host profiler reads wall clocks, but its numbers must never
    // flow back into simulated state: with tracing and the sampler
    // both on, a perf-enabled run must reproduce a perf-disabled run
    // byte for byte — serialized result, every snapshot metric, the
    // rendered trace JSON and every sampler interval — at any shard
    // count.
    SimConfig cfg = SimConfig::paper(Mechanism::kMemPod);
    cfg.tracer.enabled = true;
    cfg.tracer.sampleEvery = 4;
    cfg.tracer.seed = 7;
    cfg.statsIntervalPs = 25'000'000;
    const Trace trace = makeTrace("mix5", 7);
    for (unsigned shards : {0u, 4u}) {
        const RunCapture off = runAt(cfg, trace, shards);
        SimConfig on_cfg = cfg;
        on_cfg.perfEnabled = true;
        const RunCapture on = runAt(on_cfg, trace, shards);
        const std::string label =
            "perf on/off shards=" + std::to_string(shards);
        EXPECT_EQ(serializeRunResult(off.result),
                  serializeRunResult(on.result))
            << label;
        expectSnapshotsEqual(off.snapshot, on.snapshot, label);
        EXPECT_EQ(off.traceJson, on.traceJson) << label;
        ASSERT_EQ(off.intervals.size(), on.intervals.size()) << label;
        for (std::size_t i = 0; i < off.intervals.size(); ++i) {
            EXPECT_EQ(off.intervals[i].startPs, on.intervals[i].startPs);
            EXPECT_EQ(off.intervals[i].endPs, on.intervals[i].endPs);
            expectSnapshotsEqual(off.intervals[i].delta,
                                 on.intervals[i].delta,
                                 label + " interval " +
                                     std::to_string(i));
        }
    }
}

TEST(PdesDeterminism, SetupParkIsNotShardStall)
{
    // Workers start parked inside the constructor; time spent before
    // run() is setup, so no shard may account more than the run phase.
    SimConfig cfg = SimConfig::paper(Mechanism::kMemPod);
    cfg.shards = 2;
    cfg.perfEnabled = true;
    Simulation sim(cfg);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    sim.run(makeTrace("mix5", 7), "setup-park");
    const PerfReport *rep = sim.perfReport();
    ASSERT_NE(rep, nullptr);
    std::uint64_t run_ns = 0;
    for (const auto &[phase, ns] : rep->phasesNs)
        if (phase == "run")
            run_ns = ns;
    ASSERT_GT(run_ns, 0u);
    ASSERT_EQ(rep->shards.size(), 2u);
    constexpr std::uint64_t kSlackNs = 20'000'000;
    for (std::size_t s = 0; s < rep->shards.size(); ++s)
        EXPECT_LE(rep->shards[s].stallNs + rep->shards[s].busyNs,
                  run_ns + kSlackNs)
            << "shard " << s;
}

TEST(PdesDeterminism, ExecutorWorkPartition)
{
    // The host is allowed to be 1-core, so speedup is asserted by
    // work distribution, not wall clock: every shard must own a
    // non-trivial share of the channel events, and the executed-event
    // ledger must reconcile exactly with the serial kernel's count.
    const Trace trace = makeTrace("mix5", 7);
    SimConfig cfg = SimConfig::paper(Mechanism::kMemPod);
    const RunCapture serial = runAt(cfg, trace, 0);

    cfg.shards = 4;
    Simulation sim(cfg);
    const RunResult r = sim.run(trace, "partition");
    const ParallelExecutor *ex = sim.executor();
    ASSERT_NE(ex, nullptr);
    EXPECT_EQ(ex->shards(), 4u);
    EXPECT_EQ(r.eventsExecuted, serial.result.eventsExecuted);
    EXPECT_EQ(ex->totalExecuted(), serial.result.eventsExecuted);
    EXPECT_GT(ex->windows(), 0u);

    const std::vector<std::uint64_t> byDomain = ex->perDomainExecuted();
    ASSERT_EQ(byDomain.size(), 1 + ex->numLanes());
    std::uint64_t sum = 0;
    for (std::uint64_t n : byDomain)
        sum += n;
    EXPECT_EQ(sum, ex->totalExecuted());

    std::uint64_t shard_sum = 0;
    const std::uint64_t channel_events =
        ex->totalExecuted() - byDomain[0];
    for (unsigned s = 0; s < ex->shards(); ++s) {
        const std::uint64_t n = ex->perShardExecuted(s);
        shard_sum += n;
        // Round-robin lane placement across a symmetric channel set:
        // every worker gets a real share (>= half of fair share here).
        EXPECT_GT(n, channel_events / 8) << "shard " << s;
    }
    EXPECT_EQ(shard_sum, channel_events);
}

TEST(PdesDeterminism, ShardCountClampsToChannels)
{
    const Trace trace = makeTrace("mix5", 7);
    SimConfig cfg = SimConfig::paper(Mechanism::kNoMigration);
    const RunCapture serial = runAt(cfg, trace, 0);
    const std::size_t channels =
        cfg.geom.fastChannels + cfg.geom.slowChannels;

    cfg.shards = 64; // far beyond the channel count
    Simulation sim(cfg);
    const RunResult r = sim.run(trace, "clamp");
    ASSERT_NE(sim.executor(), nullptr);
    EXPECT_EQ(sim.executor()->shards(), channels);
    EXPECT_EQ(r.eventsExecuted, serial.result.eventsExecuted);
}

} // namespace
} // namespace mempod
