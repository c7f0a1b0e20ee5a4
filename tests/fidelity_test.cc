/**
 * @file
 * Sampled-simulation tests: pinned WindowStats confidence-interval
 * math, death tests for degenerate sampling configurations,
 * fidelity-independent trace sampling (record-index keyed, so the
 * traced demand set is identical under detailed, fast and sampled
 * runs, including time-scaled replays), refresh re-phasing on
 * fidelity switch-in, FastChannel service/bandwidth behaviour, and a
 * sampled-vs-detailed accuracy smoke.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "common/event_queue.h"
#include "completion_fns.h"
#include "dram/channel.h"
#include "dram/fast_channel.h"
#include "sim/fidelity.h"
#include "sim/simulation.h"
#include "trace/catalog.h"
#include "trace/source.h"

namespace mempod {
namespace {

// ---------------------------------------------------------------
// WindowStats: pinned estimator math (satellite: CI-math tests).
// ---------------------------------------------------------------

TEST(WindowStats, PinnedMeanVarianceCi)
{
    WindowStats w;
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
        w.add(x);
    EXPECT_EQ(w.count(), 5u);
    EXPECT_DOUBLE_EQ(w.mean(), 3.0);
    EXPECT_DOUBLE_EQ(w.variance(), 2.5);
    // Half-width = t(4) * s / sqrt(n) = 2.776 * sqrt(2.5 / 5).
    EXPECT_NEAR(w.ciHalfWidth(), 2.776 * std::sqrt(0.5), 1e-12);
}

TEST(WindowStats, DegenerateCountsHaveZeroSpread)
{
    WindowStats w;
    EXPECT_EQ(w.count(), 0u);
    EXPECT_DOUBLE_EQ(w.variance(), 0.0);
    EXPECT_DOUBLE_EQ(w.ciHalfWidth(), 0.0);
    w.add(42.0);
    EXPECT_DOUBLE_EQ(w.mean(), 42.0);
    EXPECT_DOUBLE_EQ(w.variance(), 0.0);
    EXPECT_DOUBLE_EQ(w.ciHalfWidth(), 0.0);
}

TEST(WindowStats, TCriticalValuesArePinned)
{
    EXPECT_DOUBLE_EQ(WindowStats::tCritical95(0), 0.0);
    EXPECT_DOUBLE_EQ(WindowStats::tCritical95(1), 12.706);
    EXPECT_DOUBLE_EQ(WindowStats::tCritical95(2), 4.303);
    EXPECT_DOUBLE_EQ(WindowStats::tCritical95(4), 2.776);
    EXPECT_DOUBLE_EQ(WindowStats::tCritical95(30), 2.042);
    // Beyond the table the normal approximation takes over.
    EXPECT_DOUBLE_EQ(WindowStats::tCritical95(31), 1.96);
    EXPECT_DOUBLE_EQ(WindowStats::tCritical95(1000), 1.96);
}

// ---------------------------------------------------------------
// Degenerate configurations die loudly instead of mis-measuring.
// ---------------------------------------------------------------

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
tinyTrace(std::uint64_t requests = 40000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015;
    return WorkloadCatalog::global().build("xalanc", gc);
}

TEST(FidelityDeath, ZeroMeasureWindowPanics)
{
    SimConfig c = tinyConfig(Mechanism::kMemPod);
    c.sampling.enabled = true;
    c.sampling.measurePs = 0;
    EXPECT_DEATH(Simulation sim(c), "config key "
                                    "'sim.sampling.measure_ps': value 0 "
                                    "out of range");
}

TEST(FidelityDeath, WarmupPctAboveNinetyNinePanics)
{
    SimConfig c = tinyConfig(Mechanism::kMemPod);
    c.sampling.enabled = true;
    c.sampling.warmupPct = 100;
    EXPECT_DEATH(Simulation sim(c), "warmup_pct must be in");
}

TEST(FidelityDeath, FunctionalMeasurementModelPanics)
{
    // The warm model observes no stall time, so dram.model has no
    // spelling for it: the value is rejected where it is set.
    SimConfig c = tinyConfig(Mechanism::kMemPod);
    EXPECT_DEATH(c.set("dram.model", "functional"),
                 "unknown memory model 'functional'");
}

TEST(FidelityDeath, FunctionalWarmModelRequiresSerialKernel)
{
    SimConfig c = tinyConfig(Mechanism::kMemPod);
    c.sampling.enabled = true;
    c.shards = 2;
    EXPECT_DEATH(Simulation sim(c), "serial kernel");
}

TEST(FidelityDeath, TooFewWindowsPanicsAtFinish)
{
    SimConfig c = tinyConfig(Mechanism::kMemPod);
    c.sampling.enabled = true;
    // A fast-forward window longer than the whole trace: zero
    // measurement windows ever complete.
    c.sampling.fastfwdPs = 1'000'000'000'000;
    const Trace t = tinyTrace(4000);
    EXPECT_DEATH(
        {
            Simulation sim(c);
            sim.run(t, "xalanc");
        },
        "measurement windows");
}

// ---------------------------------------------------------------
// Trace sampling is record-index keyed: the set of traced demands
// is a pure function of the record stream, not of fidelity.
// ---------------------------------------------------------------

/** Ids of "demand" async-begin spans in a tracer JSON dump. */
std::set<std::uint64_t>
tracedDemandIds(const std::string &json)
{
    std::set<std::uint64_t> ids;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"name\":\"demand\",\"ph\":\"b\"") ==
                std::string::npos ||
            line.find("\"cat\":\"req\"") == std::string::npos)
            continue;
        const std::size_t p = line.find("\"id\":\"");
        if (p == std::string::npos) {
            ADD_FAILURE() << "demand span without id: " << line;
            continue;
        }
        ids.insert(std::strtoull(line.c_str() + p + 6, nullptr, 10));
    }
    return ids;
}

std::set<std::uint64_t>
runAndCollectIds(SimConfig c, TraceSource &src)
{
    c.tracer.enabled = true;
    c.tracer.sampleEvery = 8;
    c.tracer.seed = 42;
    Simulation sim(c);
    sim.run(src, "xalanc");
    const Tracer *tr = sim.tracer();
    EXPECT_NE(tr, nullptr);
    std::set<std::uint64_t> ids;
    tracedDemandIds(tr->toJson()).swap(ids);
    return ids;
}

TEST(TraceSamplingFidelity, SameDemandsAcrossFidelities)
{
    const Trace t = tinyTrace();
    const SimConfig base = tinyConfig(Mechanism::kMemPod);

    VectorTraceSource detailedSrc(t);
    const std::set<std::uint64_t> detailed =
        runAndCollectIds(base, detailedSrc);
    ASSERT_FALSE(detailed.empty());

    SimConfig fast = base;
    fast.dramModel = DramModel::kFast;
    VectorTraceSource fastSrc(t);
    EXPECT_EQ(runAndCollectIds(fast, fastSrc), detailed);

    SimConfig sampled = base;
    sampled.sampling.enabled = true;
    sampled.sampling.measurePs = 10_us;
    sampled.sampling.fastfwdPs = 23_us;
    sampled.sampling.minWindows = 1;
    VectorTraceSource sampledSrc(t);
    EXPECT_EQ(runAndCollectIds(sampled, sampledSrc), detailed);
}

TEST(TraceSamplingFidelity, ScaledReplayKeepsTheSameDemandSet)
{
    // Time-scaling a replay changes every timestamp but no record
    // index, so the traced set must match the unscaled run's — under
    // every fidelity.
    const Trace t = tinyTrace();
    const SimConfig base = tinyConfig(Mechanism::kMemPod);

    VectorTraceSource plain(t);
    const std::set<std::uint64_t> unscaled =
        runAndCollectIds(base, plain);
    ASSERT_FALSE(unscaled.empty());

    ScaledTraceSource slow(std::make_unique<VectorTraceSource>(t), 2.0,
                           "xalanc");
    EXPECT_EQ(runAndCollectIds(base, slow), unscaled);

    SimConfig sampled = base;
    sampled.sampling.enabled = true;
    sampled.sampling.measurePs = 10_us;
    sampled.sampling.fastfwdPs = 23_us;
    sampled.sampling.minWindows = 1;
    ScaledTraceSource slowAgain(std::make_unique<VectorTraceSource>(t),
                                2.0, "xalanc");
    EXPECT_EQ(runAndCollectIds(sampled, slowAgain), unscaled);
}

// ---------------------------------------------------------------
// Fidelity switch-in forgives refresh debt (resumeAt).
// ---------------------------------------------------------------

TEST(ResumeAt, SkipsMissedRefreshesButStillCountsThem)
{
    EventQueue eq;
    const DramSpec spec = DramSpec::hbm1GHz().withChannelBytes(2_MiB);
    Channel ch(eq, spec, "test", 5000);
    const std::uint64_t before = ch.stats().refreshes;

    // Pretend the channel sat inactive for ten refresh intervals.
    const TimePs idleEnd = eq.now() + 10 * spec.timing.tREFI;
    ch.resumeAt(idleEnd);
    const std::uint64_t skipped = ch.stats().refreshes - before;
    EXPECT_GE(skipped, 10u);
    EXPECT_LE(skipped, 11u);

    // Idempotent: the refresh clock already points past idleEnd.
    const std::uint64_t after = ch.stats().refreshes;
    ch.resumeAt(idleEnd);
    EXPECT_EQ(ch.stats().refreshes, after);
}

// ---------------------------------------------------------------
// FastChannel: fixed service latency + bandwidth-capped bus.
// ---------------------------------------------------------------

TEST(FastChannelModel, ServiceLatencyAndBandwidthCap)
{
    CompletionFns fns;
    EventQueue eq;
    const DramSpec spec = DramSpec::hbm1GHz();
    constexpr TimePs kExtra = 5000;
    FastChannel fc(eq, spec, "fast0", kExtra);
    const TimePs service = spec.timing.tRCD + spec.timing.tCL +
                           spec.timing.tBL + kExtra;
    EXPECT_EQ(fc.servicePs(), service);

    TimePs f1 = 0, f2 = 0;
    Request r1;
    r1.type = AccessType::kRead;
    r1.done = fns.add([&](TimePs f) { f1 = f; });
    Request r2;
    r2.type = AccessType::kWrite;
    r2.done = fns.add([&](TimePs f) { f2 = f; });
    fc.enqueue(std::move(r1), ChannelAddr{0, 0});
    fc.enqueue(std::move(r2), ChannelAddr{1, 7});
    EXPECT_EQ(fc.queued(), 2u);
    eq.runAll();

    EXPECT_EQ(f1, service);
    // The second burst waits one bus slot: bandwidth cap, not banks.
    EXPECT_EQ(f2, service + spec.timing.tBL);
    EXPECT_EQ(fc.queued(), 0u);
    EXPECT_EQ(fc.stats().reads, 1u);
    EXPECT_EQ(fc.stats().writes, 1u);
    // No bank machinery: the bank-level counters stay zero.
    EXPECT_EQ(fc.stats().rowHits, 0u);
    EXPECT_EQ(fc.stats().activates, 0u);
    EXPECT_EQ(fc.stats().refreshes, 0u);
}

// ---------------------------------------------------------------
// Config plumbing for the new dotted keys.
// ---------------------------------------------------------------

TEST(SamplingConfig, DottedKeysSetAndRoundTrip)
{
    SimConfig c = SimConfig::paper(Mechanism::kMemPod);
    c.set("dram.model", "fast");
    c.set("sim.sampling.enabled", "true");
    c.set("sim.sampling.measure_ps", "1230000");
    c.set("sim.sampling.fastfwd_ps", "4560000");
    c.set("sim.sampling.warmup_pct", "25");
    c.set("sim.sampling.min_windows", "7");
    EXPECT_EQ(c.dramModel, DramModel::kFast);
    EXPECT_TRUE(c.sampling.enabled);
    EXPECT_EQ(c.sampling.measurePs, 1'230'000u);
    EXPECT_EQ(c.sampling.fastfwdPs, 4'560'000u);
    EXPECT_EQ(c.sampling.warmupPct, 25u);
    EXPECT_EQ(c.sampling.minWindows, 7u);

    const SimConfig rt = SimConfig::fromJson(c.toJson());
    EXPECT_EQ(rt.toJson(), c.toJson());
}

TEST(SamplingConfigDeath, UnknownModelNameRejected)
{
    SimConfig c = SimConfig::paper(Mechanism::kMemPod);
    EXPECT_DEATH(c.set("dram.model", "bogus"), "unknown memory model");
}

// ---------------------------------------------------------------
// Accuracy smoke: the sampled estimate lands near the detailed
// ground truth on the same trace. Everything here is deterministic,
// so the bound is tight enough to catch estimator regressions while
// leaving slack for window-placement sensitivity.
// ---------------------------------------------------------------

TEST(SampledAccuracy, EstimateTracksDetailedGroundTruth)
{
    const Trace t = tinyTrace(60000);
    const SimConfig base = tinyConfig(Mechanism::kMemPod);
    const RunResult detailed = runSimulation(base, t, "xalanc");
    ASSERT_FALSE(detailed.sampled);
    ASSERT_GT(detailed.ammatNs, 0.0);

    SimConfig sc = base;
    sc.sampling.enabled = true;
    sc.sampling.measurePs = 10_us;
    sc.sampling.fastfwdPs = 23_us; // period 33 us strides the 20 us epoch
    sc.sampling.minWindows = 3;
    const RunResult sampled = runSimulation(sc, t, "xalanc");
    ASSERT_TRUE(sampled.sampled);
    ASSERT_GE(sampled.sampleWindows, 3u);
    EXPECT_GT(sampled.sampledCiNs, 0.0);
    // Within the CI, plus 30% headroom for window-placement bias on a
    // trace this short.
    EXPECT_NEAR(sampled.sampledAmmatNs, detailed.ammatNs,
                sampled.sampledCiNs + 0.30 * detailed.ammatNs);
    // The sampled run still completes the whole trace (fast-forward
    // windows drain every record through the warm model).
    EXPECT_EQ(sampled.completed, t.size());
}

} // namespace
} // namespace mempod
