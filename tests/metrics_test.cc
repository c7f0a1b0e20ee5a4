/** @file Unit tests for the metric registry and interval sampler. */
#include <gtest/gtest.h>

#include "common/event_queue.h"
#include "common/metrics.h"
#include "sim/simulation.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

TEST(MetricRegistry, AttachedCounterTracksSource)
{
    MetricRegistry reg;
    std::uint64_t source = 0;
    reg.attachCounter("b.count", "external field", &source);
    source = 17;
    EXPECT_EQ(reg.snapshot(0).u64("b.count"), 17u);
}

TEST(MetricRegistry, ComputedCounterAndGauge)
{
    MetricRegistry reg;
    std::uint64_t x = 3;
    reg.addCounterFn("sum", "computed", [&] { return x * 2; });
    reg.addGauge("level", "derived", [&] { return x / 2.0; });
    const MetricSnapshot s = reg.snapshot(42);
    EXPECT_EQ(s.simTimePs, 42u);
    EXPECT_EQ(s.u64("sum"), 6u);
    EXPECT_DOUBLE_EQ(s.real("level"), 1.5);
}

TEST(MetricRegistry, AttachedInstrumentsSnapshotTheirState)
{
    MetricRegistry reg;
    Log2Histogram hist;
    reg.attachHistogram("h", "hist", &hist);

    hist.sample(5);

    const MetricSnapshot s = reg.snapshot(0);
    EXPECT_EQ(s.at("h").count, 1u);
    EXPECT_FALSE(s.at("h").buckets.empty());
}

TEST(MetricRegistry, KindAndDescriptionLookups)
{
    MetricRegistry reg;
    std::uint64_t count = 0;
    reg.attachCounter("x.count", "a count", &count);
    reg.addGauge("x.level", "a level", [] { return 0.0; });
    EXPECT_EQ(reg.kind("x.count"), MetricKind::kCounter);
    EXPECT_EQ(reg.kind("x.level"), MetricKind::kGauge);
    EXPECT_EQ(reg.description("x.count"), "a count");
    EXPECT_TRUE(reg.contains("x.level"));
    EXPECT_FALSE(reg.contains("x.missing"));
}

TEST(MetricRegistry, NamesAreSorted)
{
    MetricRegistry reg;
    std::uint64_t count = 0;
    reg.attachCounter("zeta", "z", &count);
    reg.attachCounter("alpha", "a", &count);
    reg.attachCounter("mid.dle", "m", &count);
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "mid.dle");
    EXPECT_EQ(names[2], "zeta");
}

TEST(MetricRegistryDeathTest, NameCollisionPanics)
{
    MetricRegistry reg;
    std::uint64_t count = 0;
    reg.attachCounter("dup", "first", &count);
    EXPECT_DEATH(reg.attachCounter("dup", "second", &count), "collision");
    EXPECT_DEATH(reg.addGauge("dup", "as gauge", [] { return 0.0; }),
                 "collision");
}

TEST(MetricRegistryDeathTest, UnknownLookupsPanic)
{
    MetricRegistry reg;
    EXPECT_DEATH(reg.description("ghost"), "ghost");
    const MetricSnapshot s = reg.snapshot(0);
    EXPECT_DEATH(s.u64("ghost"), "ghost");
}

TEST(MetricSnapshot, DeltaSubtractsMonotonicFields)
{
    MetricRegistry reg;
    std::uint64_t count = 10;
    Log2Histogram hist;
    double level = 1.0;
    reg.attachCounter("c", "", &count);
    reg.attachHistogram("h", "", &hist);
    reg.addGauge("g", "", [&] { return level; });

    hist.sample(3);
    const MetricSnapshot before = reg.snapshot(100);

    count = 25;
    hist.sample(3);
    hist.sample(100);
    level = 9.0;
    const MetricSnapshot after = reg.snapshot(200);

    const MetricSnapshot d = metricDelta(before, after);
    EXPECT_EQ(d.simTimePs, 200u);
    EXPECT_EQ(d.u64("c"), 15u);
    EXPECT_EQ(d.at("h").count, 2u);
    // Gauges are level metrics: the delta keeps the later value.
    EXPECT_DOUBLE_EQ(d.real("g"), 9.0);
}

TEST(MetricSnapshotDeathTest, DeltaRejectsBackwardsCounter)
{
    MetricRegistry reg;
    std::uint64_t count = 10;
    reg.attachCounter("c", "", &count);
    const MetricSnapshot before = reg.snapshot(0);
    count = 5;
    const MetricSnapshot after = reg.snapshot(1);
    EXPECT_DEATH(metricDelta(before, after), "backwards");
}

TEST(IntervalSampler, TicksAlignToSimulatedTime)
{
    EventQueue eq;
    MetricRegistry reg;
    std::uint64_t ticks = 0;
    reg.attachCounter("ticks", "work done", &ticks);
    IntervalSampler sampler(eq, reg, /*period=*/1000);
    sampler.start();

    // Work lands at 150, 1150, 2150: one increment per period.
    for (TimePs t : {150u, 1150u, 2150u})
        eq.schedule(t, [&ticks] { ++ticks; });
    eq.runUntil(3000);

    ASSERT_EQ(sampler.records().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        const IntervalRecord &r = sampler.records()[i];
        EXPECT_EQ(r.index, i);
        EXPECT_EQ(r.startPs, i * 1000);
        EXPECT_EQ(r.endPs, (i + 1) * 1000);
        EXPECT_EQ(r.delta.u64("ticks"), 1u);
    }
}

TEST(IntervalSampler, FinalizeCapturesPartialInterval)
{
    EventQueue eq;
    MetricRegistry reg;
    std::uint64_t ticks = 0;
    reg.attachCounter("ticks", "work done", &ticks);
    IntervalSampler sampler(eq, reg, /*period=*/1000);
    sampler.start();

    eq.schedule(1499, [&ticks] { ++ticks; });
    eq.runUntil(1500);

    ASSERT_EQ(sampler.records().size(), 1u);
    sampler.finalize(1500);
    ASSERT_EQ(sampler.records().size(), 2u);
    const IntervalRecord &tail = sampler.records().back();
    EXPECT_EQ(tail.startPs, 1000u);
    EXPECT_EQ(tail.endPs, 1500u);
    EXPECT_EQ(tail.delta.u64("ticks"), 1u);

    // Finalizing with no elapsed time adds nothing.
    sampler.finalize(1500);
    EXPECT_EQ(sampler.records().size(), 2u);
}

// --- end-to-end: the full simulation registers every layer ---

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
tinyTrace(const std::string &workload, std::uint64_t requests = 30000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015;
    return WorkloadCatalog::global().build(workload, gc);
}

TEST(SimulationMetrics, EveryMechanismRegistersCoreInstruments)
{
    for (Mechanism m :
         {Mechanism::kNoMigration, Mechanism::kMemPod, Mechanism::kHma,
          Mechanism::kThm, Mechanism::kCameo}) {
        Simulation sim(tinyConfig(m));
        const MetricRegistry &reg = sim.registry();
        for (const char *name :
             {"frontend.issued", "frontend.completed",
              "frontend.ammat_ps", "mem.demand_fast", "mem.demand_slow",
              "mem.row_hit_rate", "migration.migrations",
              "migration.bytes_moved", "sim.events_executed"}) {
            EXPECT_TRUE(reg.contains(name))
                << mechanismName(m) << " missing " << name;
        }
    }
}

TEST(SimulationMetrics, MemPodRegistersPerPodInstruments)
{
    Simulation sim(tinyConfig(Mechanism::kMemPod));
    const MetricRegistry &reg = sim.registry();
    EXPECT_TRUE(reg.contains("pod0.migration.migrations"));
    EXPECT_TRUE(reg.contains("pod0.mea.sweeps"));
    EXPECT_TRUE(reg.contains("pod0.remap.occupancy"));
    EXPECT_TRUE(reg.contains("pod0.engine.ops_committed"));
}

TEST(SimulationMetrics, FinalSnapshotMatchesRunResult)
{
    const Trace t = tinyTrace("xalanc");
    Simulation sim(tinyConfig(Mechanism::kMemPod));
    const RunResult r = sim.run(t, "xalanc");
    const MetricSnapshot &s = sim.finalSnapshot();
    EXPECT_EQ(s.u64("frontend.completed"), r.completed);
    EXPECT_EQ(s.u64("migration.migrations"), r.migration.migrations);
    EXPECT_EQ(s.u64("mem.demand_fast"), r.memStats.demandFast);
    EXPECT_DOUBLE_EQ(s.real("frontend.ammat_ps") / 1000.0, r.ammatNs);
    EXPECT_EQ(s.u64("sim.events_executed"), r.eventsExecuted);
    // Per-pod swaps sum to the aggregate.
    std::uint64_t pod_sum = 0;
    for (int p = 0; s.has("pod" + std::to_string(p) +
                          ".migration.migrations");
         ++p)
        pod_sum += s.u64("pod" + std::to_string(p) +
                         ".migration.migrations");
    EXPECT_EQ(pod_sum, r.migration.migrations);
}

TEST(SimulationMetrics, SamplerRecordsPerPodCountersOverEpochs)
{
    const Trace t = tinyTrace("xalanc");
    SimConfig cfg = tinyConfig(Mechanism::kMemPod);
    cfg.statsIntervalPs = 20_us; // one record per migration epoch
    Simulation sim(cfg);
    const RunResult r = sim.run(t, "xalanc");
    ASSERT_NE(sim.sampler(), nullptr);
    const auto &records = sim.sampler()->records();
    ASSERT_GE(records.size(), 2u);

    std::uint64_t sampled_migrations = 0;
    for (const IntervalRecord &rec : records) {
        EXPECT_GT(rec.endPs, rec.startPs);
        sampled_migrations += rec.delta.u64("migration.migrations");
    }
    // Interval deltas tile the run: they sum back to the final total.
    EXPECT_EQ(sampled_migrations, r.migration.migrations);
}

TEST(SimulationMetrics, SamplerOffByDefaultKeepsEventCount)
{
    const Trace t = tinyTrace("mix1", 15000);
    const RunResult plain =
        runSimulation(tinyConfig(Mechanism::kMemPod), t);
    SimConfig cfg = tinyConfig(Mechanism::kMemPod);
    EXPECT_EQ(cfg.statsIntervalPs, 0u);
    cfg.statsIntervalPs = 20_us;
    const RunResult sampled = runSimulation(cfg, t);
    // Sampling is read-only: identical results, more executed events.
    EXPECT_DOUBLE_EQ(sampled.ammatNs, plain.ammatNs);
    EXPECT_EQ(sampled.migration.migrations, plain.migration.migrations);
    EXPECT_EQ(sampled.completed, plain.completed);
    EXPECT_GT(sampled.eventsExecuted, plain.eventsExecuted);
}

} // namespace
} // namespace mempod
