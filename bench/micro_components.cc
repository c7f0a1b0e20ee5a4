/**
 * @file
 * Google-benchmark microbenchmarks for the building blocks: MEA
 * update throughput (the structure sits on the memory access path, so
 * single-cycle behaviour matters), remap-table lookup/swap, metadata-
 * cache probes, channel-controller throughput, trace generation, and
 * a small end-to-end simulation.
 */
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "core/remap_table.h"
#include "dram/channel.h"
#include "sim/metadata_cache.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "tracking/full_counters.h"
#include "tracking/mea.h"
#include "trace/catalog.h"

namespace {

using namespace mempod;

void
BM_MeaTouch(benchmark::State &state)
{
    MeaTracker mea(static_cast<std::uint32_t>(state.range(0)), 2, 21);
    Rng rng(1);
    std::vector<std::uint64_t> ids(4096);
    for (auto &id : ids)
        id = rng.nextZipf(1 << 20, 1.0);
    std::size_t i = 0;
    for (auto _ : state) {
        mea.touch(ids[i++ & 4095]);
        benchmark::DoNotOptimize(mea.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeaTouch)->Arg(16)->Arg(64)->Arg(512);

void
BM_FullCountersTouch(benchmark::State &state)
{
    FullCounters fc(1 << 22, 16);
    Rng rng(2);
    std::vector<std::uint64_t> ids(4096);
    for (auto &id : ids)
        id = rng.nextBelow(1 << 22);
    std::size_t i = 0;
    for (auto _ : state)
        fc.touch(ids[i++ & 4095]);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullCountersTouch);

void
BM_FullCountersTopN(benchmark::State &state)
{
    FullCounters fc(1 << 22, 16);
    Rng rng(3);
    for (int i = 0; i < 200000; ++i)
        fc.touch(rng.nextZipf(1 << 22, 0.9));
    for (auto _ : state)
        benchmark::DoNotOptimize(fc.topN(64));
}
BENCHMARK(BM_FullCountersTopN);

void
BM_RemapLookup(benchmark::State &state)
{
    RemapTable rt(1179648, 131072); // one paper-scale pod
    Rng rng(4);
    for (int i = 0; i < 100000; ++i)
        rt.swap(rng.nextBelow(1179648), rng.nextBelow(1179648));
    std::uint64_t q = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rt.locationOf(q));
        q = (q + 977) % 1179648;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemapLookup);

void
BM_MetadataCacheLookup(benchmark::State &state)
{
    MetadataCache cache(64 * 1024, 8, 4);
    Rng rng(5);
    std::uint64_t q = 0;
    for (auto _ : state) {
        if (!cache.lookup(q))
            cache.fill(q);
        q = rng.nextZipf(1 << 20, 1.0);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetadataCacheLookup);

void
BM_EventQueueUniform(benchmark::State &state)
{
    // Steady-state kernel load: a fixed population of events, each
    // re-arming at a uniform DRAM-scale delta (0.2-50 ns), so inserts
    // land across wheel-0/1 slots and every runAll drains hot slots.
    EventQueue eq;
    Rng rng(7);
    std::function<void()> tick = [&] {
        eq.scheduleAfter(200 + rng.nextBelow(50'000), tick);
    };
    for (int i = 0; i < 256; ++i)
        eq.schedule(rng.nextBelow(50'000), tick);
    for (auto _ : state)
        eq.runAll(1024);
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueUniform);

void
BM_EventQueueBursty(benchmark::State &state)
{
    // Same-timestamp bursts (a channel completing a queued batch):
    // exercises the one-slot claim-sort-drain path and the FIFO
    // tie-break.
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const TimePs when = eq.now() + 1'000'000;
        for (int i = 0; i < 256; ++i)
            eq.schedule(when, [&sink] { ++sink; });
        eq.runAll();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_EventQueueBursty);

void
BM_EventQueueFarFuture(benchmark::State &state)
{
    // Interval-timer profile: mostly near events plus a slice beyond
    // the outermost wheel (HMA epochs, samplers), so the overflow
    // ladder and multi-level cascades stay on the measured path.
    EventQueue eq;
    Rng rng(8);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i) {
            const TimePs delta =
                (i & 15) == 0
                    ? EventQueue::kWheelSpanPs + rng.nextBelow(1 << 20)
                    : 200 + rng.nextBelow(2'000'000);
            eq.scheduleAfter(delta, [&sink] { ++sink; });
        }
        eq.runAll();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueFarFuture);

void
BM_ChannelThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        Channel ch(eq, DramSpec::hbm1GHz().withChannelBytes(8_MiB),
                   "bm", 0);
        Rng rng(6);
        for (int i = 0; i < 512; ++i) {
            Request r;
            r.type = rng.nextBool(0.3) ? AccessType::kWrite
                                       : AccessType::kRead;
            r.onComplete = [](TimePs) {};
            ch.enqueue(std::move(r),
                       ChannelAddr{static_cast<std::uint32_t>(
                                       rng.nextBelow(16)),
                                   static_cast<std::int64_t>(
                                       rng.nextBelow(64))});
        }
        eq.runAll();
        benchmark::DoNotOptimize(ch.stats().reads);
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ChannelThroughput);

void
BM_ChannelRowHit(benchmark::State &state)
{
    // Streaming profile: long same-row runs on a handful of banks, so
    // nearly every CAS is a row hit and the scheduler lives in pass 1
    // (cached oldest-hit candidates, bus-limited pipelining).
    for (auto _ : state) {
        EventQueue eq;
        Channel ch(eq, DramSpec::hbm1GHz().withChannelBytes(8_MiB),
                   "bm", 0);
        for (int i = 0; i < 512; ++i) {
            Request r;
            r.onComplete = [](TimePs) {};
            ch.enqueue(std::move(r),
                       ChannelAddr{static_cast<std::uint32_t>(
                                       (i / 128) & 3),
                                   static_cast<std::int64_t>(i / 128)});
        }
        eq.runAll();
        benchmark::DoNotOptimize(ch.stats().rowHits);
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ChannelRowHit);

void
BM_ChannelRandom(benchmark::State &state)
{
    // Conflict profile: random bank, random row over a large row
    // space, so almost every access precharges and re-activates and
    // the scheduler spends its time in passes 2/3 (closed-bank ACT
    // selection and conflicting PRE).
    for (auto _ : state) {
        EventQueue eq;
        Channel ch(eq, DramSpec::hbm1GHz().withChannelBytes(512_MiB),
                   "bm", 0);
        Rng rng(9);
        for (int i = 0; i < 512; ++i) {
            Request r;
            r.type = rng.nextBool(0.3) ? AccessType::kWrite
                                       : AccessType::kRead;
            r.onComplete = [](TimePs) {};
            ch.enqueue(std::move(r),
                       ChannelAddr{static_cast<std::uint32_t>(
                                       rng.nextBelow(16)),
                                   static_cast<std::int64_t>(
                                       rng.nextBelow(4096))});
        }
        eq.runAll();
        benchmark::DoNotOptimize(ch.stats().rowMisses);
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ChannelRandom);

void
BM_TraceGeneration(benchmark::State &state)
{
    GeneratorConfig gc;
    gc.totalRequests = 50000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            WorkloadCatalog::global().build("mix5", gc));
    }
    state.SetItemsProcessed(state.iterations() * gc.totalRequests);
}
BENCHMARK(BM_TraceGeneration);

void
BM_EndToEndMemPod(benchmark::State &state)
{
    GeneratorConfig gc;
    gc.totalRequests = 50000;
    const Trace trace = WorkloadCatalog::global().build("xalanc", gc);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runSimulation(SimConfig::paper(Mechanism::kMemPod), trace));
    }
    state.SetItemsProcessed(state.iterations() * gc.totalRequests);
}
BENCHMARK(BM_EndToEndMemPod);

void
BM_EndToEndMemPodPerf(benchmark::State &state)
{
    // A/B twin of BM_EndToEndMemPod with the host profiler attached:
    // run both (interleaved, same filter) and compare medians to bound
    // the enabled-profiler overhead. The budget is <= 2%; disabled,
    // the instrumentation is a single branch on a null pointer.
    GeneratorConfig gc;
    gc.totalRequests = 50000;
    const Trace trace = WorkloadCatalog::global().build("xalanc", gc);
    SimConfig cfg = SimConfig::paper(Mechanism::kMemPod);
    cfg.perfEnabled = true;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runSimulation(cfg, trace));
    }
    state.SetItemsProcessed(state.iterations() * gc.totalRequests);
}
BENCHMARK(BM_EndToEndMemPodPerf);

void
BM_BatchRunnerFanOut(benchmark::State &state)
{
    // The harness hot path: a workload x mechanism cross product on
    // the worker pool, traces shared through the keyed cache.
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    GeneratorConfig gc;
    gc.totalRequests = 20000;
    TraceCache cache; // persists across iterations: generation once
    for (auto _ : state) {
        BatchRunner runner({.jobs = jobs, .cache = &cache});
        for (const char *w : {"xalanc", "mcf"}) {
            for (Mechanism m :
                 {Mechanism::kNoMigration, Mechanism::kMemPod}) {
                BatchJob job;
                job.config = SimConfig::paper(m);
                job.workload = w;
                job.gen = gc;
                runner.add(std::move(job));
            }
        }
        benchmark::DoNotOptimize(runner.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 4 * gc.totalRequests);
}
BENCHMARK(BM_BatchRunnerFanOut)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
