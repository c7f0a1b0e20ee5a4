/**
 * @file
 * Property-based sweeps (parameterized gtest): invariants that must
 * hold across the whole design space, not just the paper's defaults.
 */
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/pod.h"
#include "dram/channel.h"
#include "sim/simulation.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

// ---------------------------------------------------------------------
// DRAM timing: across all device presets, a lone read always completes
// at exactly the zero-load latency, and consecutive same-row reads are
// never slower than row-conflict reads.
class SpecSweep : public ::testing::TestWithParam<int>
{
  public:
    static DramSpec
    spec(int idx)
    {
        switch (idx) {
          case 0:
            return DramSpec::hbm1GHz();
          case 1:
            return DramSpec::ddr4_1600();
          case 2:
            return DramSpec::ddr4_2400();
          default:
            return DramSpec::hbm4GHz();
        }
    }
};

TEST_P(SpecSweep, ZeroLoadLatencyIsIdeal)
{
    const DramSpec s = spec(GetParam()).withChannelBytes(4_MiB);
    EventQueue eq;
    Channel ch(eq, s, "p", 0);
    TimePs finish = 0;
    Request r;
    r.onComplete = [&](TimePs f) { finish = f; };
    ch.enqueue(std::move(r), ChannelAddr{0, 0});
    eq.runAll();
    EXPECT_EQ(finish, s.idealReadLatencyPs());
}

TEST_P(SpecSweep, RowLocalityNeverHurts)
{
    const DramSpec s = spec(GetParam()).withChannelBytes(4_MiB);
    auto run = [&](std::int64_t second_row) {
        EventQueue eq;
        Channel ch(eq, s, "p", 0);
        TimePs last = 0;
        for (std::int64_t row : {std::int64_t{0}, second_row}) {
            Request r;
            r.onComplete = [&](TimePs f) { last = f; };
            ch.enqueue(std::move(r), ChannelAddr{0, row});
        }
        eq.runAll();
        return last;
    };
    EXPECT_LE(run(0), run(1));
}

TEST_P(SpecSweep, ThroughputBoundedByBus)
{
    // 64 row hits cannot finish faster than 64 back-to-back bursts.
    const DramSpec s = spec(GetParam()).withChannelBytes(4_MiB);
    EventQueue eq;
    Channel ch(eq, s, "p", 0);
    TimePs last = 0;
    for (int i = 0; i < 64; ++i) {
        Request r;
        r.onComplete = [&](TimePs f) { last = std::max(last, f); };
        ch.enqueue(std::move(r), ChannelAddr{0, 0});
    }
    eq.runAll();
    EXPECT_GE(last, 64 * s.timing.tBL);
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SpecSweep, ::testing::Range(0, 4));

// ---------------------------------------------------------------------
// Pod migration: under random traffic, for every (entries, bits)
// combination the remap table stays a permutation, blocked requests
// all drain, and migrations never exceed the per-interval cap.
class PodSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(PodSweep, InvariantsUnderRandomTraffic)
{
    const auto [entries, bits] = GetParam();
    EventQueue eq;
    MemorySystem mem(eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600());
    PodParams params;
    params.meaEntries = entries;
    params.meaCounterBits = bits;
    Pod pod(0, eq, mem, params);
    Rng rng(entries * 31 + bits);

    std::uint64_t issued = 0, completed = 0;
    for (int interval = 0; interval < 8; ++interval) {
        for (int i = 0; i < 300; ++i) {
            // Mix of fast and slow home pages of pod 0, zipf-skewed.
            const bool fast = rng.nextBool(0.2);
            const std::uint64_t k = rng.nextZipf(40, 1.0);
            const PageId page =
                fast ? k * mem.geom().numPods
                     : mem.geom().fastPages() + k * mem.geom().numPods;
            ++issued;
            const std::uint64_t offset = 64 * rng.nextBelow(32);
            const AccessType type = rng.nextBool(0.3)
                                        ? AccessType::kWrite
                                        : AccessType::kRead;
            pod.handleDemand(page, offset,
                             {.type = type,
                              .arrival = eq.now(),
                              .done = [&](TimePs) { ++completed; }});
        }
        pod.onInterval();
        eq.runAll();
        ASSERT_LE(pod.stats().migrations,
                  static_cast<std::uint64_t>(entries) * (interval + 1));
    }
    eq.runAll();
    EXPECT_EQ(completed, issued);
    EXPECT_EQ(pod.pendingWork(), 0u);
    pod.remap().checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, PodSweep,
    ::testing::Combine(::testing::Values(4u, 16u, 64u),
                       ::testing::Values(2u, 8u)));

// ---------------------------------------------------------------------
// End-to-end: across mechanisms and workload families, every demand
// completes exactly once and AMMAT is finite and positive. The workload
// is a std::string so the printed parameter (and the CTest name built
// from it) holds its text rather than an address that varies with ASLR.
class MechanismSweep
    : public ::testing::TestWithParam<std::tuple<Mechanism, std::string>>
{
};

TEST_P(MechanismSweep, CompletionAndSanity)
{
    const auto [mech, workload] = GetParam();
    SimConfig cfg = SimConfig::paper(mech);
    cfg.geom = SystemGeometry::tiny();
    cfg.mempod.interval = 20_us;
    cfg.hma.interval = 100_us;
    cfg.hma.sortStall = 7_us;
    GeneratorConfig gc;
    gc.totalRequests = 15000;
    gc.footprintScale = 0.015;
    const Trace t = WorkloadCatalog::global().build(workload, gc);
    const RunResult r = runSimulation(cfg, t, workload);
    EXPECT_EQ(r.completed, t.size());
    EXPECT_GT(r.ammatNs, 0.0);
    EXPECT_LT(r.ammatNs, 1e7);
    EXPECT_GE(r.fastServiceFraction, 0.0);
    EXPECT_LE(r.fastServiceFraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MechanismSweep,
    ::testing::Combine(::testing::Values(Mechanism::kNoMigration,
                                         Mechanism::kMemPod,
                                         Mechanism::kHma, Mechanism::kThm,
                                         Mechanism::kCameo),
                       ::testing::Values(std::string("xalanc"),
                                         std::string("lbm"),
                                         std::string("libquantum"),
                                         std::string("mix5"))),
    [](const auto &info) {
        return std::string(mechanismName(std::get<0>(info.param))) +
               "_" + std::get<1>(info.param);
    });

} // namespace
} // namespace mempod
