/** @file Unit tests for the MemorySystem facade. */
#include <gtest/gtest.h>

#include <ostream>

#include "common/event_queue.h"
#include "completion_fns.h"
#include "mem/memory_system.h"

namespace mempod {
namespace {

struct MemFixture : ::testing::Test
{
    CompletionFns fns;
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};

    TimePs
    access(Addr a, AccessType t = AccessType::kRead,
           Request::Kind k = Request::Kind::kDemand)
    {
        TimePs finish = 0;
        Request r;
        r.addr = a;
        r.type = t;
        r.kind = k;
        r.done = fns.add([&](TimePs f) { finish = f; });
        mem.access(std::move(r));
        eq.runAll();
        return finish;
    }
};

TEST_F(MemFixture, BuildsAllChannels)
{
    EXPECT_EQ(mem.numChannels(), 12u);
    EXPECT_EQ(mem.channel(0).spec().name, "HBM-1GHz");
    EXPECT_EQ(mem.channel(8).spec().name, "DDR4-1600");
}

TEST_F(MemFixture, ChannelCapacityMatchesGeometry)
{
    EXPECT_EQ(mem.channel(0).spec().org.channelBytes(),
              SystemGeometry::tiny().fastBytes / 8);
    EXPECT_EQ(mem.channel(8).spec().org.channelBytes(),
              SystemGeometry::tiny().slowBytes / 4);
}

TEST_F(MemFixture, FastAccessFasterThanSlow)
{
    const TimePs fast = access(0);
    const TimePs t0 = eq.now();
    const TimePs slow = access(16_MiB); // first slow byte
    EXPECT_LT(fast, slow - t0);
}

TEST_F(MemFixture, RoutesToCorrectChannel)
{
    access(0); // fast page 0 -> fast channel 0
    EXPECT_EQ(mem.channel(0).stats().reads, 1u);
    access(kPageBytes); // fast page 1 -> fast channel 1
    EXPECT_EQ(mem.channel(1).stats().reads, 1u);
    access(16_MiB); // slow page 0 -> global channel 8
    EXPECT_EQ(mem.channel(8).stats().reads, 1u);
}

TEST_F(MemFixture, KindStatsAttributed)
{
    access(0, AccessType::kRead, Request::Kind::kDemand);
    access(16_MiB, AccessType::kRead, Request::Kind::kDemand);
    access(64, AccessType::kRead, Request::Kind::kMigration);
    access(128, AccessType::kWrite, Request::Kind::kBookkeeping);
    EXPECT_EQ(mem.stats().demandFast, 1u);
    EXPECT_EQ(mem.stats().demandSlow, 1u);
    EXPECT_EQ(mem.stats().migrationLines(), 1u);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u);
}

TEST_F(MemFixture, RowHitRatePerTier)
{
    // Two hits in fast, all misses in slow.
    access(0);
    access(64);
    access(128);
    access(16_MiB);
    EXPECT_GT(mem.rowHitRate(MemTier::kFast), 0.5);
    EXPECT_EQ(mem.rowHitRate(MemTier::kSlow), 0.0);
    EXPECT_GT(mem.rowHitRate(), 0.0);
}

TEST(MemorySystem, SingleTierGeometryWorks)
{
    CompletionFns fns;
    EventQueue eq;
    MemorySystem mem(eq, SystemGeometry::singleTier(64_MiB, 8),
                     DramSpec::hbm1GHz(), DramSpec::ddr4_1600());
    EXPECT_EQ(mem.numChannels(), 8u);
    TimePs finish = 0;
    Request r;
    r.addr = 64_MiB - 64;
    r.done = fns.add([&](TimePs f) { finish = f; });
    mem.access(std::move(r));
    eq.runAll();
    EXPECT_GT(finish, 0u);
}

/** One memory-model configuration of a MemorySystem. */
struct ModelCase
{
    const char *name;
    DramModel measured;
    bool sampled; //!< built with warm models, switched mid-test
};

/** Names each case by its label in test listings. */
void
PrintTo(const ModelCase &c, std::ostream *os)
{
    *os << c.name;
}

class InFlight : public ::testing::TestWithParam<ModelCase>
{
};

TEST_P(InFlight, ReturnsToZeroUnderEveryModel)
{
    const ModelCase &mc = GetParam();
    CompletionFns fns;
    EventQueue eq;
    MemorySystem mem(eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600(), 5000, {}, nullptr,
                     mc.measured, mc.sampled);
    const auto issue = [&](Addr a, TimePs &finish) {
        Request r;
        r.addr = a;
        r.done = fns.add([&finish](TimePs f) { finish = f; });
        mem.access(r);
    };

    TimePs fast = 0, slow = 0;
    issue(0, fast);
    issue(16_MiB, slow);
    EXPECT_EQ(mem.inFlight(), 2u);
    if (!mc.sampled) {
        eq.runAll();
        EXPECT_EQ(mem.inFlight(), 0u);
        EXPECT_GT(fast, 0u);
        EXPECT_GT(slow, 0u);
        return;
    }

    // Both lines were accepted by the measured models: switching to
    // warm leaves them there, and they finish with measured latency.
    mem.setWarm(true);
    TimePs warm = kTimeNever;
    issue(64, warm);
    EXPECT_EQ(warm, eq.now()); // the warm model completes inline
    EXPECT_EQ(mem.inFlight(), 2u);
    eq.runAll();
    EXPECT_EQ(mem.inFlight(), 0u);
    EXPECT_GT(fast, 0u);
    EXPECT_GT(slow, 0u);

    // Back on the measured models, with a line outstanding across the
    // next switch to warm.
    mem.setWarm(false);
    TimePs after = 0;
    const TimePs issued = eq.now();
    issue(128, after);
    EXPECT_EQ(mem.inFlight(), 1u);
    mem.setWarm(true);
    eq.runAll();
    EXPECT_EQ(mem.inFlight(), 0u);
    EXPECT_GT(after, issued);

    // Channel 0 saw lines 0 and 128 measured and line 64 warm; its
    // warm view follows its measured one.
    EXPECT_EQ(mem.channel(0).stats().reads, 2u);
    const ChannelTelemetry &warm0 = mem.telemetry()[1];
    EXPECT_EQ(warm0.name, "fast0.warm");
    EXPECT_EQ(warm0.stats->reads, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    MemoryModels, InFlight,
    ::testing::Values(ModelCase{"detailed", DramModel::kDetailed, false},
                      ModelCase{"fast", DramModel::kFast, false},
                      ModelCase{"sampled_detailed", DramModel::kDetailed,
                                true},
                      ModelCase{"sampled_fast", DramModel::kFast, true}));

} // namespace
} // namespace mempod
