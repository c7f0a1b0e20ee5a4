/** @file Unit tests for the shared swap lifecycle (SwapGuard). */
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/decision_log.h"
#include "completion_fns.h"
#include "core/swap_guard.h"

namespace mempod {
namespace {

struct GuardFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};
    MigrationStats stats;
    MigrationEngine engine{eq, mem, /*max_in_flight_ops=*/2, "t.engine"};
    /** Cores of resumed demands, in resume order. */
    std::vector<int> resumed;
    /** Runs after each resume is logged (may re-park `d`). */
    std::function<void(std::uint64_t, Demand &)> onResume;
    SwapGuard guard{eq,     engine, stats, "t", "key", DecisionLog::kNoPod,
                    [this](std::uint64_t key, Demand d) {
                        resumed.push_back(d.core);
                        if (onResume)
                            onResume(key, d);
                    }};
    int applied = 0;
    TimePs appliedAt = 0; //!< time of the latest commit

    /** A one-line swap covering `key` alone. */
    SwapGuard::Swap
    swapOn(std::uint64_t key)
    {
        return {.keyA = key,
                .locA = key * kLineBytes,
                .locB = 16_MiB + key * kLineBytes,
                .lines = 1,
                .apply = [this] {
                    ++applied;
                    appliedAt = eq.now();
                }};
    }

    bool
    park(std::uint64_t key, std::uint8_t core)
    {
        Demand d{.core = core};
        return guard.park(key, d);
    }
};

TEST_F(GuardFixture, ParkedDemandsResumeInArrivalOrderAfterCommit)
{
    guard.schedule(swapOn(7)); // engine idle: the swap starts at once
    EXPECT_TRUE(park(7, 0));
    EXPECT_TRUE(park(7, 1));
    EXPECT_TRUE(park(7, 2));
    EXPECT_EQ(guard.parkedCount(), 3u);
    EXPECT_EQ(stats.blockedRequests, 3u);
    EXPECT_FALSE(park(8, 3)); // another key is not held
    eq.runAll();
    EXPECT_EQ(resumed, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(applied, 1);
    EXPECT_EQ(stats.migrations, 1u);
    EXPECT_EQ(stats.bytesMoved, 2 * kLineBytes);
    EXPECT_EQ(stats.blockedPs, 3 * appliedAt); // all parked at t = 0
    EXPECT_EQ(guard.parkedCount(), 0u);
    EXPECT_FALSE(guard.reserved(7));
}

TEST_F(GuardFixture, ReservedKeyDoesNotParkUntilItsSwapStarts)
{
    CompletionFns fns;
    guard.schedule(swapOn(1));
    guard.schedule(swapOn(2));
    guard.schedule(swapOn(3)); // both engine slots busy: queued
    ASSERT_EQ(engine.queuedOps(), 1u);
    EXPECT_TRUE(guard.reserved(3));
    Demand d{.core = 9, .done = fns.add([](TimePs) {})};
    EXPECT_FALSE(guard.park(3, d));
    EXPECT_EQ(d.core, 9);
    EXPECT_TRUE(static_cast<bool>(d.done)); // left untouched
    EXPECT_EQ(stats.blockedRequests, 0u);
    EXPECT_TRUE(park(1, 0));
    eq.runAll();
    EXPECT_EQ(stats.migrations, 3u);
    EXPECT_FALSE(guard.reserved(1) || guard.reserved(2) ||
                 guard.reserved(3));
}

TEST_F(GuardFixture, ResumeThatRelocksTheKeyReparksTheRest)
{
    // The first released demand schedules a new swap on the same key
    // (as a THM/CAMEO trigger can); it starts at once on the engine's
    // free slot, so this demand and the rest of the list re-park.
    bool relocked = false;
    onResume = [&](std::uint64_t key, Demand &d) {
        if (!relocked) {
            relocked = true;
            guard.schedule(swapOn(key));
        }
        if (stats.migrations == 1) {
            EXPECT_TRUE(guard.park(key, d));
        }
    };
    guard.schedule(swapOn(4));
    for (std::uint8_t core = 0; core < 3; ++core)
        EXPECT_TRUE(park(4, core));
    eq.runAll();
    EXPECT_EQ(resumed, (std::vector<int>{0, 1, 2, 0, 1, 2}));
    EXPECT_EQ(stats.migrations, 2u);
    EXPECT_EQ(stats.blockedRequests, 6u);
    EXPECT_EQ(guard.parkedCount(), 0u);
    EXPECT_FALSE(guard.reserved(4));
}

TEST_F(GuardFixture, AbortReleasesBothKeysWithoutCharging)
{
    DecisionLog log(1_us, 1.0);
    eq.attach({.decisions = &log});
    guard.schedule(swapOn(1));
    guard.schedule(swapOn(2));
    SwapGuard::Swap s = swapOn(10);
    s.keyB = 11;
    guard.schedule(std::move(s)); // queued behind two active swaps
    EXPECT_TRUE(guard.reserved(10) && guard.reserved(11));
    engine.clearQueued();
    EXPECT_FALSE(guard.reserved(10) || guard.reserved(11));
    EXPECT_EQ(log.records()[2].outcome, DecisionLog::Outcome::kAborted);
    eq.runAll();
    EXPECT_EQ(applied, 2);
    EXPECT_EQ(stats.migrations, 2u);
    EXPECT_EQ(stats.bytesMoved, 4 * kLineBytes);
}

} // namespace
} // namespace mempod
