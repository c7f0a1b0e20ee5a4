/** @file Unit tests for the per-Pod remap table. */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/remap_table.h"
#include "dense_remap.h"

namespace mempod {
namespace {

TEST(RemapTable, StartsAsIdentity)
{
    RemapTable rt(100, 10);
    EXPECT_TRUE(rt.isIdentity());
    for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(rt.locationOf(i), i);
        EXPECT_EQ(rt.residentOf(i), i);
    }
}

TEST(RemapTable, SwapExchangesLocations)
{
    RemapTable rt(100, 10);
    rt.swap(3, 50);
    EXPECT_EQ(rt.locationOf(3), 50u);
    EXPECT_EQ(rt.locationOf(50), 3u);
    EXPECT_EQ(rt.residentOf(3), 50u);
    EXPECT_EQ(rt.residentOf(50), 3u);
    EXPECT_FALSE(rt.isIdentity());
}

TEST(RemapTable, DoubleSwapRestoresIdentity)
{
    RemapTable rt(100, 10);
    rt.swap(3, 50);
    rt.swap(3, 50);
    EXPECT_TRUE(rt.isIdentity());
}

TEST(RemapTable, InFastReflectsLocationNotOrigin)
{
    RemapTable rt(100, 10);
    EXPECT_TRUE(rt.inFast(5));
    EXPECT_FALSE(rt.inFast(50));
    rt.swap(5, 50); // 50 moves into slot 5, 5 moves out
    EXPECT_FALSE(rt.inFast(5));
    EXPECT_TRUE(rt.inFast(50));
}

TEST(RemapTable, ChainedSwapsTrackCorrectly)
{
    RemapTable rt(10, 2);
    rt.swap(0, 5); // 5 -> slot 0, 0 -> slot 5
    rt.swap(5, 7); // 7 -> slot 0, 5 -> slot 7
    EXPECT_EQ(rt.locationOf(7), 0u);
    EXPECT_EQ(rt.locationOf(5), 7u);
    EXPECT_EQ(rt.locationOf(0), 5u);
    EXPECT_EQ(rt.residentOf(0), 7u);
    rt.checkConsistency();
}

TEST(RemapTable, PermutationInvariantUnderRandomSwaps)
{
    RemapTable rt(512, 64);
    Rng rng(23);
    for (int i = 0; i < 10000; ++i)
        rt.swap(rng.nextBelow(512), rng.nextBelow(512));
    rt.checkConsistency(); // panics on corruption
    // Every slot has exactly one resident.
    std::vector<bool> seen(512, false);
    for (std::uint64_t s = 0; s < 512; ++s) {
        const auto r = rt.residentOf(s);
        EXPECT_FALSE(seen[r]);
        seen[r] = true;
    }
}

TEST(RemapTable, SelfSwapIsNoOp)
{
    RemapTable rt(16, 4);
    rt.swap(3, 3);
    EXPECT_TRUE(rt.isIdentity());
    rt.checkConsistency();
}

TEST(RemapTable, StorageBitsMatchPaperScale)
{
    // 1.125M pages per pod -> 21-bit entries; ~2.95 MB per pod, the
    // paper's "2.8 MB / Pod" (they quote 21 bits x 1.1M).
    RemapTable rt(1179648, 131072);
    EXPECT_EQ(rt.storageBitsRemap(), 1179648ull * 21);
    const double mib =
        static_cast<double>(rt.storageBitsRemap()) / 8 / (1 << 20);
    EXPECT_NEAR(mib, 2.95, 0.05);
    // Inverted table covers only fast slots.
    EXPECT_EQ(rt.storageBitsInverted(), 131072ull * 21);
}

void
expectSameAt(const RemapTable &rt, const DenseRemap &ref, std::uint64_t id)
{
    ASSERT_EQ(rt.locationOf(id), ref.location[id]) << "id " << id;
    ASSERT_EQ(rt.residentOf(id), ref.resident[id]) << "slot " << id;
    ASSERT_EQ(rt.inFast(id), ref.location[id] < rt.fastSlots())
        << "id " << id;
}

/**
 * Drive the sparse table and the dense reference with the same seeded
 * swaps. Most follow the managers' pattern: a random page trades places
 * with the resident of a random fast slot, which is often a page
 * migrated in earlier, so it is evicted to a third page's slot (a
 * chain). The rest exchange two arbitrary ids. With
 * `every_step`, compare every id after every swap; otherwise compare
 * the touched ids per swap and every id at the end. Then undo every
 * swap in reverse order, which must restore the identity.
 */
void
runDifferential(std::uint64_t pages, std::uint64_t fast, int swaps,
                std::uint64_t seed, bool every_step)
{
    RemapTable rt(pages, fast);
    DenseRemap ref(pages);
    Rng rng(seed);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> done;
    std::uint64_t chains = 0;
    for (int i = 0; i < swaps; ++i) {
        std::uint64_t a, b;
        if (rng.nextBelow(4) != 0) {
            a = rng.nextBelow(pages);
            b = ref.resident[rng.nextBelow(fast)];
            chains += ref.location[b] != b && ref.location[a] != b ? 1 : 0;
        } else {
            a = rng.nextBelow(pages);
            b = rng.nextBelow(pages);
        }
        const std::uint64_t la = ref.location[a], lb = ref.location[b];
        rt.swap(a, b);
        ref.swap(a, b);
        done.emplace_back(a, b);
        ASSERT_LE(rt.movedEntries(), 2 * done.size());
        if (every_step) {
            ASSERT_EQ(rt.occupiedFastSlots(), ref.occupiedFast(fast));
            ASSERT_EQ(rt.movedEntries(), ref.movedIds());
            for (std::uint64_t id = 0; id < pages; ++id)
                ASSERT_NO_FATAL_FAILURE(expectSameAt(rt, ref, id));
            rt.checkConsistency();
        } else {
            for (const std::uint64_t id : {a, b, la, lb})
                ASSERT_NO_FATAL_FAILURE(expectSameAt(rt, ref, id));
        }
    }
    EXPECT_GT(chains, 0u);
    EXPECT_EQ(rt.movedEntries(), ref.movedIds());
    EXPECT_EQ(rt.occupiedFastSlots(), ref.occupiedFast(fast));
    for (std::uint64_t id = 0; id < pages; ++id)
        ASSERT_NO_FATAL_FAILURE(expectSameAt(rt, ref, id));
    rt.checkConsistency();

    for (auto it = done.rbegin(); it != done.rend(); ++it)
        rt.swap(it->first, it->second);
    EXPECT_TRUE(rt.isIdentity());
    EXPECT_EQ(rt.movedEntries(), 0u);
    EXPECT_EQ(rt.occupiedFastSlots(), 0u);
    rt.checkConsistency();
}

TEST(RemapTable, SparseMatchesDenseAtSmallSizes)
{
    const std::pair<std::uint64_t, std::uint64_t> sizes[] = {
        {2, 1}, {16, 4}, {64, 8}, {257, 31}, {512, 512}};
    for (const auto &[pages, fast] : sizes) {
        SCOPED_TRACE(testing::Message() << pages << "/" << fast);
        runDifferential(pages, fast, 1500, 7 + pages, true);
    }
}

TEST(RemapTable, SparseMatchesDenseAtPaperScale)
{
    runDifferential(1179648, 131072, 40000, 42, false);
}

TEST(RemapTableDeathTest, OutOfRangePanics)
{
    RemapTable rt(10, 2);
    EXPECT_DEATH(rt.locationOf(10), "range");
    EXPECT_DEATH(rt.swap(0, 10), "range");
}

} // namespace
} // namespace mempod
