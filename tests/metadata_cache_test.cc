/** @file Unit tests for the bookkeeping cache and its miss path. */
#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.h"
#include "sim/metadata_path.h"

namespace mempod {
namespace {

TEST(MetadataCache, PacksEntriesIntoBlocks)
{
    MetadataCache c(1024, 4, 4);
    EXPECT_EQ(c.entriesPerBlock(), 16u);
    EXPECT_EQ(c.blockOf(0), 0u);
    EXPECT_EQ(c.blockOf(15), 0u);
    EXPECT_EQ(c.blockOf(16), 1u);
}

TEST(MetadataCache, MissThenHitAfterFill)
{
    MetadataCache c(1024, 4, 4);
    EXPECT_FALSE(c.lookup(5));
    c.fill(5);
    EXPECT_TRUE(c.lookup(5));
    // Same block: entry 6 also hits.
    EXPECT_TRUE(c.lookup(6));
    // Different block: miss.
    EXPECT_FALSE(c.lookup(100));
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(MetadataCache, LruEvictsColdest)
{
    // Direct-mapped-ish: 1 set with 2 ways.
    MetadataCache c(128, 2, 64);
    c.fill(0);
    c.fill(1);
    EXPECT_TRUE(c.lookup(0)); // 0 now MRU
    c.fill(2);                // evicts 1 (LRU)
    EXPECT_TRUE(c.lookup(0));
    EXPECT_FALSE(c.lookup(1));
    EXPECT_TRUE(c.lookup(2));
}

TEST(MetadataCache, DoubleFillIsIdempotent)
{
    MetadataCache c(128, 2, 64);
    c.fill(0);
    c.fill(0);
    EXPECT_TRUE(c.lookup(0));
}

TEST(MetadataCacheDeathTest, BadParamsPanic)
{
    EXPECT_DEATH(MetadataCache(64, 2, 128), "entry size");
    EXPECT_DEATH(MetadataCache(64, 4, 4), "smaller");
}

struct PathFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};
    MigrationStats stats;
};

TEST_F(PathFixture, MissInjectsExactlyOneBlockingRead)
{
    MetadataPath path(eq, mem, stats, 1024, 4, 4,
                      [](std::uint64_t block) { return block * 64; });
    int ready = 0;
    path.access(7, [&] { ++ready; });
    EXPECT_EQ(ready, 0); // blocked on the fill
    EXPECT_EQ(path.outstandingFills(), 1u);
    eq.runAll();
    EXPECT_EQ(ready, 1);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u);
}

TEST_F(PathFixture, HitRunsSynchronously)
{
    MetadataPath path(eq, mem, stats, 1024, 4, 4,
                      [](std::uint64_t block) { return block * 64; });
    path.access(7, [] {});
    eq.runAll();
    int ready = 0;
    path.access(7, [&] { ++ready; });
    EXPECT_EQ(ready, 1); // no event needed
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u);
}

TEST_F(PathFixture, ConcurrentMissesToOneBlockPiggyback)
{
    MetadataPath path(eq, mem, stats, 1024, 4, 4,
                      [](std::uint64_t block) { return block * 64; });
    int ready = 0;
    path.access(8, [&] { ++ready; });
    path.access(9, [&] { ++ready; }); // same 16-entry block
    EXPECT_EQ(path.outstandingFills(), 1u);
    eq.runAll();
    EXPECT_EQ(ready, 2);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u); // one fill, two wakeups
}

TEST_F(PathFixture, BackingAddressMappingUsed)
{
    Addr asked = 0;
    MetadataPath path(eq, mem, stats, 1024, 4, 4,
                      [&](std::uint64_t block) {
                          asked = 4096 + block * 64;
                          return asked;
                      });
    path.access(40, [] {}); // block 2
    eq.runAll();
    EXPECT_EQ(asked, 4096u + 2 * 64);
}

TEST_F(PathFixture, PiggybackedMissesAreEachChargedTheirOwnWait)
{
    MetadataPath path(eq, mem, stats, 1024, 4, 4,
                      [](std::uint64_t block) { return block * 64; });
    std::vector<TimePs> ready_at;
    path.access(8, [&] { ready_at.push_back(eq.now()); }); // at t = 0
    const TimePs second = 3_ns;
    eq.schedule(second, [&] {
        path.access(9, [&] { ready_at.push_back(eq.now()); });
    });
    eq.runAll();
    ASSERT_EQ(ready_at.size(), 2u);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u); // one shared fill
    EXPECT_GT(ready_at[1], second);
    EXPECT_EQ(stats.metaCacheMisses, 2u);
    EXPECT_EQ(stats.metaCacheHits, 0u);
    EXPECT_EQ(stats.metadataPs, ready_at[0] + (ready_at[1] - second));
}

TEST_F(PathFixture, HitAndMissCountsMatchTheCache)
{
    MetadataPath path(eq, mem, stats, 1024, 4, 4,
                      [](std::uint64_t block) { return block * 64; });
    for (std::uint64_t entry : {7, 7, 100, 8, 100, 7, 300, 301})
        path.access(entry, [] {});
    eq.runAll();
    for (std::uint64_t entry : {7, 100, 300, 5000})
        path.access(entry, [] {});
    eq.runAll();
    EXPECT_GT(stats.metaCacheHits, 0u);
    EXPECT_GT(stats.metaCacheMisses, 0u);
    EXPECT_EQ(stats.metaCacheHits + stats.metaCacheMisses, 12u);
    EXPECT_EQ(stats.metaCacheHits + stats.metaCacheMisses,
              path.cache().hits() + path.cache().misses());
    EXPECT_EQ(stats.metaCacheHits, path.hits());
    EXPECT_EQ(stats.metaCacheMisses, path.misses());
}

} // namespace
} // namespace mempod
