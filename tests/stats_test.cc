/** @file Unit tests for the log2 histogram. */
#include <gtest/gtest.h>

#include "common/stats.h"

namespace mempod {
namespace {

TEST(Log2Histogram, CountsSamples)
{
    Log2Histogram h;
    for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull})
        h.sample(v);
    EXPECT_EQ(h.count(), 5u);
}

TEST(Log2Histogram, PercentileMonotone)
{
    Log2Histogram h;
    for (std::uint64_t i = 0; i < 1000; ++i)
        h.sample(i);
    EXPECT_LE(h.percentile(0.5), h.percentile(0.9));
    EXPECT_LE(h.percentile(0.9), h.percentile(1.0));
}

TEST(Log2Histogram, PercentileBracketsMedian)
{
    Log2Histogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(64); // all in bucket [64,128)
    const auto p50 = h.percentile(0.5);
    EXPECT_GE(p50, 64u);
    EXPECT_LE(p50, 127u);
}

TEST(Log2Histogram, PercentileInterpolatesWithinBucket)
{
    Log2Histogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(64); // bucket [64,128), span 64
    // Rank position q*count lands a fraction q into the bucket:
    // 64 + q * 64.
    EXPECT_EQ(h.percentile(0.25), 80u);
    EXPECT_EQ(h.percentile(0.5), 96u);
    EXPECT_EQ(h.percentile(0.75), 112u);
}

TEST(Log2Histogram, PercentileClampsToBucketTop)
{
    Log2Histogram h;
    for (std::uint64_t i = 0; i < 1000; ++i)
        h.sample(i);
    // q=1 interpolates to the exclusive top of the last occupied
    // bucket [512,1024); the result must stay inside it.
    EXPECT_EQ(h.percentile(1.0), 1023u);
}

TEST(Log2Histogram, PercentileZeroBucket)
{
    Log2Histogram h;
    h.sample(0);
    h.sample(0);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(Log2Histogram, BucketsAccessorExposesCounts)
{
    Log2Histogram h;
    h.sample(0); // bucket 0
    h.sample(1); // bucket 1
    h.sample(3); // bucket 2: [2,4)
    const auto &b = h.buckets();
    ASSERT_GE(b.size(), 3u);
    EXPECT_EQ(b[0], 1u);
    EXPECT_EQ(b[1], 1u);
    EXPECT_EQ(b[2], 1u);
}

TEST(Log2Histogram, EmptyPercentileIsZero)
{
    Log2Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Log2Histogram, ToStringMentionsBuckets)
{
    Log2Histogram h;
    h.sample(5);
    EXPECT_NE(h.toString().find(':'), std::string::npos);
}

} // namespace
} // namespace mempod
