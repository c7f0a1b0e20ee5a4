/**
 * @file Exactness of the reciprocal Divisor against hardware `/` and
 * `%`: edge divisors at edge numerators, then seeded random pairs.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/divisor.h"
#include "common/rng.h"

namespace mempod {
namespace {

constexpr std::uint64_t kMax = ~std::uint64_t{0};

void
expectExact(const Divisor &d, std::uint64_t n)
{
    const std::uint64_t v = d.value();
    ASSERT_EQ(d.div(n), n / v) << n << " / " << v;
    ASSERT_EQ(d.mod(n), n % v) << n << " % " << v;
    const auto [q, r] = d.divmod(n);
    ASSERT_EQ(q, n / v) << n << " / " << v;
    ASSERT_EQ(r, n % v) << n << " % " << v;
}

TEST(Divisor, EdgeDivisorsAtEdgeNumerators)
{
    std::vector<std::uint64_t> divisors = {1, 2, 3, 7, std::uint64_t{1} << 63,
                                           kMax};
    for (int k = 1; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        divisors.push_back(p);
        divisors.push_back(p - 1);
        divisors.push_back(p + 1);
    }
    for (const std::uint64_t d : divisors) {
        const Divisor div(d);
        for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                                      d - 1, d, d + 1, kMax, kMax - 1})
            expectExact(div, n);
    }
}

TEST(Divisor, DefaultDividesByOne)
{
    const Divisor d;
    EXPECT_EQ(d.value(), 1u);
    expectExact(d, kMax);
}

TEST(Divisor, MatchesHardwareOnRandomPairs)
{
    Rng rng(42);
    for (int i = 0; i < 1'000'000; ++i) {
        // Mix divisor widths so small geometry-like values and full
        // 64-bit ones both get coverage.
        const int bits = 1 + static_cast<int>(rng.nextBelow(64));
        std::uint64_t d = rng.next() >> (64 - bits);
        if (d == 0)
            d = 1;
        const std::uint64_t n = i % 2 ? rng.next()
                                      : rng.next() >> rng.nextBelow(64);
        expectExact(Divisor(d), n);
    }
}

TEST(DivisorDeathTest, ZeroPanics)
{
    EXPECT_DEATH(Divisor(0), "division by zero");
}

} // namespace
} // namespace mempod
