/** @file Unit tests for the inline callable. */
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "common/callback.h"

namespace mempod {
namespace {

TEST(MoveFunction, EmptyIsFalseAndAssignable)
{
    MoveFunction<int()> f;
    EXPECT_FALSE(f);
    MoveFunction<int()> g = nullptr;
    EXPECT_FALSE(g);
    f = [] { return 7; };
    EXPECT_TRUE(f);
    EXPECT_EQ(f(), 7);
}

TEST(MoveFunction, InlineCaptureInvokes)
{
    int hits = 0;
    MoveFunction<void(int)> f = [&hits](int d) { hits += d; };
    f(3);
    f(4);
    EXPECT_EQ(hits, 7);
}

TEST(MoveFunction, MoveTransfersTarget)
{
    // A value type: a copy and a move both carry the target, and the
    // source stays callable (a move is the same byte copy).
    static_assert(std::is_trivially_copyable_v<MoveFunction<int()>>);
    int hits = 0;
    MoveFunction<int()> f = [&hits] { return ++hits; };
    MoveFunction<int()> g = f;
    ASSERT_TRUE(g);
    EXPECT_EQ(g(), 1);

    MoveFunction<int()> h = std::move(f);
    ASSERT_TRUE(h);
    EXPECT_EQ(h(), 2);

    MoveFunction<int()> k;
    k = std::move(g);
    ASSERT_TRUE(k);
    EXPECT_EQ(k(), 3);
    EXPECT_EQ(hits, 3);
}

} // namespace
} // namespace mempod
