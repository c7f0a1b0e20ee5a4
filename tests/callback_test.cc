/** @file Unit tests for the move-only inline callable. */
#include <gtest/gtest.h>

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
    MoveFunction<int()> f = [] { return 5; };
    MoveFunction<int()> g = std::move(f);
    EXPECT_FALSE(f); // NOLINT(bugprone-use-after-move): spec'd empty
    ASSERT_TRUE(g);
    EXPECT_EQ(g(), 5);

    MoveFunction<int()> h;
    h = std::move(g);
    EXPECT_FALSE(g); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(h(), 5);
}

} // namespace
} // namespace mempod
