/** @file Unit tests for the migration driver/datapath. */
#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.h"
#include "core/migration_engine.h"

namespace mempod {
namespace {

struct EngineFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};
};

TEST_F(EngineFixture, PageSwapIssuesFullDatapathTraffic)
{
    MigrationEngine eng(eq, mem, 1);
    bool committed = false;
    MigrationEngine::SwapOp op;
    op.locA = 16_MiB; // a slow page
    op.locB = 0;      // a fast page
    op.lines = static_cast<std::uint32_t>(kLinesPerPage);
    op.onCommit = [&] { committed = true; };
    eng.submit(std::move(op));
    eq.runAll();
    EXPECT_TRUE(committed);
    // 32 reads + 32 writes per candidate, both candidates: the paper's
    // 2 KB migration datapath (Section 6.2).
    EXPECT_EQ(mem.stats().migrationLines(), 4 * kLinesPerPage);
    EXPECT_EQ(eng.stats().opsCommitted, 1u);
    EXPECT_EQ(eng.stats().bytesMoved, 2 * kPageBytes);
}

TEST_F(EngineFixture, LineSwapMovesTwoLines)
{
    MigrationEngine eng(eq, mem, 1);
    MigrationEngine::SwapOp op;
    op.locA = 16_MiB;
    op.locB = 64;
    op.lines = 1;
    eng.submit(std::move(op));
    eq.runAll();
    EXPECT_EQ(mem.stats().migrationLines(), 4u); // 2 reads + 2 writes
    EXPECT_EQ(eng.stats().bytesMoved, 2 * kLineBytes);
}

TEST_F(EngineFixture, OpsSerializeWithSingleSlot)
{
    MigrationEngine eng(eq, mem, 1);
    std::vector<int> commits;
    for (int i = 0; i < 3; ++i) {
        MigrationEngine::SwapOp op;
        op.locA = 16_MiB + i * kPageBytes;
        op.locB = static_cast<Addr>(i) * kPageBytes;
        op.lines = 4;
        op.onCommit = [&, i] { commits.push_back(i); };
        eng.submit(std::move(op));
    }
    EXPECT_EQ(eng.activeOps(), 1u);
    EXPECT_EQ(eng.queuedOps(), 2u);
    eq.runAll();
    EXPECT_EQ(commits, (std::vector<int>{0, 1, 2}));
    EXPECT_FALSE(eng.busy());
}

TEST_F(EngineFixture, ParallelSlotsRunConcurrently)
{
    MigrationEngine eng(eq, mem, 4);
    for (int i = 0; i < 4; ++i) {
        MigrationEngine::SwapOp op;
        op.locA = 16_MiB + i * kPageBytes;
        op.locB = static_cast<Addr>(i) * kPageBytes;
        op.lines = 2;
        eng.submit(std::move(op));
    }
    EXPECT_EQ(eng.activeOps(), 4u);
    EXPECT_EQ(eng.queuedOps(), 0u);
    eq.runAll();
    EXPECT_EQ(eng.stats().opsCommitted, 4u);
}

TEST_F(EngineFixture, ClearQueuedAbortsWithoutCommitting)
{
    MigrationEngine eng(eq, mem, 1);
    int committed = 0, aborted = 0;
    for (int i = 0; i < 3; ++i) {
        MigrationEngine::SwapOp op;
        op.locA = 16_MiB + i * kPageBytes;
        op.locB = static_cast<Addr>(i) * kPageBytes;
        op.lines = 2;
        op.onCommit = [&] { ++committed; };
        op.onAbort = [&] { ++aborted; };
        eng.submit(std::move(op));
    }
    eng.clearQueued(); // two queued ops dropped; the active one runs
    eq.runAll();
    EXPECT_EQ(committed, 1);
    EXPECT_EQ(aborted, 2);
    EXPECT_EQ(eng.stats().opsDropped, 2u);
}

TEST_F(EngineFixture, WritesFollowReads)
{
    // The commit happens only after both phases: total migration lines
    // at commit time must be all reads plus all writes.
    MigrationEngine eng(eq, mem, 1);
    std::uint64_t lines_at_commit = 0;
    MigrationEngine::SwapOp op;
    op.locA = 16_MiB;
    op.locB = 0;
    op.lines = 8;
    op.onCommit = [&] { lines_at_commit = mem.stats().migrationLines(); };
    eng.submit(std::move(op));
    eq.runAll();
    EXPECT_EQ(lines_at_commit, 32u); // 16 reads + 16 writes dispatched
}

TEST_F(EngineFixture, FreedSlotStartsNextOp)
{
    MigrationEngine eng(eq, mem, 1);
    bool second_started_after_first = false;
    bool first_done = false;
    MigrationEngine::SwapOp a, b;
    a.locA = 16_MiB;
    a.locB = 0;
    a.lines = 2;
    a.onCommit = [&] { first_done = true; };
    b.locA = 17_MiB;
    b.locB = kPageBytes;
    b.lines = 2;
    b.onCommit = [&] { second_started_after_first = first_done; };
    eng.submit(std::move(a));
    eng.submit(std::move(b));
    eq.runAll();
    EXPECT_TRUE(second_started_after_first);
}

TEST_F(EngineFixture, DestroyedWithOpInFlightFreesItsState)
{
    // The engine owns its started ops; line requests still queued in
    // the channels hold only {engine, op} and are dropped unrun when
    // the memory system goes away. The sanitizer build checks that
    // nothing leaks.
    {
        MigrationEngine eng(eq, mem, 1);
        for (int i = 0; i < 2; ++i) {
            MigrationEngine::SwapOp op;
            op.locA = 16_MiB + i * kPageBytes;
            op.locB = static_cast<Addr>(i) * kPageBytes;
            op.lines = static_cast<std::uint32_t>(kLinesPerPage);
            eng.submit(std::move(op));
        }
        eq.runAll(50);
        EXPECT_EQ(eng.activeOps(), 1u);
        EXPECT_EQ(eng.queuedOps(), 1u);
        EXPECT_GT(mem.inFlight(), 0u);
    }
}

/**
 * Over the functional model every line completes inside access(), so
 * a whole swap — both phases and its commit — runs inside submit().
 */
struct SyncEngineFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600(), 5000, {}, nullptr,
                     ModelPlan{DramModel::kFunctional}};

    static MigrationEngine::SwapOp
    pageSwap(int i)
    {
        MigrationEngine::SwapOp op;
        op.locA = 16_MiB + i * kPageBytes;
        op.locB = static_cast<Addr>(i) * kPageBytes;
        op.lines = static_cast<std::uint32_t>(kLinesPerPage);
        return op;
    }
};

TEST_F(SyncEngineFixture, SwapCommitsExactlyOnceInsideSubmit)
{
    MigrationEngine eng(eq, mem, 1);
    int commits = 0;
    std::uint64_t lines_at_commit = 0;
    MigrationEngine::SwapOp op = pageSwap(0);
    op.onCommit = [&] {
        ++commits;
        lines_at_commit = mem.stats().migrationLines();
    };
    eng.submit(std::move(op));
    EXPECT_EQ(commits, 1);
    EXPECT_EQ(lines_at_commit, 4 * kLinesPerPage);
    EXPECT_FALSE(eng.busy());
    EXPECT_EQ(eng.stats().opsCommitted, 1u);
    EXPECT_EQ(eng.stats().bytesMoved, 2 * kPageBytes);
    EXPECT_EQ(mem.inFlight(), 0u);
    EXPECT_TRUE(eq.empty());
    eq.runAll();
    EXPECT_EQ(commits, 1);
}

TEST_F(SyncEngineFixture, QueuedOpStartsFromInsideOnCommit)
{
    // The first op's commit submits a second: it queues behind the
    // slot the first still holds, then runs to its own commit as soon
    // as that slot frees — all inside the outer submit().
    MigrationEngine eng(eq, mem, 1);
    std::vector<int> order;
    MigrationEngine::SwapOp a = pageSwap(0);
    a.onCommit = [&] {
        order.push_back(1);
        MigrationEngine::SwapOp b = pageSwap(1);
        b.onStart = [&] { order.push_back(3); };
        b.onCommit = [&] { order.push_back(4); };
        eng.submit(std::move(b));
        EXPECT_EQ(eng.queuedOps(), 1u);
        order.push_back(2);
    };
    eng.submit(std::move(a));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eng.stats().opsCommitted, 2u);
    EXPECT_FALSE(eng.busy());
    EXPECT_EQ(mem.stats().migrationLines(), 8 * kLinesPerPage);
}

TEST_F(SyncEngineFixture, OpCommitsInsideAnotherOpsCommit)
{
    // With a free slot the nested op starts and commits inside the
    // outer op's onCommit, while the outer op is still in flight.
    MigrationEngine eng(eq, mem, 2);
    std::vector<int> order;
    MigrationEngine::SwapOp a = pageSwap(0);
    a.onCommit = [&] {
        MigrationEngine::SwapOp b = pageSwap(1);
        b.onCommit = [&] { order.push_back(2); };
        eng.submit(std::move(b));
        order.push_back(1);
    };
    eng.submit(std::move(a));
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
    EXPECT_EQ(eng.stats().opsCommitted, 2u);
    EXPECT_FALSE(eng.busy());
}

} // namespace
} // namespace mempod
