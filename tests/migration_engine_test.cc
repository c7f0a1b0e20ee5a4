/** @file Unit tests for the migration driver/datapath. */
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "core/migration_engine.h"

namespace mempod {
namespace {

constexpr auto kPageLines = static_cast<std::uint32_t>(kLinesPerPage);

/**
 * Test stand-in for a SwapGuard: logs what the engine tells it
 * ("start0", "commit0", "abort1", by key) and runs the closure the
 * test registered for a key's start or commit.
 */
class FakeOwner final : public SwapOwner
{
  public:
    std::vector<std::string> log;
    std::map<std::uint64_t, std::function<void()>> onStart;
    std::map<std::uint64_t, std::function<void()>> onCommit;

    /** A swap of `lines` per side between two bases, owned by this. */
    MigrationEngine::SwapOp
    op(Addr a, Addr b, std::uint32_t lines, std::uint64_t key)
    {
        MigrationEngine::SwapOp o;
        o.locA = a;
        o.locB = b;
        o.lines = lines;
        o.owner = this;
        o.key = key;
        return o;
    }

    /** The i-th page swap: slow page i with fast page i. */
    MigrationEngine::SwapOp
    pageSwap(int i, std::uint32_t lines = kPageLines)
    {
        return op(16_MiB + i * kPageBytes,
                  static_cast<Addr>(i) * kPageBytes, lines,
                  static_cast<std::uint64_t>(i));
    }

    void
    start(std::uint64_t key) override
    {
        log.push_back("start" + std::to_string(key));
        if (auto it = onStart.find(key); it != onStart.end())
            it->second();
    }

    void
    finish(std::uint64_t key, bool committed) override
    {
        log.push_back((committed ? "commit" : "abort") +
                      std::to_string(key));
        if (!committed)
            return;
        if (auto it = onCommit.find(key); it != onCommit.end())
            it->second();
    }

    std::size_t
    count(const std::string &prefix) const
    {
        std::size_t n = 0;
        for (const std::string &e : log)
            n += e.rfind(prefix, 0) == 0;
        return n;
    }
};

struct EngineFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};
    FakeOwner owner;
};

TEST_F(EngineFixture, PageSwapIssuesFullDatapathTraffic)
{
    MigrationEngine eng(eq, mem, 1);
    eng.submit(owner.op(16_MiB, 0, kPageLines, 7));
    eq.runAll();
    EXPECT_EQ(owner.log, (std::vector<std::string>{"start7", "commit7"}));
    // 32 reads + 32 writes per candidate, both candidates: the paper's
    // 2 KB migration datapath (Section 6.2).
    EXPECT_EQ(mem.stats().migrationLines(), 4 * kLinesPerPage);
    EXPECT_EQ(eng.stats().opsCommitted, 1u);
    EXPECT_EQ(eng.stats().bytesMoved, 2 * kPageBytes);
}

TEST_F(EngineFixture, LineSwapMovesTwoLines)
{
    MigrationEngine eng(eq, mem, 1);
    eng.submit(owner.op(16_MiB, 64, 1, 0));
    eq.runAll();
    EXPECT_EQ(mem.stats().migrationLines(), 4u); // 2 reads + 2 writes
    EXPECT_EQ(eng.stats().bytesMoved, 2 * kLineBytes);
}

TEST_F(EngineFixture, OpsSerializeWithSingleSlot)
{
    MigrationEngine eng(eq, mem, 1);
    for (int i = 0; i < 3; ++i)
        eng.submit(owner.pageSwap(i, 4));
    EXPECT_EQ(eng.activeOps(), 1u);
    EXPECT_EQ(eng.queuedOps(), 2u);
    eq.runAll();
    EXPECT_EQ(owner.log,
              (std::vector<std::string>{"start0", "commit0", "start1",
                                        "commit1", "start2",
                                        "commit2"}));
    EXPECT_FALSE(eng.busy());
}

TEST_F(EngineFixture, ParallelSlotsRunConcurrently)
{
    MigrationEngine eng(eq, mem, 4);
    for (int i = 0; i < 4; ++i)
        eng.submit(owner.pageSwap(i, 2));
    EXPECT_EQ(eng.activeOps(), 4u);
    EXPECT_EQ(eng.queuedOps(), 0u);
    EXPECT_EQ(owner.count("start"), 4u);
    eq.runAll();
    EXPECT_EQ(eng.stats().opsCommitted, 4u);
}

TEST_F(EngineFixture, ClearQueuedAbortsWithoutCommitting)
{
    MigrationEngine eng(eq, mem, 1);
    for (int i = 0; i < 3; ++i)
        eng.submit(owner.pageSwap(i, 2));
    eng.clearQueued(); // two queued ops dropped; the active one runs
    eq.runAll();
    EXPECT_EQ(owner.log, (std::vector<std::string>{"start0", "abort1",
                                                   "abort2", "commit0"}));
    EXPECT_EQ(eng.stats().opsDropped, 2u);
}

TEST_F(EngineFixture, WritesFollowReads)
{
    // The commit happens only after both phases: total migration lines
    // at commit time must be all reads plus all writes.
    MigrationEngine eng(eq, mem, 1);
    std::uint64_t lines_at_commit = 0;
    owner.onCommit[0] = [&] {
        lines_at_commit = mem.stats().migrationLines();
    };
    eng.submit(owner.op(16_MiB, 0, 8, 0));
    eq.runAll();
    EXPECT_EQ(lines_at_commit, 32u); // 16 reads + 16 writes dispatched
}

TEST_F(EngineFixture, FreedSlotStartsNextOp)
{
    MigrationEngine eng(eq, mem, 1);
    bool second_started_after_first = false;
    bool first_done = false;
    owner.onCommit[0] = [&] { first_done = true; };
    owner.onStart[1] = [&] { second_started_after_first = first_done; };
    eng.submit(owner.op(16_MiB, 0, 2, 0));
    eng.submit(owner.op(17_MiB, kPageBytes, 2, 1));
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
        for (int i = 0; i < 2; ++i)
            eng.submit(owner.pageSwap(i));
        eq.runAll(50);
        EXPECT_EQ(eng.activeOps(), 1u);
        EXPECT_EQ(eng.queuedOps(), 1u);
        EXPECT_GT(mem.inFlight(), 0u);
    }
}

/**
 * Over a sampled system switched to its warm models every line
 * completes inside access(), so a whole swap — both phases and its
 * commit — runs inside submit().
 */
struct SyncEngineFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq,
                     SystemGeometry::tiny(),
                     DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600(),
                     5000,
                     {},
                     nullptr,
                     DramModel::kDetailed,
                     /*sampled=*/true};
    FakeOwner owner;

    SyncEngineFixture() { mem.setWarm(true); }
};

TEST_F(SyncEngineFixture, SwapCommitsExactlyOnceInsideSubmit)
{
    MigrationEngine eng(eq, mem, 1);
    std::uint64_t lines_at_commit = 0;
    owner.onCommit[0] = [&] {
        lines_at_commit = mem.stats().migrationLines();
    };
    eng.submit(owner.pageSwap(0));
    EXPECT_EQ(owner.log, (std::vector<std::string>{"start0", "commit0"}));
    EXPECT_EQ(lines_at_commit, 4 * kLinesPerPage);
    EXPECT_FALSE(eng.busy());
    EXPECT_EQ(eng.stats().opsCommitted, 1u);
    EXPECT_EQ(eng.stats().bytesMoved, 2 * kPageBytes);
    EXPECT_EQ(mem.inFlight(), 0u);
    EXPECT_TRUE(eq.empty());
    eq.runAll();
    EXPECT_EQ(owner.count("commit"), 1u);
}

TEST_F(SyncEngineFixture, QueuedOpStartsFromInsideOnCommit)
{
    // The first op's commit submits a second: it queues behind the
    // slot the first still holds, then runs to its own commit as soon
    // as that slot frees — all inside the outer submit().
    MigrationEngine eng(eq, mem, 1);
    owner.onCommit[0] = [&] {
        eng.submit(owner.pageSwap(1));
        EXPECT_EQ(eng.queuedOps(), 1u);
        owner.log.push_back("submitted1");
    };
    eng.submit(owner.pageSwap(0));
    EXPECT_EQ(owner.log,
              (std::vector<std::string>{"start0", "commit0", "submitted1",
                                        "start1", "commit1"}));
    EXPECT_EQ(eng.stats().opsCommitted, 2u);
    EXPECT_FALSE(eng.busy());
    EXPECT_EQ(mem.stats().migrationLines(), 8 * kLinesPerPage);
}

TEST_F(SyncEngineFixture, OpCommitsInsideAnotherOpsCommit)
{
    // With a free slot the nested op starts and commits inside the
    // outer op's commit, while the outer op is still in flight.
    MigrationEngine eng(eq, mem, 2);
    owner.onCommit[0] = [&] {
        eng.submit(owner.pageSwap(1));
        owner.log.push_back("submitted1");
    };
    eng.submit(owner.pageSwap(0));
    EXPECT_EQ(owner.log,
              (std::vector<std::string>{"start0", "commit0", "start1",
                                        "commit1", "submitted1"}));
    EXPECT_EQ(eng.stats().opsCommitted, 2u);
    EXPECT_FALSE(eng.busy());
}

} // namespace
} // namespace mempod
