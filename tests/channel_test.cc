/** @file Unit tests for the FR-FCFS channel controller. */
#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "completion_fns.h"
#include "dram/channel.h"

namespace mempod {
namespace {

constexpr TimePs kExtra = 5000;

struct ChannelFixture : ::testing::Test
{
    CompletionFns fns;
    EventQueue eq;
    DramSpec spec = DramSpec::hbm1GHz().withChannelBytes(2_MiB);
    Channel ch{eq, spec, "test", kExtra};

    TimePs
    issueAndFinish(Addr tag, AccessType type, std::uint32_t bank,
                   std::int64_t row)
    {
        TimePs finish = 0;
        Request req;
        req.addr = tag;
        req.type = type;
        req.done = fns.add([&](TimePs f) { finish = f; });
        ch.enqueue(std::move(req), ChannelAddr{bank, row});
        eq.runAll();
        return finish;
    }
};

TEST_F(ChannelFixture, SingleReadLatencyIsIdealPlusInterconnect)
{
    const TimePs finish = issueAndFinish(0, AccessType::kRead, 0, 0);
    EXPECT_EQ(finish, spec.idealReadLatencyPs() + kExtra);
    EXPECT_EQ(ch.stats().reads, 1u);
    EXPECT_EQ(ch.stats().rowMisses, 1u);
}

TEST_F(ChannelFixture, RowHitIsFasterThanRowMiss)
{
    const TimePs first = issueAndFinish(0, AccessType::kRead, 0, 5);
    const TimePs start2 = eq.now();
    const TimePs hit = issueAndFinish(64, AccessType::kRead, 0, 5);
    const TimePs start3 = eq.now();
    const TimePs miss = issueAndFinish(128, AccessType::kRead, 0, 9);
    EXPECT_LT(hit - start2, miss - start3);
    EXPECT_GT(first, 0u);
    EXPECT_EQ(ch.stats().rowHits, 1u);
    EXPECT_EQ(ch.stats().rowMisses, 2u);
}

TEST_F(ChannelFixture, WritesComplete)
{
    const TimePs finish = issueAndFinish(0, AccessType::kWrite, 1, 3);
    EXPECT_GT(finish, 0u);
    EXPECT_EQ(ch.stats().writes, 1u);
}

TEST_F(ChannelFixture, AllQueuedRequestsComplete)
{
    int completed = 0;
    for (int i = 0; i < 64; ++i) {
        Request req;
        req.addr = static_cast<Addr>(i) * 64;
        req.type = i % 3 == 0 ? AccessType::kWrite : AccessType::kRead;
        req.done = fns.add([&](TimePs) { ++completed; });
        ch.enqueue(std::move(req),
                   ChannelAddr{static_cast<std::uint32_t>(i % 16),
                               i % 4});
    }
    eq.runAll();
    EXPECT_EQ(completed, 64);
    EXPECT_TRUE(ch.idle());
    EXPECT_EQ(ch.stats().reads + ch.stats().writes, 64u);
}

TEST_F(ChannelFixture, SameBankConflictSerializesViaPrecharge)
{
    TimePs f1 = 0, f2 = 0;
    Request a, b;
    a.done = fns.add([&](TimePs f) { f1 = f; });
    b.done = fns.add([&](TimePs f) { f2 = f; });
    ch.enqueue(std::move(a), ChannelAddr{0, 0});
    ch.enqueue(std::move(b), ChannelAddr{0, 7});
    eq.runAll();
    EXPECT_GT(f2, f1);
    EXPECT_EQ(ch.stats().precharges, 1u);
    // The conflicting access pays at least tRP + tRCD beyond the first.
    EXPECT_GE(f2 - f1,
              spec.timing.tRP + spec.timing.tRCD);
}

TEST_F(ChannelFixture, BankParallelismBeatsSerialization)
{
    // Two requests to different banks finish sooner than two
    // conflicting requests to the same bank.
    EventQueue eq2;
    Channel two_banks(eq2, spec, "par", kExtra);
    TimePs last_par = 0;
    for (std::uint32_t b : {0u, 1u}) {
        Request r;
        r.done = fns.add([&](TimePs f) { last_par = std::max(last_par, f); });
        two_banks.enqueue(std::move(r), ChannelAddr{b, 0});
    }
    eq2.runAll();

    EventQueue eq3;
    Channel one_bank(eq3, spec, "ser", kExtra);
    TimePs last_ser = 0;
    for (std::int64_t row : {0, 1}) {
        Request r;
        r.done = fns.add([&](TimePs f) { last_ser = std::max(last_ser, f); });
        one_bank.enqueue(std::move(r), ChannelAddr{0, row});
    }
    eq3.runAll();
    EXPECT_LT(last_par, last_ser);
}

TEST_F(ChannelFixture, RefreshOccursUnderSteadyTraffic)
{
    // Drive traffic past several tREFI windows.
    const std::uint64_t refi_ps = spec.timing.tREFI;
    std::uint64_t issued = 0;
    std::function<void()> feeder = [&] {
        if (eq.now() > 5 * refi_ps)
            return;
        Request r;
        r.done = fns.add([](TimePs) {});
        ch.enqueue(std::move(r),
                   ChannelAddr{static_cast<std::uint32_t>(issued % 16),
                               static_cast<std::int64_t>(issued % 8)});
        ++issued;
        eq.scheduleAfter(refi_ps / 20, [&feeder] { feeder(); });
    };
    eq.schedule(0, [&feeder] { feeder(); });
    eq.runAll();
    EXPECT_GE(ch.stats().refreshes, 4u);
}

// tREFI == 0 turns refresh off. It used to refresh on every tick (the
// next refresh was "due" at time 0 forever) and never issue again.
TEST_F(ChannelFixture, ZeroRefreshIntervalDrainsWithoutRefreshing)
{
    DramSpec off = spec;
    off.timing.tREFI = 0;
    EventQueue q;
    Channel c(q, off, "norefresh", kExtra);
    Rng rng(17);
    const std::uint32_t banks = off.org.totalBanks();
    constexpr int kRequests = 2000;
    std::vector<ChannelAddr> at;
    std::vector<AccessType> type;
    int completed = 0;
    auto enqueue = [&](int i) {
        Request r;
        r.type = type[i];
        r.done = fns.add([&completed](TimePs) { ++completed; });
        c.enqueue(std::move(r), at[i]);
    };
    TimePs t = 0;
    for (int i = 0; i < kRequests; ++i) {
        // Spread over ~5 default refresh intervals.
        t += rng.nextBelow(10 * spec.timing.tREFI / kRequests);
        at.push_back({static_cast<std::uint32_t>(rng.nextBelow(banks)),
                      static_cast<std::int64_t>(rng.nextBelow(8))});
        type.push_back(rng.nextBool(0.3) ? AccessType::kWrite
                                         : AccessType::kRead);
        q.schedule(t, [&enqueue, i] { enqueue(i); });
    }
    q.runAll(10'000'000); // bounded: a livelock fails, not hangs
    EXPECT_EQ(completed, kRequests);
    EXPECT_TRUE(c.idle());
    EXPECT_EQ(c.stats().refreshes, 0u);
}

TEST_F(ChannelFixture, DeterministicAcrossRuns)
{
    auto run = [this]() {
        EventQueue q;
        Channel c(q, spec, "det", kExtra);
        std::vector<TimePs> finishes;
        for (int i = 0; i < 32; ++i) {
            Request r;
            r.type = i % 2 ? AccessType::kWrite : AccessType::kRead;
            r.done = fns.add([&](TimePs f) { finishes.push_back(f); });
            c.enqueue(std::move(r),
                      ChannelAddr{static_cast<std::uint32_t>(i % 4),
                                  i % 3});
        }
        q.runAll();
        return finishes;
    };
    EXPECT_EQ(run(), run());
}

TEST_F(ChannelFixture, RowHitRateHighForSequentialStream)
{
    for (int i = 0; i < 128; ++i) {
        Request r;
        r.done = fns.add([](TimePs) {});
        // 128 consecutive lines in one row.
        ch.enqueue(std::move(r), ChannelAddr{0, 0});
    }
    eq.runAll();
    EXPECT_GT(ch.rowHitRate(), 0.9);
}

TEST_F(ChannelFixture, MaxQueueDepthTracked)
{
    for (int i = 0; i < 10; ++i) {
        Request r;
        r.done = fns.add([](TimePs) {});
        ch.enqueue(std::move(r), ChannelAddr{0, 0});
    }
    EXPECT_GE(ch.stats().maxQueueDepth, 10u);
    eq.runAll();
}

TEST_F(ChannelFixture, ReadsHavePriorityOverWrites)
{
    TimePs wr_done = 0, rd_done = 0;
    Request w, r;
    w.type = AccessType::kWrite;
    w.done = fns.add([&](TimePs f) { wr_done = f; });
    r.type = AccessType::kRead;
    r.done = fns.add([&](TimePs f) { rd_done = f; });
    // Write enqueued first, but below the drain watermark the read
    // queue is served first.
    ch.enqueue(std::move(w), ChannelAddr{0, 0});
    ch.enqueue(std::move(r), ChannelAddr{0, 0});
    eq.runAll();
    EXPECT_LT(rd_done, wr_done);
}

TEST_F(ChannelFixture, WriteBurstTriggersDrainMode)
{
    // Saturate the write queue past the high watermark, then add one
    // read: the drain should let several writes go before the read.
    int writes_before_read = 0;
    bool read_done = false;
    for (int i = 0; i < 24; ++i) {
        Request w;
        w.type = AccessType::kWrite;
        w.done = fns.add([&](TimePs) {
            if (!read_done)
                ++writes_before_read;
        });
        ch.enqueue(std::move(w),
                   ChannelAddr{static_cast<std::uint32_t>(i % 8), 0});
    }
    Request r;
    r.type = AccessType::kRead;
    r.done = fns.add([&](TimePs) { read_done = true; });
    ch.enqueue(std::move(r), ChannelAddr{0, 0});
    eq.runAll();
    EXPECT_GT(writes_before_read, 0);
}

} // namespace
} // namespace mempod
