/**
 * @file
 * Protocol-conformance tests: scripted command sequences through one
 * bank / one channel, asserting exact state transitions and ready
 * times hand-computed from the spec. Unlike the behavioural channel
 * tests these pin the precise picosecond schedule, so any change to
 * the timing tables or the arbitration order shows up as an exact
 * number, not a vague slowdown.
 *
 * HBM-1GHz reference values (all ps): tCL=7000 tCWL=5000 tRCD=7000
 * tRP=7000 tRAS=17000 tBL=2000 tCCD=2000 tWR=8000 tWTR=4000 tRTP=4000
 * tRTW=2000 tRRD=4000 tFAW=16000 tREFI=3.9e6 tRFC=260000.
 */
#include <gtest/gtest.h>

#include "common/event_queue.h"
#include "completion_fns.h"
#include "dram/bank.h"
#include "dram/channel.h"

namespace mempod {
namespace {

DramSpec
hbm()
{
    return DramSpec::hbm1GHz().withChannelBytes(2_MiB);
}

TimePs
enqueueRead(Channel &ch, std::uint32_t bank, std::int64_t row,
            TimePs *out)
{
    static CompletionFns fns; // outlives every channel built here
    Request r;
    r.done = fns.add([out](TimePs f) { *out = f; });
    ch.enqueue(std::move(r), ChannelAddr{bank, row});
    return 0;
}

TEST(DramProtocol, ColdReadFollowsActRcdCasBurst)
{
    // t=0 enqueue -> ACT@0 -> CAS@tRCD=7000 -> data end 7000+tCL+tBL.
    EventQueue eq;
    Channel ch(eq, hbm(), "p", /*extra_latency_ps=*/0);
    TimePs f = 0;
    enqueueRead(ch, 0, 0, &f);
    eq.runAll();
    EXPECT_EQ(f, 16'000u);
    EXPECT_EQ(ch.stats().activates, 1u);
    EXPECT_EQ(ch.stats().precharges, 0u);
    EXPECT_EQ(ch.stats().rowMisses, 1u);
}

TEST(DramProtocol, RowHitPipelinesAtCcdBehindFirstCas)
{
    // Two same-row reads: CAS1@7000, CAS2 gated by tCCD to 9000, so
    // the second burst ends exactly tCCD after the first (bus kept
    // 100% busy, no re-activation).
    EventQueue eq;
    Channel ch(eq, hbm(), "p", 0);
    TimePs f1 = 0, f2 = 0;
    enqueueRead(ch, 0, 0, &f1);
    enqueueRead(ch, 0, 0, &f2);
    eq.runAll();
    EXPECT_EQ(f1, 16'000u);
    EXPECT_EQ(f2, 18'000u);
    EXPECT_EQ(ch.stats().activates, 1u);
    EXPECT_EQ(ch.stats().rowHits, 1u);
}

TEST(DramProtocol, ConflictWaitsForRasPrechargesAndReactivates)
{
    // Read row0 then row5 on one bank. The conflicting PRE may only
    // issue once tRAS from the ACT has elapsed (17000 dominates the
    // read's tRTP at 7000+4000), then PRE@17000 -> ACT@24000 ->
    // CAS@31000 -> data end 40000.
    EventQueue eq;
    Channel ch(eq, hbm(), "p", 0);
    TimePs fa = 0, fb = 0;
    enqueueRead(ch, 0, 0, &fa);
    enqueueRead(ch, 0, 5, &fb);
    eq.runAll();
    EXPECT_EQ(fa, 16'000u);
    EXPECT_EQ(fb, 40'000u);
    EXPECT_EQ(ch.stats().activates, 2u);
    EXPECT_EQ(ch.stats().precharges, 1u);
    EXPECT_EQ(ch.stats().rowHits, 0u);
    EXPECT_EQ(ch.stats().rowMisses, 2u);
}

TEST(DramProtocol, FawGatesFifthActivateUntilWindowExpires)
{
    // A rank whose four-ACT window outlasts 4 x tRRD (tFAW=30000 vs
    // tRRD=4000): the fifth ACT is pushed from 16000 out to the
    // window edge, and the window then slides to the second ACT.
    DramTiming t = DramSpec::hbm1GHz().timing;
    t.tRRD = 4000;
    t.tFAW = 30'000;
    const CommandTimingTable tbl = CommandTimingTable::build(t);
    BankStateArray banks(tbl, 8, 8);
    for (std::uint32_t b = 0; b < 4; ++b) {
        EXPECT_EQ(banks.actReadyAt(b), b * 4000u);
        banks.activate(b * 4000, b, 0);
    }
    // tRRD alone would allow 16000; the first ACT's window says 30000.
    EXPECT_EQ(banks.actReadyAt(4), 30'000u);
    banks.activate(30'000, 4, 0);
    // Window now starts at the second ACT: 4000 + 30000 = 34000.
    EXPECT_EQ(banks.actReadyAt(5), 34'000u);
}

TEST(DramProtocol, RefreshPostponedByOpenRowThenBlocksBank)
{
    // A row activated 1000 ps before the refresh deadline postpones
    // the refresh until its tRAS allows the implicit precharge:
    //   ACT @ 3'899'000 (tREFI = 3'900'000)
    //   refresh start = 3'899'000 + tRAS       = 3'916'000
    //   refresh end   = start + tRP + tRFC     = 4'183'000
    //   re-ACT @ end, CAS @ +tRCD, data end @ +tCL+tBL = 4'199'000.
    EventQueue eq;
    const DramSpec spec = hbm();
    Channel ch(eq, spec, "p", 0);
    TimePs f = 0;
    eq.schedule(spec.timing.tREFI - 1000, [&] {
        enqueueRead(ch, 0, 0, &f);
    });
    eq.runAll();
    EXPECT_EQ(ch.stats().refreshes, 1u);
    EXPECT_EQ(ch.stats().activates, 2u);
    // Refresh precharges are part of the refresh cycle, not demand
    // scheduling.
    EXPECT_EQ(ch.stats().precharges, 0u);
    EXPECT_EQ(f, 4'199'000u);
}

TEST(DramProtocol, WriteThenReadPaysBusTurnaround)
{
    // Write CAS@tRCD=7000, then the read CAS on the same open row is
    // gated by the channel wr->rd constraint tCWL+tBL+tWTR = 11000
    // past the write: CAS@18000, data end 18000+9000 = 27000.
    CompletionFns fns;
    EventQueue eq;
    Channel ch(eq, hbm(), "p", 0);
    // Leave the read queue empty until after the write CAS (7000) so
    // read priority cannot reorder the two.
    TimePs fw = 0, fr = 0;
    Request w;
    w.type = AccessType::kWrite;
    w.done = fns.add([&](TimePs f) { fw = f; });
    ch.enqueue(std::move(w), ChannelAddr{0, 0});
    eq.schedule(8000, [&] {
        Request r;
        r.type = AccessType::kRead;
        r.done = fns.add([&](TimePs f) { fr = f; });
        ch.enqueue(std::move(r), ChannelAddr{0, 0});
    });
    eq.runAll();
    // Write data: 7000 + tCWL + tBL = 14000.
    EXPECT_EQ(fw, 14'000u);
    EXPECT_EQ(fr, 27'000u);
    EXPECT_EQ(ch.stats().rowHits, 1u);
}

} // namespace
} // namespace mempod
