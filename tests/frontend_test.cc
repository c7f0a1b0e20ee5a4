/** @file Unit tests for the trace-replay frontend. */
#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.h"
#include "mem/frontend.h"

namespace mempod {
namespace {

/** Manager double completing every request after a fixed delay. */
class FixedLatencyManager : public MemoryManager
{
  public:
    FixedLatencyManager(EventQueue &eq, TimePs latency)
        : eq_(eq), latency_(latency)
    {
    }

    void
    handleDemand(Demand d) override
    {
        ++received;
        addrs.push_back(d.homeAddr);
        ++inFlight_;
        eq_.scheduleAfter(latency_, [this, done = d.done] {
            --inFlight_;
            done(eq_.now());
        });
    }

    std::string name() const override { return "fixed"; }
    std::uint64_t pendingWork() const override { return inFlight_; }

    int received = 0;
    std::vector<Addr> addrs;

  private:
    EventQueue &eq_;
    TimePs latency_;
    std::uint64_t inFlight_ = 0;
};

Trace
makeTrace(std::size_t n, TimePs gap)
{
    Trace t;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.time = i * gap;
        r.coreLocal = i * kLineBytes;
        r.core = static_cast<std::uint8_t>(i % 8);
        t.push_back(r);
    }
    return t;
}

struct FrontendFixture : ::testing::Test
{
    EventQueue eq;
    FixedLatencyManager mgr{eq, 100};
    LogicalToPhysical l2p{1 << 20, 8, 1};
};

TEST_F(FrontendFixture, CompletesAllRecords)
{
    TraceFrontend fe(eq, mgr, l2p, 4);
    const Trace t = makeTrace(50, 10);
    VectorTraceSource source(t);
    fe.setSource(source);
    fe.start();
    eq.runAll();
    EXPECT_TRUE(fe.done());
    EXPECT_EQ(fe.completed(), 50u);
    EXPECT_EQ(mgr.received, 50);
}

TEST_F(FrontendFixture, AmmatIsFixedLatencyWhenUncontended)
{
    TraceFrontend fe(eq, mgr, l2p, 64);
    const Trace t = makeTrace(20, 1000); // arrivals far apart
    VectorTraceSource source(t);
    fe.setSource(source);
    fe.start();
    eq.runAll();
    EXPECT_DOUBLE_EQ(fe.ammatPs(), 100.0);
}

TEST_F(FrontendFixture, MshrCapLimitsOutstandingAndAddsQueueing)
{
    // 10 simultaneous arrivals through a 1-wide frontend serialize.
    TraceFrontend fe(eq, mgr, l2p, 1);
    const Trace t = makeTrace(10, 0);
    VectorTraceSource source(t);
    fe.setSource(source);
    fe.start();
    eq.runAll();
    // i-th request waits i*100 before admission.
    EXPECT_DOUBLE_EQ(fe.ammatPs(), 100.0 + 9 * 100 / 2.0);
}

TEST_F(FrontendFixture, StallFreezesIntake)
{
    TraceFrontend fe(eq, mgr, l2p, 64);
    const Trace t = makeTrace(10, 10);
    VectorTraceSource source(t);
    fe.setSource(source);
    fe.stallUntil(10'000);
    fe.start();
    eq.runAll();
    EXPECT_TRUE(fe.done());
    // Every record waited for the stall to lift: stall + latency.
    EXPECT_GT(fe.ammatPs(), 9'900.0);
}

TEST_F(FrontendFixture, SuspendShiftsTimelineWithoutStallCost)
{
    TraceFrontend fe(eq, mgr, l2p, 64);
    const Trace t = makeTrace(10, 1000);
    VectorTraceSource source(t);
    fe.setSource(source);
    fe.start();
    eq.runUntil(2'500); // two records admitted
    fe.suspendCores(50'000);
    eq.runAll();
    EXPECT_TRUE(fe.done());
    // Remaining records were postponed, not queued: AMMAT stays the
    // bare service latency.
    EXPECT_DOUBLE_EQ(fe.ammatPs(), 100.0);
}

TEST_F(FrontendFixture, AmmatDenominatorIsTraceLength)
{
    TraceFrontend fe(eq, mgr, l2p, 64);
    const Trace t = makeTrace(4, 1000);
    VectorTraceSource source(t);
    fe.setSource(source);
    fe.start();
    eq.runAll();
    EXPECT_DOUBLE_EQ(fe.totalStallPs() / 4.0, fe.ammatPs());
}

TEST_F(FrontendFixture, EmptyTraceIsDoneImmediately)
{
    TraceFrontend fe(eq, mgr, l2p, 64);
    const Trace t;
    VectorTraceSource source(t);
    fe.setSource(source);
    fe.start();
    eq.runAll();
    EXPECT_TRUE(fe.done());
    EXPECT_DOUBLE_EQ(fe.ammatPs(), 0.0);
}

TEST_F(FrontendFixture, AppliesPlacementMapping)
{
    TraceFrontend fe(eq, mgr, l2p, 64);
    Trace t = makeTrace(1, 0);
    t[0].core = 3;
    t[0].coreLocal = 7 * kPageBytes + 128;
    VectorTraceSource source(t);
    fe.setSource(source);
    fe.start();
    eq.runAll();
    EXPECT_EQ(mgr.addrs[0],
              l2p.physicalAddr(3, 7 * kPageBytes + 128));
}

TEST_F(FrontendFixture, PerCoreAmmatTracked)
{
    TraceFrontend fe(eq, mgr, l2p, 64);
    const Trace t = makeTrace(16, 1000); // cores round-robin 0..7
    VectorTraceSource source(t);
    fe.setSource(source);
    fe.start();
    eq.runAll();
    const auto per_core = fe.perCoreAmmatPs();
    ASSERT_EQ(per_core.size(), 8u);
    for (double ammat : per_core)
        EXPECT_DOUBLE_EQ(ammat, 100.0); // uncontended fixed latency
}

TEST_F(FrontendFixture, LatencyHistogramPopulated)
{
    TraceFrontend fe(eq, mgr, l2p, 64);
    const Trace t = makeTrace(32, 500);
    VectorTraceSource source(t);
    fe.setSource(source);
    fe.start();
    eq.runAll();
    EXPECT_EQ(fe.latencyHistogramNs().count(), 32u);
}

} // namespace
} // namespace mempod
