/**
 * @file
 * Unit tests for the host-side profiler (common/perf.h) and the
 * crash-safe file writer / perf.json renderer in sim/stats_writer.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/perf.h"
#include "sim/stats_writer.h"

namespace mempod {
namespace {

TEST(PerfScope, AccumulatesPhaseTime)
{
    PerfMonitor pm;
    {
        PerfScope scope(&pm, "setup");
    }
    {
        PerfScope scope(&pm, "setup");
    }
    // Two closed scopes: the phase exists and is monotone (the clock
    // may be coarse, so only >= 0 is portable).
    const PerfReport r = pm.report(0, 0);
    ASSERT_EQ(r.phasesNs.size(), 1u);
    EXPECT_EQ(r.phasesNs[0].first, "setup");
}

TEST(PerfScope, NullMonitorIsNoOp)
{
    PerfScope scope(nullptr, "ghost");
    scope.close();
    scope.close(); // idempotent on null too
}

TEST(PerfScope, CloseIsIdempotent)
{
    PerfMonitor pm;
    PerfScope scope(&pm, "run");
    scope.close();
    const std::uint64_t after_first = pm.phaseNs("run");
    scope.close(); // must not add a second sample
    EXPECT_EQ(pm.phaseNs("run"), after_first);
}

TEST(PerfMonitor, HeartbeatZeroIntervalAlwaysDue)
{
    PerfMonitor pm;
    EXPECT_TRUE(pm.heartbeatDue(0));
    EXPECT_TRUE(pm.heartbeatDue(0));
}

TEST(PerfMonitor, HeartbeatRateLimitsAgainstWallClock)
{
    PerfMonitor pm;
    // An hour-long interval cannot have elapsed since construction;
    // repeated polls stay quiet (the stderr heartbeat must not spam).
    const std::uint64_t hour_ns = 3'600ull * 1'000'000'000ull;
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(pm.heartbeatDue(hour_ns));
}

TEST(PerfMonitor, HeartbeatFiresOnceIntervalElapses)
{
    PerfMonitor pm;
    // Wait out a tiny interval, poll until due: the first poll after
    // the interval elapses returns true, and the limiter re-arms.
    const std::uint64_t interval_ns = 2'000'000; // 2 ms
    bool fired = false;
    const std::uint64_t deadline = perfNowNs() + 500'000'000ull;
    while (!fired && perfNowNs() < deadline)
        fired = pm.heartbeatDue(interval_ns);
    EXPECT_TRUE(fired);
    // Immediately after firing, the next poll is rate-limited again.
    EXPECT_FALSE(pm.heartbeatDue(3'600ull * 1'000'000'000ull));
}

TEST(PerfMonitor, CountersGaugesHistograms)
{
    PerfMonitor pm;
    pm.counterAdd("channel.ticks", 3);
    pm.counterAdd("channel.ticks", 4);
    pm.counterMax("eq.peak_pending", 10);
    pm.counterMax("eq.peak_pending", 7); // lower: ignored
    pm.gaugeSet("exec.work_imbalance", 1.25);
    pm.histogram("slack").sample(100);
    pm.histogram("slack").sample(100000);
    pm.resizeShards(2);
    pm.shard(0).busyNs = 50;
    pm.shard(1).stallNs = 60;

    const PerfReport r = pm.report(12345, 678);
    EXPECT_EQ(r.simTimePs, 12345u);
    EXPECT_EQ(r.eventsExecuted, 678u);
    EXPECT_EQ(r.counters.at("channel.ticks"), 7u);
    EXPECT_EQ(r.counters.at("eq.peak_pending"), 10u);
    EXPECT_DOUBLE_EQ(r.gauges.at("exec.work_imbalance"), 1.25);
    ASSERT_EQ(r.shards.size(), 2u);
    EXPECT_EQ(r.shards[0].busyNs, 50u);
    EXPECT_EQ(r.shards[1].stallNs, 60u);
    std::uint64_t hist_total = 0;
    for (const std::uint64_t b : r.histograms.at("slack"))
        hist_total += b;
    EXPECT_EQ(hist_total, 2u);
    EXPECT_GT(r.wallSeconds, 0.0);
}

TEST(PerfMonitor, EventsPerSecondUsesRunPhase)
{
    PerfMonitor pm;
    pm.phaseAddNs("run", 2'000'000'000); // exactly 2 s of "run"
    const PerfReport r = pm.report(0, 1'000'000);
    EXPECT_DOUBLE_EQ(r.eventsPerSecond, 500'000.0);
}

TEST(PerfMonitor, HeartbeatRateLimits)
{
    PerfMonitor pm;
    // A zero interval is always due; an absurdly long one never is
    // (within this test's lifetime).
    EXPECT_TRUE(pm.heartbeatDue(0));
    EXPECT_FALSE(pm.heartbeatDue(3'600'000'000'000ull));
}

TEST(PerfReport, MergeSumsAndMaxes)
{
    PerfReport a, b;
    a.wallSeconds = 1.0;
    a.maxRssKib = 100;
    a.eventsExecuted = 10;
    a.phasesNs = {{"run", 1000}};
    a.counters["x"] = 1;
    a.shards.resize(1);
    a.shards[0].busyNs = 5;
    b.wallSeconds = 2.0;
    b.maxRssKib = 50;
    b.eventsExecuted = 20;
    b.phasesNs = {{"run", 500}, {"report", 7}};
    b.counters["x"] = 2;
    b.counters["y"] = 9;
    b.shards.resize(1);
    b.shards[0].busyNs = 6;

    a.merge(b);
    EXPECT_DOUBLE_EQ(a.wallSeconds, 3.0);
    EXPECT_EQ(a.maxRssKib, 100u); // max, not sum
    EXPECT_EQ(a.eventsExecuted, 30u);
    EXPECT_EQ(a.counters.at("x"), 3u);
    EXPECT_EQ(a.counters.at("y"), 9u);
    ASSERT_EQ(a.phasesNs.size(), 2u);
    EXPECT_EQ(a.phasesNs[0].second, 1500u);
    ASSERT_EQ(a.shards.size(), 1u);
    EXPECT_EQ(a.shards[0].busyNs, 11u);
}

TEST(PerfToJson, RendersSchemaAndSections)
{
    PerfReport r;
    r.wallSeconds = 1.5;
    r.simTimePs = 42;
    r.eventsExecuted = 7;
    r.phasesNs = {{"run", 123}};
    r.counters["channel.ticks"] = 5;
    r.gauges["g"] = 0.5;
    r.histograms["h"] = {0, 2, 1};
    r.shards.resize(1);
    r.shards[0].busyNs = 11;
    r.shards[0].stallNs = 22;
    r.shards[0].events = 33;

    const std::string j = StatsWriter::perfToJson(r);
    EXPECT_NE(j.find("\"schema\":\"mempod-perf-v1\""), std::string::npos);
    EXPECT_NE(j.find("\"host\""), std::string::npos);
    EXPECT_NE(j.find("\"run\":123"), std::string::npos);
    EXPECT_NE(j.find("\"channel.ticks\":5"), std::string::npos);
    EXPECT_NE(j.find("\"busy_ns\":11"), std::string::npos);
    EXPECT_NE(j.find("\"sim_time_ps\":42"), std::string::npos);
}

// ---- crash-safe writeFile (satellite: atomic stats export) ----

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(AtomicWriteFile, WritesAndOverwritesWithoutResidue)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "mempod_atomic_write_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto path = dir / "out.json";

    StatsWriter::writeFile(path.string(), "{\"v\":1}");
    EXPECT_EQ(slurp(path), "{\"v\":1}");
    // Overwrite must replace the content wholesale.
    StatsWriter::writeFile(path.string(), "{\"v\":2,\"longer\":true}");
    EXPECT_EQ(slurp(path), "{\"v\":2,\"longer\":true}");

    // No temp files may survive a successful write.
    std::size_t entries = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        ++entries;
        EXPECT_EQ(e.path().filename(), "out.json");
    }
    EXPECT_EQ(entries, 1u);
    std::filesystem::remove_all(dir);
}

TEST(AtomicWriteFile, ThrowsOnUnwritableTarget)
{
    EXPECT_THROW(StatsWriter::writeFile(
                     "/nonexistent-dir-mempod/x/y/out.json", "{}"),
                 std::runtime_error);
}

} // namespace
} // namespace mempod
