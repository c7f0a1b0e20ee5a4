/**
 * @file
 * Pinned controller behaviour. Seeded read/write streams run through
 * one Channel under every page policy x scheduler x device
 * combination, plus one stream that crosses the anti-starvation age
 * and both write-drain watermarks and one that spans refreshes. Each
 * row pins a digest of every completion (order, request and time),
 * the command counters and the arbiter's host counters, so a change
 * to the controller that moves one command, wake-up or arbitration
 * pass fails here. A failing row prints its actual value in the
 * table's own syntax.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "completion_fns.h"
#include "dram/channel.h"

namespace mempod {
namespace {

constexpr TimePs kExtra = 5000;
/** Channel's anti-starvation age (kStarvationAgePs, 2 us). */
constexpr TimePs kStarvationAge = 2'000'000;
/** Channel's write-drain high watermark (kDrainHigh). */
constexpr std::uint32_t kDrainHigh = 16;

struct Arrival
{
    TimePs at;
    std::uint32_t bank;
    std::int64_t row;
    bool write;
};

/** Everything a stream pins. */
struct Outcome
{
    std::uint64_t digest = 0;
    std::uint64_t completions = 0;
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t ticks = 0;
    std::uint64_t issued = 0;
    std::uint64_t arbPasses = 0;
    std::uint64_t workBanks = 0;

    bool operator==(const Outcome &) const = default;
};

std::string
format(const Outcome &o)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{0x%016" PRIx64 "ull, %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  "}",
                  o.digest, o.completions, o.activates, o.precharges,
                  o.rowHits, o.rowMisses, o.refreshes, o.ticks,
                  o.issued, o.arbPasses, o.workBanks);
    return buf;
}

void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull; // FNV-1a
    }
}

/**
 * Run `arrivals` (ascending times) through a fresh channel and stop
 * right after the event that completes the last request, so the
 * pinned counters cover exactly the stream's service.
 */
Outcome
drive(const DramSpec &spec, ControllerPolicy pol,
      const std::vector<Arrival> &arrivals, TimePs *max_wait = nullptr)
{
    CompletionFns fns;
    EventQueue eq;
    Channel ch(eq, spec, "golden", kExtra, pol);
    Outcome o;
    o.digest = 0xcbf29ce484222325ull;
    TimePs worst = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Arrival &a = arrivals[i];
        eq.runUntil(a.at);
        Request req;
        req.addr = static_cast<Addr>(i) * 64;
        req.type = a.write ? AccessType::kWrite : AccessType::kRead;
        const TimePs enq = eq.now();
        req.done = fns.add([&o, &worst, i, enq](TimePs finish) {
            mix(o.digest, i);
            mix(o.digest, finish);
            ++o.completions;
            worst = std::max(worst, finish - enq);
        });
        ch.enqueue(req, ChannelAddr{a.bank, a.row});
    }
    while (o.completions < arrivals.size() && eq.runOne()) {
    }
    const Channel::Stats &s = ch.stats();
    o.activates = s.activates;
    o.precharges = s.precharges;
    o.rowHits = s.rowHits;
    o.rowMisses = s.rowMisses;
    o.refreshes = s.refreshes;
    const Channel::HostStats &h = ch.hostStats();
    o.ticks = h.ticks;
    o.issued = h.issued;
    o.arbPasses = h.arbPasses;
    o.workBanks = h.workBanks;
    if (max_wait)
        *max_wait = worst;
    return o;
}

/**
 * A mixed stream: bursts and gaps around the channel's service rate,
 * 30% writes, and per-bank row reuse for a mix of hits and conflicts.
 */
std::vector<Arrival>
randomStream(const DramSpec &spec, std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    const std::uint32_t banks = spec.org.totalBanks();
    std::vector<std::int64_t> last(banks, 0);
    std::vector<Arrival> out;
    TimePs t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!rng.nextBool(0.3))
            t += rng.nextBelow(8 * spec.timing.clockPeriodPs);
        if (rng.nextBool(0.002))
            t += spec.timing.tREFI / 2; // an idle stretch
        const auto b = static_cast<std::uint32_t>(rng.nextBelow(banks));
        if (!rng.nextBool(0.6))
            last[b] = static_cast<std::int64_t>(rng.nextBelow(8));
        out.push_back(Arrival{t, b, last[b], rng.nextBool(0.3)});
    }
    return out;
}

/**
 * One request conflicting with bank 0's open row, then a stream of
 * row hits arriving faster than the bank serves them, so the open
 * row always has a pending hit and the conflict outlives the
 * starvation age; then write bursts above the high drain watermark
 * under a steady read stream.
 */
std::vector<Arrival>
starvationAndDrainStream(const DramSpec &spec)
{
    std::vector<Arrival> out;
    const TimePs clk = spec.timing.clockPeriodPs;
    out.push_back(Arrival{0, 0, 0, false});
    out.push_back(Arrival{clk, 0, 1, false});
    TimePs t = 2 * clk;
    while (t < kStarvationAge + kStarvationAge / 2) {
        out.push_back(Arrival{t, 0, 0, false});
        t += clk;
    }
    // Reads keep arriving while each burst drains, so they preempt
    // the writes as soon as the write queue falls to the low mark.
    Rng rng(11);
    for (int burst = 0; burst < 6; ++burst) {
        for (std::uint32_t i = 0; i < kDrainHigh + 8; ++i) {
            out.push_back(Arrival{
                t, static_cast<std::uint32_t>(rng.nextBelow(16)),
                static_cast<std::int64_t>(rng.nextBelow(4)), true});
        }
        for (int i = 0; i < 100; ++i) {
            out.push_back(Arrival{
                t, static_cast<std::uint32_t>(rng.nextBelow(16)),
                static_cast<std::int64_t>(rng.nextBelow(4)), false});
            t += 3 * clk;
        }
    }
    return out;
}

/** Sparse traffic over several refresh intervals, idle across some. */
std::vector<Arrival>
refreshStream(const DramSpec &spec)
{
    Rng rng(23);
    std::vector<Arrival> out;
    TimePs t = 0;
    while (t < 5 * spec.timing.tREFI) {
        for (int i = 0; i < 12; ++i) {
            out.push_back(Arrival{
                t, static_cast<std::uint32_t>(rng.nextBelow(16)),
                static_cast<std::int64_t>(rng.nextBelow(4)),
                rng.nextBool(0.4)});
            t += rng.nextBelow(4) * spec.timing.clockPeriodPs;
        }
        t += rng.nextBelow(spec.timing.tREFI);
    }
    return out;
}

DramSpec
hbm()
{
    return DramSpec::hbm1GHz().withChannelBytes(2_MiB);
}

DramSpec
ddr4()
{
    return DramSpec::ddr4_1600().withChannelBytes(4_MiB);
}

/** DDR4 with two ranks, so rank-scope ACT windows differ by bank. */
DramSpec
ddr4TwoRanks()
{
    DramSpec s = DramSpec::ddr4_1600();
    s.org.ranks = 2;
    return s.withChannelBytes(4_MiB);
}

/**
 * HBM with picosecond timings off the clock grid, which a config may
 * set: the controller rounds each wake-up up to the next clock edge.
 */
DramSpec
hbmOffClock()
{
    DramSpec s = hbm();
    s.timing.tCL = 7300;
    s.timing.tRCD = 7600;
    s.timing.tRP = 6900;
    return s;
}

struct Row
{
    const char *name;
    DramSpec (*spec)();
    ControllerPolicy policy;
    Outcome expect;
};

constexpr ControllerPolicy kOpen{};
constexpr ControllerPolicy kClosed{.closedPage = true};
constexpr ControllerPolicy kOpenFcfs{.fcfs = true};
constexpr ControllerPolicy kClosedFcfs{.closedPage = true, .fcfs = true};

const Row kRandomRows[] = {
    {"hbm_open_frfcfs", hbm, kOpen,
     {0x01e127db5204de6bull, 4000, 1371, 1266, 2635, 1365, 6,
      11055, 6637, 17552, 151941}},
    {"hbm_closed_frfcfs", hbm, kClosed,
     {0x7c5c59512b84805full, 4000, 1959, 1922, 2053, 1947, 6,
      10975, 5959, 17850, 151318}},
    {"hbm_open_fcfs", hbm, kOpenFcfs,
     {0x05524fd06b5afb51ull, 4000, 2327, 2186, 1686, 2314, 8,
      30491, 8513, 44452, 652511}},
    {"hbm_closed_fcfs", hbm, kClosedFcfs,
     {0x72e55769f1933ab3ull, 4000, 2337, 2241, 1673, 2327, 8,
      28750, 8019, 41959, 610253}},
    {"ddr4_open_frfcfs", ddr4, kOpen,
     {0x713b5b2d1a7d0fa9ull, 4000, 1848, 1710, 2167, 1833, 8,
      39248, 7558, 59554, 864637}},
    {"ddr4_closed_frfcfs", ddr4, kClosed,
     {0xaaa5f8f654c3fdb6ull, 4000, 1818, 1744, 2191, 1809, 7,
      35963, 6820, 55551, 794554}},
    {"ddr4_open_fcfs", ddr4, kOpenFcfs,
     {0x099bf94a4492645aull, 4000, 2313, 2174, 1694, 2306, 8,
      47376, 8487, 70592, 1069132}},
    {"ddr4_closed_fcfs", ddr4, kClosedFcfs,
     {0x26b3d838bb89fd22ull, 4000, 2341, 2234, 1674, 2326, 8,
      45615, 8119, 67348, 1016855}},
    {"hbmoff_open_frfcfs", hbmOffClock, kOpen,
     {0xb603cd7e829548aaull, 4000, 1377, 1268, 2628, 1372, 6,
      11139, 6645, 17866, 158028}},
    {"ddr4x2_open_frfcfs", ddr4TwoRanks, kOpen,
     {0xf587d54959bb1a95ull, 4000, 1957, 1710, 2059, 1941, 7,
      36551, 7667, 56494, 1516719}},
};

TEST(ChannelGolden, RandomStreamsArePinned)
{
    for (const Row &r : kRandomRows) {
        const DramSpec spec = r.spec();
        const Outcome got =
            drive(spec, r.policy, randomStream(spec, 42, 4000));
        EXPECT_EQ(got.completions, 4000u) << r.name;
        EXPECT_GT(got.refreshes, 0u) << r.name;
        EXPECT_TRUE(got == r.expect) << r.name << ": " << format(got);
    }
}

TEST(ChannelGolden, StarvationAndDrainStreamIsPinned)
{
    const Outcome expect{0x3c544efc740d1820ull, 3744, 569, 506, 3188,
                         556, 3, 19855, 4819, 25456, 285007};
    const DramSpec spec = hbm();
    const std::vector<Arrival> stream = starvationAndDrainStream(spec);
    TimePs max_wait = 0;
    const Outcome got = drive(spec, kOpen, stream, &max_wait);
    EXPECT_EQ(got.completions, stream.size());
    // The conflicting request outlived the starvation age.
    EXPECT_GT(max_wait, kStarvationAge);
    EXPECT_TRUE(got == expect) << format(got);
}

const Row kRefreshRows[] = {
    {"hbm_open_refresh", hbm, kOpen,
     {0xdab964fba8c7ebb1ull, 120, 101, 46, 19, 101, 4,
      516, 267, 753, 2972}},
    {"hbm_closed_refresh", hbm, kClosed,
     {0xa88626e2a6380e54ull, 120, 110, 108, 10, 110, 4,
      511, 230, 756, 2934}},
};

TEST(ChannelGolden, RefreshStreamIsPinned)
{
    for (const Row &r : kRefreshRows) {
        const DramSpec spec = r.spec();
        const std::vector<Arrival> stream = refreshStream(spec);
        const Outcome got = drive(spec, r.policy, stream);
        EXPECT_EQ(got.completions, stream.size()) << r.name;
        EXPECT_GE(got.refreshes, 4u) << r.name;
        EXPECT_TRUE(got == r.expect) << r.name << ": " << format(got);
    }
}

} // namespace
} // namespace mempod
