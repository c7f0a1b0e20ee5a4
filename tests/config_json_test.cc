/** @file Unit tests for SimConfig JSON round-trip and overrides. */
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "common/json.h"
#include "sim/config.h"
#include "sim/simulation.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

TEST(ConfigJson, RoundTripIsIdentity)
{
    SimConfig c = SimConfig::paper(Mechanism::kMemPod);
    c.mempod.interval = 12_us;
    c.mempod.pod.metaCacheEnabled = true;
    c.statsIntervalPs = 50_us;
    c.tracer.enabled = true;
    c.tracer.sampleEvery = 7;
    c.controller.closedPage = true;
    const std::string json = c.toJson();
    EXPECT_EQ(SimConfig::fromJson(json).toJson(), json);
}

TEST(ConfigJson, RoundTripPreservesEveryPreset)
{
    for (const SimConfig &c :
         {SimConfig::paper(Mechanism::kHma),
          SimConfig::future(Mechanism::kThm), SimConfig::fastOnly(),
          SimConfig::slowOnly(true)}) {
        const SimConfig back = SimConfig::fromJson(c.toJson());
        EXPECT_EQ(back.toJson(), c.toJson());
        EXPECT_EQ(back.mechanism, c.mechanism);
        EXPECT_EQ(back.geom.fastBytes, c.geom.fastBytes);
        EXPECT_EQ(back.near.name, c.near.name);
        EXPECT_EQ(back.near.timing.tCL, c.near.timing.tCL);
        EXPECT_EQ(back.far.org.busBits, c.far.org.busBits);
    }
}

TEST(ConfigJson, ControlCharactersInStringsAreEscaped)
{
    SimConfig c;
    c.near.name = "q\"b\\n\nc\x01";
    const std::string text = c.toJson();
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (in_string) {
            EXPECT_GE(static_cast<unsigned char>(text[i]), 0x20)
                << "raw byte at " << i;
            if (text[i] == '\\')
                ++i;
            else if (text[i] == '"')
                in_string = false;
        } else {
            in_string = text[i] == '"';
        }
    }
    EXPECT_FALSE(json::parse(text).error);
    const SimConfig back = SimConfig::fromJson(text);
    EXPECT_EQ(back.near.name, c.near.name);
    EXPECT_EQ(back.toJson(), text);
}

TEST(ConfigJson, MissingKeysKeepDefaults)
{
    const SimConfig c = SimConfig::fromJson(
        R"({"mechanism": "THM", "thm": {"threshold": 5}})");
    EXPECT_EQ(c.mechanism, Mechanism::kThm);
    EXPECT_EQ(c.thm.threshold, 5u);
    // Untouched fields are the struct defaults.
    const SimConfig d;
    EXPECT_EQ(c.geom.fastBytes, d.geom.fastBytes);
    EXPECT_EQ(c.mempod.pod.meaEntries, d.mempod.pod.meaEntries);
}

TEST(ConfigJson, SetParsesEveryValueKind)
{
    SimConfig c;
    c.set("mechanism", "tlm"); // CLI alias, case-insensitive path
    EXPECT_EQ(c.mechanism, Mechanism::kNoMigration);
    c.set("mechanism", "CAMEO");
    EXPECT_EQ(c.mechanism, Mechanism::kCameo);
    c.set("mempod.interval", "250000000");
    EXPECT_EQ(c.mempod.interval, 250000000u);
    c.set("controller.fcfs", "true");
    EXPECT_TRUE(c.controller.fcfs);
    c.set("controller.fcfs", "0");
    EXPECT_FALSE(c.controller.fcfs);
    c.set("numCores", "4");
    EXPECT_EQ(c.numCores, 4u);
    c.set("dram.near.name", "custom");
    EXPECT_EQ(c.near.name, "custom");
}

TEST(ConfigJson, DramTimingKeysAreSweepable)
{
    SimConfig c;
    c.set("dram.near.tRCD_ps", "9000");
    EXPECT_EQ(c.near.timing.tRCD, 9000u);
    c.set("dram.far.tCL_ps", "20000");
    EXPECT_EQ(c.far.timing.tCL, 20000u);
    c.set("dram.near.banksPerRank", "32");
    EXPECT_EQ(c.near.org.banksPerRank, 32u);
    c.set("dram.far.clock_ps", "625");
    EXPECT_EQ(c.far.timing.clockPeriodPs, 625u);
}

TEST(ConfigJson, DramKeysRoundTripThroughJson)
{
    SimConfig c;
    c.near.timing.tRCD = 9999;
    c.far.org.rowsPerBank = 4242;
    const SimConfig back = SimConfig::fromJson(c.toJson());
    EXPECT_EQ(back.near.timing.tRCD, 9999u);
    EXPECT_EQ(back.far.org.rowsPerBank, 4242u);
    EXPECT_EQ(back.toJson(), c.toJson());
    // The schema is the flat dram.* namespace, not the old member
    // paths.
    EXPECT_NE(c.toJson().find("\"dram\""), std::string::npos);
    EXPECT_NE(c.toJson().find("\"tRCD_ps\""), std::string::npos);
}

TEST(ConfigJsonDeathTest, UnknownKeyPanics)
{
    SimConfig c;
    EXPECT_DEATH(c.set("mempod.bogus", "1"), "unknown config key");
    EXPECT_DEATH(c.set("dram.near.tXYZ_ps", "1"), "unknown config key");
    EXPECT_DEATH(c.set("fast.timing.tCL", "7"), "unknown config key");
    // Fast-forward always runs the functional model: no key picks it.
    EXPECT_DEATH(c.set("sim.sampling.fastfwd_model", "functional"),
                 "unknown config key");
    EXPECT_DEATH(
        (void)SimConfig::fromJson(R"({"nonsense": 1})"),
        "unknown config key");
}

TEST(ConfigJsonDeathTest, BadValuesPanic)
{
    SimConfig c;
    EXPECT_DEATH(c.set("numCores", "lots"), "not a non-negative");
    EXPECT_DEATH(c.set("numCores", "4096"), "out of range");
    EXPECT_DEATH(c.set("controller.fcfs", "maybe"), "not a boolean");
    EXPECT_DEATH(c.set("mechanism", "quantum"), "unknown mechanism");
}

TEST(ConfigJsonDeathTest, MalformedJsonPanics)
{
    EXPECT_DEATH((void)SimConfig::fromJson("{"), "fromJson");
    EXPECT_DEATH((void)SimConfig::fromJson(R"({"geom": [1]})"),
                 "fromJson");
    EXPECT_DEATH((void)SimConfig::fromJson(R"({"numCores": 1} x)"),
                 "trailing");
}

TEST(ConfigJsonDeathTest, DeepNestingPanicsInsteadOfOverflowing)
{
    std::string brackets(200 * 1024, '[');
    std::string objects;
    while (objects.size() < 200 * 1024)
        objects += "{\"a\":";
    EXPECT_DEATH((void)SimConfig::fromJson(brackets), "fromJson.*nesting");
    EXPECT_DEATH((void)SimConfig::fromJson(objects), "fromJson.*nesting");
}

/** A knob that must be positive, and how to zero it behind set(). */
struct PositiveKnob
{
    const char *key;
    void (*zero)(SimConfig &);
};

/** Names each case by its key in test listings. */
void
PrintTo(const PositiveKnob &k, std::ostream *os)
{
    *os << k.key;
}

class ZeroKnobDeathTest : public ::testing::TestWithParam<PositiveKnob>
{
};

// Each of these divided by zero (SIGFPE) or never ended an epoch when
// it was 0; now both set() and the Simulation reject it by name.
TEST_P(ZeroKnobDeathTest, RejectedByNameAtSetAndConstruction)
{
    const PositiveKnob &k = GetParam();
    const std::string msg =
        std::string("config key '") + k.key + "': value 0 out of range";
    SimConfig c;
    EXPECT_DEATH(c.set(k.key, "0"), msg);
    k.zero(c);
    EXPECT_DEATH(Simulation sim(c), msg);
}

INSTANTIATE_TEST_SUITE_P(
    Config, ZeroKnobDeathTest,
    ::testing::Values(
        PositiveKnob{"numCores", [](SimConfig &c) { c.numCores = 0; }},
        PositiveKnob{"mempod.interval",
                     [](SimConfig &c) { c.mempod.interval = 0; }},
        PositiveKnob{"hma.interval",
                     [](SimConfig &c) {
                         c.mechanism = Mechanism::kHma;
                         c.hma.interval = 0;
                     }},
        PositiveKnob{"dram.near.clock_ps",
                     [](SimConfig &c) { c.near.timing.clockPeriodPs = 0; }},
        PositiveKnob{"dram.near.ranks",
                     [](SimConfig &c) { c.near.org.ranks = 0; }},
        PositiveKnob{"dram.near.banksPerRank",
                     [](SimConfig &c) { c.near.org.banksPerRank = 0; }},
        PositiveKnob{"dram.near.rowBufferBytes",
                     [](SimConfig &c) { c.near.org.rowBufferBytes = 0; }},
        PositiveKnob{"dram.far.clock_ps",
                     [](SimConfig &c) { c.far.timing.clockPeriodPs = 0; }},
        PositiveKnob{"dram.far.ranks",
                     [](SimConfig &c) { c.far.org.ranks = 0; }},
        PositiveKnob{"dram.far.banksPerRank",
                     [](SimConfig &c) { c.far.org.banksPerRank = 0; }},
        PositiveKnob{"dram.far.rowBufferBytes",
                     [](SimConfig &c) { c.far.org.rowBufferBytes = 0; }},
        // Geometry divisors and table sizes: these used to die in an
        // internal assertion ("need at least one MSHR", "MEA needs at
        // least one entry", ...) that did not name the key.
        PositiveKnob{"geom.numPods",
                     [](SimConfig &c) { c.geom.numPods = 0; }},
        PositiveKnob{"geom.fastChannels",
                     [](SimConfig &c) { c.geom.fastChannels = 0; }},
        PositiveKnob{"mempod.pod.meaEntries",
                     [](SimConfig &c) { c.mempod.pod.meaEntries = 0; }},
        PositiveKnob{"mempod.pod.meaCounterBits",
                     [](SimConfig &c) { c.mempod.pod.meaCounterBits = 0; }},
        PositiveKnob{"hma.counterBits",
                     [](SimConfig &c) {
                         c.mechanism = Mechanism::kHma;
                         c.hma.counterBits = 0;
                     }},
        PositiveKnob{"thm.counterBits",
                     [](SimConfig &c) {
                         c.mechanism = Mechanism::kThm;
                         c.thm.counterBits = 0;
                     }},
        PositiveKnob{"cameo.engineParallelism",
                     [](SimConfig &c) {
                         c.mechanism = Mechanism::kCameo;
                         c.cameo.engineParallelism = 0;
                     }},
        PositiveKnob{"maxOutstanding",
                     [](SimConfig &c) { c.maxOutstanding = 0; }},
        // Was caught only inside the sampler, by a panic that did not
        // name the key, and only with sampling on.
        PositiveKnob{"sim.sampling.measure_ps",
                     [](SimConfig &c) { c.sampling.measurePs = 0; }}));

// An epoch or window of a few ps was accepted and then crawled:
// mempod_sim --requests 3000 took 8.2 s at mempod.interval=3, 3.3 s at
// hma.interval=3 (hma.sortStall=1), and ran past 20 s at
// statsIntervalPs=3.
TEST(ConfigDeathTest, IntervalBelowOneNearClockRejectedByKey)
{
    const TimePs clock = SimConfig{}.near.timing.clockPeriodPs;
    ASSERT_GT(clock, 1u);
    const std::pair<const char *, void (*)(SimConfig &, TimePs)> rows[] = {
        {"mempod.interval",
         [](SimConfig &c, TimePs v) { c.mempod.interval = v; }},
        {"hma.interval",
         [](SimConfig &c, TimePs v) {
             c.mechanism = Mechanism::kHma;
             c.hma.interval = v;
             c.hma.sortStall = 0;
         }},
        {"sim.sampling.measure_ps",
         [](SimConfig &c, TimePs v) { c.sampling.measurePs = v; }},
        {"statsIntervalPs",
         [](SimConfig &c, TimePs v) { c.statsIntervalPs = v; }},
    };
    for (const auto &[key, set] : rows) {
        SimConfig c;
        set(c, clock - 1);
        EXPECT_DEATH(Simulation sim(c),
                     std::string("config key '") + key +
                         "': [0-9]+ ps is shorter than one "
                         "dram.near.clock_ps")
            << key;
        set(c, 3);
        EXPECT_DEATH(c.validate(), std::string("config key '") + key)
            << key;
        set(c, clock); // one clock is the floor
        c.validate();
    }
    SimConfig c;
    c.statsIntervalPs = 0; // 0 turns the sampler off
    c.validate();
}

// Before validate() checked it, a refresh interval at or below tRFC
// refreshed on every tick and ended in "simulation livelock".
TEST(ConfigDeathTest, RefreshIntervalNotAboveTrfcRejectedByKey)
{
    SimConfig c;
    c.near.timing.tREFI = c.near.timing.tRFC;
    EXPECT_DEATH(Simulation sim(c),
                 "config key 'dram.near.tREFI_ps': .* must exceed tRFC");
    c = SimConfig{};
    c.far.timing.tREFI = 1;
    EXPECT_DEATH(Simulation sim(c),
                 "config key 'dram.far.tREFI_ps': 1 ps must exceed tRFC");
    c = SimConfig{};
    c.near.timing.tREFI = 0; // refresh off is a valid setting
    c.far.timing.tREFI = 0;
    c.validate();
}

// A clock or timing at or above tREFI used to pass validation and then
// run past 20 s or end in "simulation livelock" (2^40 ps, 3000 records).
TEST(ConfigDeathTest, TimingNotBelowRefreshIntervalRejectedByKey)
{
    const char *const keys[] = {
        "clock_ps", "tCL_ps",  "tCWL_ps", "tRCD_ps", "tRP_ps",
        "tRAS_ps",  "tBL_ps",  "tCCD_ps", "tWR_ps",  "tWTR_ps",
        "tRTP_ps",  "tRTW_ps", "tRRD_ps", "tFAW_ps"};
    for (const char *tier : {"near", "far"}) {
        const std::string prefix = std::string("dram.") + tier + ".";
        const TimePs refi = tier == std::string("near")
                                ? SimConfig{}.near.timing.tREFI
                                : SimConfig{}.far.timing.tREFI;
        for (const char *key : keys) {
            for (const TimePs v : {refi, TimePs{1} << 40}) {
                SimConfig c;
                c.set(prefix + key, std::to_string(v));
                EXPECT_DEATH(c.validate(),
                             "config key '" + prefix + key + "': " +
                                 std::to_string(v) +
                                 " ps must be below " + prefix +
                                 "tREFI_ps \\(" + std::to_string(refi) +
                                 " ps\\)")
                    << prefix << key << "=" << v;
            }
        }
    }
    SimConfig c;
    c.set("dram.far.tCL_ps", std::to_string(c.far.timing.tREFI));
    EXPECT_DEATH(Simulation sim(c), "config key 'dram.far.tCL_ps'");
    c.far.timing.tREFI = 0; // refresh off: no interval to stay below
    c.validate();
}

// A tier with channels but no capacity used to pass validation and
// die later, in the placement, naming a core's footprint.
TEST(ConfigDeathTest, ZeroCapacityTierWithChannelsRejectedByKey)
{
    SimConfig c;
    c.geom.slowBytes = 0;
    EXPECT_DEATH(Simulation sim(c), "config key 'geom.slowBytes': 0");
    c.geom.slowChannels = 0; // a single-tier system is valid
    c.validate();
    c = SimConfig{};
    c.geom.fastBytes = 0;
    EXPECT_DEATH(Simulation sim(c), "config key 'geom.fastBytes': 0");
}

// HMA freezes the cores for sortStall every epoch; a stall as long as
// the epoch used to end in "simulation livelock" or run forever.
TEST(ConfigDeathTest, HmaSortStallNotBelowIntervalRejectedByKey)
{
    SimConfig c = SimConfig::paper(Mechanism::kHma);
    c.hma.sortStall = c.hma.interval;
    EXPECT_DEATH(Simulation sim(c),
                 "config key 'hma.sortStall': .* must be shorter than "
                 "hma.interval");
    c.hma.interval = 1'000'000; // mempod_sim --set hma.interval=1000000
    c.hma.sortStall = 140'000'000;
    EXPECT_DEATH(Simulation sim(c), "config key 'hma.sortStall'");
    c.hma.sortStall = c.hma.interval - 1;
    c.validate();
}

// Every preset, and HMA's epoch scaled down by scaleHmaEpoch (7:100
// stall ratio), keeps the stall below the epoch.
TEST(Config, PresetsKeepHmaStallBelowInterval)
{
    for (bool future : {false, true}) {
        SimConfig c = future ? SimConfig::future(Mechanism::kHma)
                             : SimConfig::paper(Mechanism::kHma);
        c.validate();
        for (const double ratio : {1.0, 40.0, 2000.0}) {
            SimConfig s = c;
            s.scaleHmaEpoch(ratio);
            EXPECT_LT(s.hma.sortStall, s.hma.interval) << ratio;
            s.validate();
        }
    }
    SimConfig::fastOnly(false).validate();
    SimConfig::fastOnly(true).validate();
    SimConfig::slowOnly(false).validate();
    SimConfig::slowOnly(true).validate();
}

// SystemGeometry::validate() used to die in an assertion that printed
// the failed expression ("fastChannels % numPods == 0") and no key.
TEST(ConfigDeathTest, UnalignedCapacityRejectedByKey)
{
    SimConfig c;
    c.geom.fastBytes += kPageBytes / 2;
    EXPECT_DEATH(Simulation sim(c),
                 "config key 'geom.fastBytes': .* whole number of "
                 "2048-byte pages");
    c = SimConfig{};
    c.geom.slowBytes += 1;
    EXPECT_DEATH(Simulation sim(c), "config key 'geom.slowBytes': .* pages");
}

TEST(ConfigDeathTest, ChannelsNotDividingIntoPodsRejectedByKey)
{
    SimConfig c;
    c.set("geom.fastChannels", "6");
    EXPECT_DEATH(Simulation sim(c),
                 "config key 'geom.fastChannels': fast channels \\(6\\) "
                 "must divide evenly into pods \\(geom.numPods = 4\\)");
    c = SimConfig{};
    c.set("geom.slowChannels", "3");
    EXPECT_DEATH(Simulation sim(c),
                 "config key 'geom.slowChannels': slow channels \\(3\\)");
}

TEST(ConfigDeathTest, PagesNotInterleavingOverChannelsRejectedByKey)
{
    SimConfig c;
    c.geom.fastBytes += kPageBytes; // one page more than 8 channels take
    EXPECT_DEATH(Simulation sim(c),
                 "config key 'geom.fastBytes': [0-9]+ fast pages must "
                 "interleave evenly over 8 channels");
    c = SimConfig{};
    c.geom.slowBytes += kPageBytes;
    EXPECT_DEATH(Simulation sim(c),
                 "config key 'geom.slowBytes': [0-9]+ slow pages must "
                 "interleave evenly over 4 channels");
}

TEST(ConfigDeathTest, SlowCapacityWithoutChannelsRejectedByKey)
{
    SimConfig c;
    c.set("geom.slowChannels", "0");
    EXPECT_DEATH(Simulation sim(c),
                 "config key 'geom.slowBytes': .* without channels");
}

TEST(ConfigDeathTest, TooManyPagesRejectedByKey)
{
    SimConfig c;
    c.geom.slowBytes = std::uint64_t{1} << 43; // 2^32 pages alone
    EXPECT_DEATH(Simulation sim(c),
                 "config key 'geom.slowBytes': [0-9]+ pages in all .* "
                 "fewer than 2\\^32");
}

// A trace with more cores than the configuration used to die in the
// placement with "logical page overflow".
TEST(ConfigDeathTest, TraceCoreBeyondNumCoresRejectedByKey)
{
    SimConfig c = SimConfig::paper(Mechanism::kNoMigration);
    c.geom = SystemGeometry::tiny();
    c.numCores = 3;
    GeneratorConfig gen;
    gen.totalRequests = 2000;
    gen.footprintScale = 0.02;
    const Trace trace = WorkloadCatalog::global().build("xalanc", gen);
    EXPECT_DEATH(
        {
            Simulation sim(c);
            sim.run(trace, "xalanc");
        },
        "config key 'numCores' = 3, but the trace has core [3-7]");
}

} // namespace
} // namespace mempod
