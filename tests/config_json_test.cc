/** @file Unit tests for SimConfig JSON round-trip and overrides. */
#include <gtest/gtest.h>

#include <string>

#include "common/json.h"
#include "sim/config.h"

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

} // namespace
} // namespace mempod
