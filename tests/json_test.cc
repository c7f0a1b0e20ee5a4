/**
 * @file
 * The JSON reader on its own: a table of valid documents (decoded
 * values and the pretty printer's bytes), a table of invalid ones
 * (each must come back as an error at the right byte offset), exact
 * integer and locale-free number access, and a seeded mutation loop
 * over documents the repo itself emits — every mutant must either
 * parse or return an error, never crash (the suite runs under
 * ASan/UBSan in CI).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "sim/config.h"
#include "sim/simulation.h"
#include "sim/stats_writer.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

struct ValidCase
{
    std::string text;
    std::string pretty;
};

TEST(Json, ValidDocumentsParseAndPrint)
{
    const std::vector<ValidCase> cases = {
        {"null", "null"},
        {" \t\r\ntrue\n", "true"},
        {"false", "false"},
        {"0", "0"},
        {"-0", "-0"},
        {"12.5e+3", "12.5e+3"},
        {"1E-7", "1E-7"},
        {"18446744073709551616", "18446744073709551616"},
        {R"("a\"b\\c\/d")", R"("a\"b\\c/d")"},
        {R"("\b\f\n\r\t")", R"("\u0008\u000c\n\r\t")"},
        {"[]", "[]"},
        {"{}", "{}"},
        {"[1,[2,{}]]", "[\n  1,\n  [\n    2,\n    {}\n  ]\n]"},
        {R"({"a":{"b":[true,null]},"c":"x"})",
         "{\n  \"a\": {\n    \"b\": [\n      true,\n      null\n    ]\n"
         "  },\n  \"c\": \"x\"\n}"},
        {std::string(json::kMaxDepth, '[') +
             std::string(json::kMaxDepth, ']'),
         ""},
    };
    for (const ValidCase &c : cases) {
        const json::Parsed doc = json::parse(c.text);
        ASSERT_FALSE(doc.error)
            << c.text << ": " << doc.error->message << " at "
            << doc.error->offset;
        if (!c.pretty.empty()) {
            EXPECT_EQ(json::pretty(doc.value), c.pretty) << c.text;
        }
    }
}

TEST(Json, StringsDecodeEscapesToUtf8)
{
    const json::Parsed doc =
        json::parse(R"(["\u0041\u00e9\u20AC\ud83d\ude00", "\u0000"])");
    ASSERT_FALSE(doc.error) << doc.error->message;
    EXPECT_EQ(doc.value.items[0].text,
              "A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
    EXPECT_EQ(doc.value.items[1].text, std::string(1, '\0'));
}

TEST(Json, ObjectsKeepDocumentOrderAndDuplicates)
{
    const json::Parsed doc = json::parse(R"({"z":1,"a":2,"z":3})");
    ASSERT_FALSE(doc.error);
    ASSERT_EQ(doc.value.members.size(), 3u);
    EXPECT_EQ(doc.value.members[0].first, "z");
    EXPECT_EQ(doc.value.members[1].first, "a");
    EXPECT_EQ(doc.value.find("z")->text, "1"); // first match
    EXPECT_EQ(json::flattenNumbers(doc.value).at("z"), 3.0); // last wins
}

struct InvalidCase
{
    std::string text;
    std::size_t offset;
};

TEST(Json, InvalidDocumentsReportTheOffendingByte)
{
    const std::vector<InvalidCase> cases = {
        {"", 0},
        {"   ", 3},
        {"[1,]", 3},           // trailing comma in an array
        {R"({"a":1,})", 7},    // ...and in an object
        {"[1 2]", 3},
        {R"({"a" 1})", 5},
        {"{1:2}", 1},          // non-string key
        {"{'a':1}", 1},
        {"tru", 0},
        {"nul", 0},
        {"inf", 0},
        {"nan", 0},
        {"-inf", 1},
        {"+1", 0},
        {".5", 0},
        {"0x10", 1},           // hex: "0" then trailing "x10"
        {"01", 1},             // leading zero
        {"1.", 2},
        {"1.e5", 2},
        {"1e", 2},
        {"1e+", 3},
        {"1e400", 0},          // beyond any double
        {"-1e400", 0},
        {"\"abc", 4},
        {"\"a\nb\"", 2},       // raw control characters
        {std::string("\"a\x01\""), 2},
        {std::string("\"a\0\"", 4), 2},
        {R"("\x")", 2},
        {R"("\u12g4")", 5},
        {R"("\u12)", 5},
        {R"("\uDC00")", 1},    // lone low surrogate
        {R"("\uD800x")", 1},   // high surrogate without its pair
        {R"("\uD800A")", 1},
        {"{} x", 3},
        {"[1]]", 3},
        {std::string(json::kMaxDepth + 1, '['), json::kMaxDepth},
        {"[{\"a\":" + std::string(200, '['), 6 + json::kMaxDepth - 2},
    };
    for (const InvalidCase &c : cases) {
        const json::Parsed doc = json::parse(c.text);
        ASSERT_TRUE(doc.error) << "accepted: " << c.text;
        EXPECT_EQ(doc.error->offset, c.offset)
            << c.text << ": " << doc.error->message;
        EXPECT_FALSE(doc.error->message.empty());
    }
}

TEST(Json, ErrorsNameTheLineAndTheProblem)
{
    const json::Parsed doc = json::parse("[1,\n2,\n]");
    ASSERT_TRUE(doc.error);
    EXPECT_EQ(doc.error->offset, 7u);
    EXPECT_EQ(doc.error->line, 3u);
    EXPECT_NE(json::parse("{} x").error->message.find("trailing"),
              std::string::npos);
    EXPECT_NE(json::parse(std::string(500, '['))
                  .error->message.find("nesting deeper"),
              std::string::npos);
}

TEST(Json, IntegersAreExactOverTheFullU64Range)
{
    const auto u64 = [](const std::string &text) {
        return json::parse(text).value.asU64();
    };
    EXPECT_EQ(u64("0"), 0u);
    EXPECT_EQ(u64("9007199254740993"), 9007199254740993ull);
    EXPECT_EQ(u64("18446744073709551615"), UINT64_MAX);
    for (const char *bad : {"18446744073709551616", "-1", "-0", "1.5",
                            "1.0", "1e3", "1e30", "\"7\"", "true"})
        EXPECT_FALSE(u64(bad)) << bad;
}

TEST(Json, DoublesAreNearestAndOnlyForNumbers)
{
    const json::Parsed doc =
        json::parse(R"([0.1, -2.5e-3, 9007199254740993, "1"])");
    ASSERT_FALSE(doc.error);
    EXPECT_EQ(*doc.value.items[0].asDouble(), 0.1);
    EXPECT_EQ(*doc.value.items[1].asDouble(), -2.5e-3);
    EXPECT_EQ(*doc.value.items[2].asDouble(), 9007199254740992.0);
    EXPECT_FALSE(doc.value.items[3].asDouble());
}

TEST(Json, FlattenNumbersUsesDottedAndIndexedPaths)
{
    const json::Parsed doc = json::parse(
        R"({"a":{"b":[1,{"c":2.5}]},"s":"x","t":true,"n":null})");
    ASSERT_FALSE(doc.error);
    const auto flat = json::flattenNumbers(doc.value);
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_EQ(flat.at("a.b[0]"), 1.0);
    EXPECT_EQ(flat.at("a.b[1].c"), 2.5);
}

TEST(Json, EscapeRoundTripsEveryByte)
{
    std::string all;
    for (int c = 1; c < 256; ++c)
        all += static_cast<char>(c);
    const std::string escaped = json::escape(all);
    for (const char c : escaped)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20);
    const json::Parsed doc = json::parse("\"" + escaped + "\"");
    ASSERT_FALSE(doc.error) << doc.error->message;
    EXPECT_EQ(doc.value.text, all);
}

/** Documents the repo writes, as parse() will meet them. */
std::vector<std::string>
emittedDocuments()
{
    SimConfig c = SimConfig::paper(Mechanism::kMemPod);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    GeneratorConfig gc;
    gc.totalRequests = 3000;
    gc.footprintScale = 0.015;
    Simulation sim(c);
    const RunResult r =
        sim.run(WorkloadCatalog::global().build("xalanc", gc), "xalanc");

    PerfReport perf;
    perf.wallSeconds = 1.5;
    perf.eventsExecuted = 7;
    perf.phasesNs = {{"run", 123}};
    perf.counters["eq.cascades"] = 5;
    perf.gauges["g"] = 0.5;
    perf.histograms["h"] = {0, 2, 1};
    perf.shards.resize(2);

    return {
        c.toJson(),
        StatsWriter::toJson(sim.registry(), sim.finalSnapshot(), r),
        StatsWriter::perfToJson(perf),
        R"({"version": 1, "traces": [
  {"name": "graph500", "format": "native", "file": "graph500.trc"},
  {"name": "spec_mix", "format": "champsim", "timing": "ip",
   "addr_bias": 64, "time_scale": 1.0,
   "files": [{"path": "mix.core0.champsim", "core": 0},
             {"path": "mix.core1.champsim", "core": 1}]}]})",
    };
}

TEST(Json, MutatedRepoDocumentsParseOrFailCleanly)
{
    static const char kStructural[] = "{}[],:\"\\0123456789-+.eE \n";
    Rng rng(0x6a736f6e);
    std::size_t parsed = 0, rejected = 0;
    for (const std::string &original : emittedDocuments()) {
        const json::Parsed clean = json::parse(original);
        ASSERT_FALSE(clean.error) << clean.error->message;
        for (int m = 0; m < 1500; ++m) {
            std::string doc = original;
            const int edits = 1 + static_cast<int>(rng.nextBelow(3));
            for (int e = 0; e < edits && !doc.empty(); ++e) {
                const std::size_t at = rng.nextBelow(doc.size());
                switch (rng.nextBelow(4)) {
                  case 0: // flip one bit
                    doc[at] = static_cast<char>(
                        doc[at] ^ (1u << rng.nextBelow(8)));
                    break;
                  case 1: // delete a short run
                    doc.erase(at, 1 + rng.nextBelow(8));
                    break;
                  case 2: // insert a structural or random byte
                    doc.insert(
                        doc.begin() + static_cast<std::ptrdiff_t>(at),
                        rng.nextBool(0.5)
                            ? kStructural[rng.nextBelow(
                                  sizeof(kStructural) - 1)]
                            : static_cast<char>(rng.nextBelow(256)));
                    break;
                  default: // truncate
                    doc.resize(at);
                }
            }
            const json::Parsed p = json::parse(doc);
            if (p.error) {
                ++rejected;
                ASSERT_LE(p.error->offset, doc.size());
                std::size_t line = 1;
                for (std::size_t i = 0; i < p.error->offset; ++i)
                    line += doc[i] == '\n';
                ASSERT_EQ(p.error->line, line);
            } else {
                ++parsed;
                // Whatever parses survives a print/parse round trip.
                const std::string printed = json::pretty(p.value);
                const json::Parsed again = json::parse(printed);
                ASSERT_FALSE(again.error) << printed;
                ASSERT_EQ(json::pretty(again.value), printed);
            }
        }
    }
    // Both outcomes must actually be exercised.
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace mempod
