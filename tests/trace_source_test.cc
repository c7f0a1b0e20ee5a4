/**
 * @file
 * Tests for the streaming trace-ingestion subsystem: native
 * record-and-replay round trips, ChampSim and SIFT format round
 * trips, corrupt-input death tests, the bounded-memory mmap window,
 * and end-to-end replay determinism (a replayed run's serialized
 * statistics are byte-identical to the live run's).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/simulation.h"
#include "trace/catalog.h"
#include "trace/champsim.h"
#include "trace/generator.h"
#include "trace/mapped_file.h"
#include "trace/native.h"
#include "trace/profiles.h"
#include "trace/sift.h"
#include "trace/source.h"

namespace mempod {
namespace {

std::string
testDir()
{
    const std::string dir = ::testing::TempDir() + "trace_source_test";
    const std::string mkdir = "mkdir -p " + dir;
    EXPECT_EQ(std::system(mkdir.c_str()), 0);
    return dir;
}

Trace
smallTrace(const char *workload = "mix5", std::uint64_t requests = 4000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.02;
    return WorkloadCatalog::global().build(workload, gc);
}

void
expectIdentical(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].time, b[i].time) << "record " << i;
        ASSERT_EQ(a[i].core, b[i].core) << "record " << i;
        ASSERT_EQ(a[i].coreLocal, b[i].coreLocal) << "record " << i;
        ASSERT_EQ(a[i].type, b[i].type) << "record " << i;
    }
}

TEST(NativeTrace, RoundTripIsLossless)
{
    const std::string path = testDir() + "/roundtrip.trc";
    const Trace original = smallTrace();
    writeNativeTrace(original, path);

    NativeTraceSource source(path);
    EXPECT_EQ(source.size(), original.size());
    expectIdentical(original, materialize(source));
}

TEST(NativeTrace, StreamingSummaryMatchesVectorSummary)
{
    const std::string path = testDir() + "/summary.trc";
    const Trace original = smallTrace();
    writeNativeTrace(original, path);

    VectorTraceSource in_memory(original);
    const TraceSummary vec = summarize(in_memory);
    NativeTraceSource source(path);
    const TraceSummary str = summarize(source);
    EXPECT_EQ(str.records, vec.records);
    EXPECT_EQ(str.reads, vec.reads);
    EXPECT_EQ(str.writes, vec.writes);
    EXPECT_EQ(str.duration, vec.duration);
    EXPECT_EQ(str.touchedPages, vec.touchedPages);
}

TEST(NativeTraceDeathTest, RejectsGarbage)
{
    const std::string path = testDir() + "/garbage.trc";
    std::ofstream out(path, std::ios::binary);
    out << "this is not a trace file, not even close, padding pad";
    out.close();
    EXPECT_DEATH(NativeTraceSource source(path), "not a mempod trace");
}

TEST(NativeTraceDeathTest, RejectsLegacyV1WithUpgradeHint)
{
    const std::string path = testDir() + "/legacy.trc";
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t legacy = 0x4d454d504f445452ull; // v1 magic
    out.write(reinterpret_cast<const char *>(&legacy), 8);
    const std::vector<char> pad(64, 0);
    out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
    out.close();
    EXPECT_DEATH(NativeTraceSource source(path), "re-record");
}

TEST(NativeTraceDeathTest, RejectsTruncatedPayload)
{
    const std::string dir = testDir();
    const std::string full = dir + "/full.trc";
    const Trace original = smallTrace();
    writeNativeTrace(original, full);

    // Chop half the payload off; the header still declares the full
    // record count.
    std::ifstream in(full, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    const std::string cut = dir + "/truncated.trc";
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
    out.close();
    EXPECT_DEATH(NativeTraceSource source(cut), "truncated");
}

TEST(NativeTraceDeathTest, RejectsVersionMismatch)
{
    const std::string dir = testDir();
    const std::string path = dir + "/future_version.trc";
    writeNativeTrace(smallTrace(), path);

    // Patch the version field (offset 8) to a future version.
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const std::uint32_t v99 = 99;
    f.write(reinterpret_cast<const char *>(&v99), 4);
    f.close();
    EXPECT_DEATH(NativeTraceSource source(path), "version");
}

TEST(NativeTrace, StreamingMemoryIsBoundedByWindow)
{
    const std::string path = testDir() + "/bounded.trc";
    const Trace original = smallTrace("mix5", 20000);
    writeNativeTrace(original, path);

    // Drain the whole file through a 4 KiB window: the high-water
    // mapped size must stay near the window, far below the file size.
    NativeTraceSource source(path, /*max_records=*/0,
                             /*window_bytes=*/4096);
    TraceRecord rec;
    std::uint64_t n = 0;
    while (source.next(rec))
        ++n;
    EXPECT_EQ(n, original.size());
    const std::uint64_t file_bytes =
        native_trace::kHeaderBytes +
        original.size() * native_trace::kRecordBytes;
    EXPECT_LE(source.maxResidentBytes(), 2 * 4096u);
    EXPECT_LT(source.maxResidentBytes(), file_bytes / 10);
}

TEST(ChampSimTrace, IpTimingRoundTripIsLossless)
{
    const std::string stem = testDir() + "/cs_ip";
    const Trace original = smallTrace();
    VectorTraceSource vec(original);
    const ConvertResult conv =
        convertToChampSim(vec, stem, ChampSimTiming::kIp);
    EXPECT_EQ(conv.records, original.size());
    EXPECT_GT(conv.files.size(), 1u); // multi-programmed => per-core

    ChampSimTraceSource source(conv.files, ChampSimTiming::kIp,
                               /*period_ps=*/1000,
                               champsim::kDefaultAddrBias);
    EXPECT_EQ(source.size(), original.size());
    expectIdentical(original, materialize(source));
}

TEST(ChampSimTrace, PeriodTimingPreservesPerCoreSequences)
{
    const std::string stem = testDir() + "/cs_period";
    const Trace original = smallTrace();
    VectorTraceSource vec(original);
    const ConvertResult conv =
        convertToChampSim(vec, stem, ChampSimTiming::kPeriod);

    const TimePs period = 500;
    ChampSimTraceSource source(conv.files, ChampSimTiming::kPeriod,
                               period, champsim::kDefaultAddrBias);
    const Trace replayed = materialize(source);
    ASSERT_EQ(replayed.size(), original.size());

    // Period timing synthesizes arrival times, so global interleaving
    // may shift — but each core's (address, type) sequence must be
    // exactly the original's, clocked at one instruction per period.
    std::map<std::uint8_t, std::vector<const TraceRecord *>> orig, rep;
    for (const auto &r : original)
        orig[r.core].push_back(&r);
    for (const auto &r : replayed)
        rep[r.core].push_back(&r);
    ASSERT_EQ(orig.size(), rep.size());
    for (const auto &[core, recs] : orig) {
        const auto &replay = rep.at(core);
        ASSERT_EQ(recs.size(), replay.size()) << "core " << int(core);
        for (std::size_t i = 0; i < recs.size(); ++i) {
            ASSERT_EQ(replay[i]->coreLocal, recs[i]->coreLocal);
            ASSERT_EQ(replay[i]->type, recs[i]->type);
            ASSERT_EQ(replay[i]->time, i * period);
        }
    }
}

TEST(ChampSimTraceDeathTest, RejectsNonMultipleFileSize)
{
    const std::string path = testDir() + "/ragged.champsim";
    std::ofstream out(path, std::ios::binary);
    const std::vector<char> bytes(100, 7); // not a multiple of 64
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    EXPECT_DEATH(ChampSimTraceSource source({{path, 0}},
                                            ChampSimTiming::kPeriod,
                                            1000,
                                            champsim::kDefaultAddrBias),
                 "64");
}

TEST(ChampSimTraceDeathTest, PeriodTimeOverflowIsFatal)
{
    // Instruction 4 at a 2^62 ps period is 2^64 ps: past the clock.
    const std::string stem = testDir() + "/cs_overflow";
    Trace trace;
    for (std::uint64_t i = 0; i < 8; ++i)
        trace.push_back({i, 64 * i, 0, AccessType::kRead});
    VectorTraceSource vec(trace);
    const ConvertResult conv =
        convertToChampSim(vec, stem, ChampSimTiming::kPeriod);
    // Every record is decoded at open, so the source fails to open.
    EXPECT_DEATH(ChampSimTraceSource source(conv.files,
                                            ChampSimTiming::kPeriod,
                                            TimePs{1} << 62,
                                            champsim::kDefaultAddrBias),
                 "cs_overflow.core0.champsim': instruction 4 times "
                 "period_ps 4611686018427387904 overflows the 64-bit "
                 "picosecond clock");
}

TEST(SiftTrace, RoundTripIsLossless)
{
    const std::string stem = testDir() + "/sift_rt";
    const Trace original = smallTrace();
    VectorTraceSource vec(original);
    // period 1: icount == time in ps, so the round trip is exact.
    const ConvertResult conv = convertToSift(vec, stem, 1);
    EXPECT_EQ(conv.records, original.size());

    SiftTraceSource source(conv.files, /*period_ps=*/1);
    EXPECT_EQ(source.size(), original.size());
    expectIdentical(original, materialize(source));
}

TEST(SiftTraceDeathTest, RejectsCompressedStreams)
{
    const std::string path = testDir() + "/compressed.sift";
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t magic = sift::kMagic, headerSize = 16;
    const std::uint64_t options = 0x7; // any nonzero = compressed/ext
    out.write(reinterpret_cast<const char *>(&magic), 4);
    out.write(reinterpret_cast<const char *>(&headerSize), 4);
    out.write(reinterpret_cast<const char *>(&options), 8);
    out.close();
    EXPECT_DEATH(SiftTraceSource source({{path, 0}}, 1000),
                 "not supported");
}

TEST(SiftTraceDeathTest, RejectsUnknownRecordKind)
{
    const std::string path = testDir() + "/badkind.sift";
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t magic = sift::kMagic, headerSize = 16;
    const std::uint64_t options = 0;
    out.write(reinterpret_cast<const char *>(&magic), 4);
    out.write(reinterpret_cast<const char *>(&headerSize), 4);
    out.write(reinterpret_cast<const char *>(&options), 8);
    const char bogus = 0x55;
    out.write(&bogus, 1);
    out.close();
    EXPECT_DEATH(SiftTraceSource source({{path, 0}}, 1000),
                 "unknown SIFT record kind");
}

TEST(SiftTraceDeathTest, TimeOverflowIsFatal)
{
    // icount 2^62 at 8 ps per instruction is 2^65 ps: past the clock.
    const std::string stem = testDir() + "/sift_overflow";
    const Trace trace = {{TimePs{1} << 62, 64, 0, AccessType::kRead}};
    VectorTraceSource vec(trace);
    const ConvertResult conv = convertToSift(vec, stem, 1);
    EXPECT_DEATH(SiftTraceSource source(conv.files, /*period_ps=*/8),
                 "sift_overflow.core0.sift': record at offset 16: icount "
                 "4611686018427387904 times period_ps 8 overflows the "
                 "64-bit picosecond clock");
}

/**
 * A file set listed in descending core order replays in the order of
 * the sort oracle GeneratorStream checks the generator against: each
 * core's records appended core by core, stable-sorted by time. A 1 ps
 * mean gap makes most records tie, so the tie order decides.
 */
TEST(CoreFileOrder, DescendingFileListMatchesTheSortOracle)
{
    BenchmarkProfile fast = findProfile("mcf");
    fast.reqsPerUs = 1e6;
    std::vector<BenchmarkProfile> profiles(5, fast);
    profiles[2].reqsPerUs = 2e6; // unequal quotas
    GeneratorConfig gc;
    gc.totalRequests = 3000;
    SyntheticTraceSource gen(profiles, gc);
    const Trace original = materialize(gen);

    Trace oracle;
    for (std::uint8_t core = 0; core < profiles.size(); ++core)
        for (const TraceRecord &r : original)
            if (r.core == core)
                oracle.push_back(r);
    std::stable_sort(oracle.begin(), oracle.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.time < b.time;
                     });
    std::size_t ties = 0;
    for (std::size_t i = 1; i < oracle.size(); ++i)
        ties += oracle[i].time == oracle[i - 1].time;
    EXPECT_GT(ties, oracle.size() / 2);

    VectorTraceSource vec(original);
    const std::string dir = testDir();
    std::vector<CoreFile> cs =
        convertToChampSim(vec, dir + "/desc_cs", ChampSimTiming::kIp).files;
    std::vector<CoreFile> sf =
        convertToSift(vec, dir + "/desc_sift", 1).files;
    ASSERT_EQ(cs.size(), profiles.size());
    std::reverse(cs.begin(), cs.end());
    std::reverse(sf.begin(), sf.end());
    ChampSimTraceSource cs_source(cs, ChampSimTiming::kIp, 1000,
                                  champsim::kDefaultAddrBias);
    expectIdentical(oracle, materialize(cs_source));
    SiftTraceSource sift_source(sf, 1);
    expectIdentical(oracle, materialize(sift_source));
}

/**
 * Write a ChampSim file of (ip, load address) instructions, unbiased
 * addresses.
 */
void
writeChampSim(const std::string &path,
              const std::vector<std::pair<std::uint64_t, std::uint64_t>>
                  &instrs)
{
    std::ofstream out(path, std::ios::binary);
    for (const auto &[ip, addr] : instrs) {
        std::uint8_t instr[champsim::kInstrBytes] = {0};
        const std::uint64_t biased = addr + champsim::kDefaultAddrBias;
        std::memcpy(instr, &ip, 8);
        std::memcpy(instr + 32, &biased, 8); // src_mem[0]: a load
        out.write(reinterpret_cast<const char *>(instr), sizeof instr);
    }
}

// kTimeNever (2^64-1 ps) marks an exhausted core in the merge. An
// ip-timed record there used to pass, and a two-file manifest then
// died in "simulation deadlock"; every decoder now rejects it at open.
TEST(CoreFileDeathTest, ReservedTimeIsFatalAtOpen)
{
    const std::string dir = testDir();
    writeChampSim(dir + "/never.core0.champsim",
                  {{1000, 0}, {kTimeNever, 4096}});
    writeChampSim(dir + "/never.core1.champsim", {{2000, 0}});
    EXPECT_DEATH(ChampSimTraceSource source(
                     {{dir + "/never.core0.champsim", 0},
                      {dir + "/never.core1.champsim", 1}},
                     ChampSimTiming::kIp, 1000,
                     champsim::kDefaultAddrBias),
                 "never.core0.champsim': instruction 1 is at "
                 "18446744073709551615 ps, the reserved end-of-stream "
                 "time");

    const Trace at_never = {{10, 64, 0, AccessType::kRead},
                            {kTimeNever, 128, 0, AccessType::kRead}};
    VectorTraceSource vec(at_never);
    const ConvertResult sift = convertToSift(vec, dir + "/never_sift", 1);
    EXPECT_DEATH(SiftTraceSource source(sift.files, 1),
                 "never_sift.core0.sift': record at offset 34 is at "
                 "18446744073709551615 ps, the reserved end-of-stream "
                 "time");

    const std::string native = dir + "/never.trc";
    writeNativeTrace(at_never, native);
    NativeTraceSource source(native);
    EXPECT_DEATH(materialize(source),
                 "never.trc': record 1 is at 18446744073709551615 ps, the "
                 "reserved end-of-stream time");
}

// The open-time pass runs the same decoder as the replay, so what used
// to fail mid-run now fails before the first record is yielded.
TEST(CoreFileDeathTest, MalformedChampSimRecordsFailAtOpen)
{
    const std::string dir = testDir();
    const std::string order = dir + "/order.core0.champsim";
    writeChampSim(order, {{5000, 0}, {4000, 64}});
    EXPECT_DEATH(ChampSimTraceSource source({{order, 0}},
                                            ChampSimTiming::kIp, 1000,
                                            champsim::kDefaultAddrBias),
                 "order.core0.champsim': instruction 1 is not in time "
                 "order \\(4000 ps after 5000 ps\\)");
    const std::string bias = dir + "/bias.core0.champsim";
    writeChampSim(bias, {{1000, 0}});
    EXPECT_DEATH(ChampSimTraceSource source({{bias, 0}},
                                            ChampSimTiming::kIp, 1000,
                                            /*addr_bias=*/128),
                 "bias.core0.champsim': address 0x40 at instruction 0 "
                 "is below the manifest addr_bias 128");
}

TEST(ScaledTraceDeathTest, TimeOverflowIsFatal)
{
    // 1e8 ps scaled by 1e12 is 1e20 ps: past llround's 2^63 range.
    const Trace trace = {{0, 0, 0, AccessType::kRead},
                         {100'000'000, 64, 0, AccessType::kRead}};
    ScaledTraceSource source(std::make_unique<VectorTraceSource>(trace),
                             1e12, "huge");
    EXPECT_DEATH(materialize(source),
                 "trace 'huge': record 1 at 100000000 ps times time scale "
                 "1e\\+12 overflows the 64-bit picosecond clock");
}

TEST(MappedFileDeathTest, ReadPastEndIsActionable)
{
    const std::string path = testDir() + "/short.bin";
    std::ofstream out(path, std::ios::binary);
    out << "0123456789";
    out.close();
    MappedFile file(path, 4096);
    EXPECT_DEATH(file.at(8, 16), "truncated");
}

/**
 * The record-and-replay guarantee end to end: capture a workload,
 * replay it from disk (native and ChampSim), and require the full
 * serialized statistics bundle — every counter and hex-exact float —
 * to match the live run byte for byte.
 */
TEST(ReplayDeterminism, ReplayedStatsAreByteIdenticalToLive)
{
    const std::string dir = testDir();
    const Trace original = smallTrace("xalanc", 6000);
    const SimConfig cfg = SimConfig::paper(Mechanism::kMemPod);

    const RunResult live = runSimulation(cfg, original, "xalanc");
    const std::string live_stats = serializeRunResult(live);

    const std::string native_path = dir + "/replay.trc";
    writeNativeTrace(original, native_path);
    NativeTraceSource native(native_path);
    const RunResult replay_native =
        runSimulation(cfg, native, "xalanc");
    EXPECT_EQ(serializeRunResult(replay_native), live_stats);

    VectorTraceSource vec(original);
    const ConvertResult conv = convertToChampSim(
        vec, dir + "/replay_cs", ChampSimTiming::kIp);
    ChampSimTraceSource cs(conv.files, ChampSimTiming::kIp, 1000,
                           champsim::kDefaultAddrBias);
    const RunResult replay_cs = runSimulation(cfg, cs, "xalanc");
    EXPECT_EQ(serializeRunResult(replay_cs), live_stats);
}

} // namespace
} // namespace mempod
