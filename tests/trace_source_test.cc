/**
 * @file
 * Tests for the streaming trace-ingestion subsystem: native
 * record-and-replay round trips, ChampSim and SIFT format round
 * trips, corrupt-input death tests, the bounded-memory mmap window,
 * and end-to-end replay determinism (a replayed run's serialized
 * statistics are byte-identical to the live run's).
 */
#include <gtest/gtest.h>

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
#include "trace/mapped_file.h"
#include "trace/native.h"
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
    const ChampSimConvertResult conv =
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
    const ChampSimConvertResult conv =
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
    const ChampSimConvertResult conv =
        convertToChampSim(vec, stem, ChampSimTiming::kPeriod);
    ChampSimTraceSource source(conv.files, ChampSimTiming::kPeriod,
                               TimePs{1} << 62,
                               champsim::kDefaultAddrBias);
    EXPECT_DEATH(materialize(source),
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
    const SiftConvertResult conv = convertToSift(vec, stem, 1);
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
    const SiftConvertResult conv = convertToSift(vec, stem, 1);
    EXPECT_DEATH(SiftTraceSource source(conv.files, /*period_ps=*/8),
                 "sift_overflow.core0.sift': record at offset 16: icount "
                 "4611686018427387904 times period_ps 8 overflows the "
                 "64-bit picosecond clock");
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
    const ChampSimConvertResult conv = convertToChampSim(
        vec, dir + "/replay_cs", ChampSimTiming::kIp);
    ChampSimTraceSource cs(conv.files, ChampSimTiming::kIp, 1000,
                           champsim::kDefaultAddrBias);
    const RunResult replay_cs = runSimulation(cfg, cs, "xalanc");
    EXPECT_EQ(serializeRunResult(replay_cs), live_stats);
}

} // namespace
} // namespace mempod
