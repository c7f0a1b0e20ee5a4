/**
 * @file
 * Trace utility: record workload traces to disk, inspect saved
 * traces, and print per-core composition — so experiments can be run
 * repeatedly against identical frozen inputs.
 *
 * Usage:
 *   trace_tool record  <workload> <file.trc> [requests] [seed]
 *                      [--manifest traces.json]...
 *   trace_tool convert <in.trc> <out-stem> champsim|sift
 *                      [--timing ip|period] [--period-ps N]
 *                      [--addr-bias N]
 *   trace_tool info    <file.trc>
 *
 * Every numeric argument must be a whole unsigned decimal token; a
 * malformed one prints the subcommand's usage and exits 2.
 *
 * `record` streams any catalog workload (synthetic, or external after
 * --manifest) into the versioned native trace format; `convert` splits
 * a native trace into per-core ChampSim or SIFT files and prints the
 * manifest entry that replays them. The Chrome traces a run writes
 * (--emit traces) are read by `run_tool trace`.
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/footprint.h"
#include "common/number.h"
#include "trace/catalog.h"
#include "trace/champsim.h"
#include "trace/native.h"
#include "trace/sift.h"

namespace {

using namespace mempod;

constexpr const char *kRecordUsage =
    "record <workload> <file.trc> [requests] [seed] "
    "[--manifest traces.json]...";
constexpr const char *kConvertUsage =
    "convert <in.trc> <out-stem> champsim|sift [--timing ip|period] "
    "[--period-ps N] [--addr-bias N]";
constexpr const char *kInfoUsage = "info <file.trc>";

int
usage(const char *text)
{
    std::fprintf(stderr, "usage: trace_tool %s\n", text);
    return 2;
}

/** True when all of `text` is an unsigned decimal; else says why. */
template <typename Unsigned>
bool
readNumber(const char *text, Unsigned &out)
{
    if (parseDecimal(text, out) == std::errc())
        return true;
    std::fprintf(stderr, "trace_tool: '%s' is not an unsigned integer\n",
                 text);
    return false;
}

int
cmdRecord(int argc, char **argv)
{
    std::vector<const char *> pos;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--manifest") && i + 1 < argc)
            WorkloadCatalog::global().loadManifest(argv[++i]);
        else
            pos.push_back(argv[i]);
    }
    GeneratorConfig gc;
    gc.totalRequests = 1'000'000;
    gc.seed = 42;
    if (pos.size() < 2 ||
        (pos.size() > 2 && !readNumber(pos[2], gc.totalRequests)) ||
        (pos.size() > 3 && !readNumber(pos[3], gc.seed)))
        return usage(kRecordUsage);

    const auto source = WorkloadCatalog::global().open(pos[0], gc);
    source->reset();
    NativeTraceWriter writer(pos[1]);
    TraceRecord rec;
    while (source->next(rec))
        writer.append(rec);
    writer.close();
    std::printf("recorded %llu records to %s (peak mapped %llu KiB)\n",
                static_cast<unsigned long long>(writer.recordsWritten()),
                pos[1],
                static_cast<unsigned long long>(
                    source->maxResidentBytes() / 1024));
    return 0;
}

/** The traces.json entry that replays a convert's output, verbatim. */
void
printManifestEntry(const char *fmt_line,
                   const std::vector<std::pair<std::string, unsigned>>
                       &files)
{
    std::printf("manifest entry (paste into traces.json "
                "\"traces\": [...]):\n");
    std::printf("  {%s,\n   \"files\": [", fmt_line);
    for (std::size_t i = 0; i < files.size(); ++i) {
        std::printf("%s{\"path\": \"%s\", \"core\": %u}",
                    i ? ",\n              " : "", files[i].first.c_str(),
                    files[i].second);
    }
    std::printf("]}\n");
}

int
cmdConvert(int argc, char **argv)
{
    ChampSimTiming timing = ChampSimTiming::kIp;
    TimePs period_ps = 1000;
    std::uint64_t addr_bias = champsim::kDefaultAddrBias;
    std::vector<const char *> pos;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--timing") && i + 1 < argc) {
            const std::string t = argv[++i];
            if (t == "ip")
                timing = ChampSimTiming::kIp;
            else if (t == "period")
                timing = ChampSimTiming::kPeriod;
            else {
                std::fprintf(stderr,
                             "--timing must be ip or period, got "
                             "'%s'\n",
                             t.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--period-ps") &&
                   i + 1 < argc) {
            if (!readNumber(argv[++i], period_ps))
                return usage(kConvertUsage);
        } else if (!std::strcmp(argv[i], "--addr-bias") &&
                   i + 1 < argc) {
            if (!readNumber(argv[++i], addr_bias))
                return usage(kConvertUsage);
        } else {
            pos.push_back(argv[i]);
        }
    }
    if (pos.size() < 3)
        return usage(kConvertUsage);

    NativeTraceSource source(pos[0]);
    const std::string fmt = pos[2];
    std::vector<std::pair<std::string, unsigned>> files;
    if (fmt == "champsim") {
        const ChampSimConvertResult res =
            convertToChampSim(source, pos[1], timing, addr_bias);
        for (const auto &f : res.files)
            files.emplace_back(f.path, f.core);
        std::printf("converted %llu records into %zu ChampSim "
                    "file(s)\n",
                    static_cast<unsigned long long>(res.records),
                    files.size());
        char fmt_line[160];
        std::snprintf(fmt_line, sizeof fmt_line,
                      "\"name\": \"NAME\", \"format\": \"champsim\", "
                      "\"timing\": \"%s\", \"addr_bias\": %llu",
                      timing == ChampSimTiming::kIp ? "ip" : "period",
                      static_cast<unsigned long long>(addr_bias));
        printManifestEntry(fmt_line, files);
    } else if (fmt == "sift") {
        const SiftConvertResult res =
            convertToSift(source, pos[1], period_ps);
        for (const auto &f : res.files)
            files.emplace_back(f.path, f.core);
        std::printf("converted %llu records into %zu SIFT file(s)\n",
                    static_cast<unsigned long long>(res.records),
                    files.size());
        char fmt_line[160];
        std::snprintf(fmt_line, sizeof fmt_line,
                      "\"name\": \"NAME\", \"format\": \"sift\", "
                      "\"period_ps\": %llu",
                      static_cast<unsigned long long>(period_ps));
        printManifestEntry(fmt_line, files);
    } else {
        std::fprintf(stderr,
                     "unknown convert format '%s' (use champsim or "
                     "sift)\n",
                     fmt.c_str());
        return 2;
    }
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage(kInfoUsage);
    NativeTraceSource source(argv[2]);
    const Trace trace = materialize(source);
    const TraceSummary s = summarize(trace);
    std::printf("records:      %llu\n",
                static_cast<unsigned long long>(s.records));
    std::printf("reads/writes: %llu / %llu (%.1f%% writes)\n",
                static_cast<unsigned long long>(s.reads),
                static_cast<unsigned long long>(s.writes),
                s.records ? 100.0 * s.writes / s.records : 0.0);
    std::printf("duration:     %.3f ms (%.1f req/us)\n",
                static_cast<double>(s.duration) / 1e9, s.requestsPerUs);
    std::printf("pages:        %llu distinct (core, page) pairs\n",
                static_cast<unsigned long long>(s.touchedPages));

    std::unordered_map<int, std::uint64_t> per_core;
    for (const auto &r : trace)
        ++per_core[r.core];
    const FootprintStats f = analyzeFootprint(trace);
    std::printf("concentration: hottest 1/10/100/1k/10k pages absorb "
                "%.1f/%.1f/%.1f/%.1f/%.1f %% of accesses\n",
                100 * f.concentration[0], 100 * f.concentration[1],
                100 * f.concentration[2], 100 * f.concentration[3],
                100 * f.concentration[4]);
    std::printf("skew index:   %.3f; single-touch pages: %.1f %%; "
                "mean 5500-req working set: %.0f pages\n",
                f.skewIndex, 100 * f.singleTouchFraction,
                f.meanWindowWorkingSet());
    std::printf("per core:    ");
    for (int c = 0; c < 256; ++c) {
        auto it = per_core.find(c);
        if (it != per_core.end())
            std::printf(" c%d=%llu", c,
                        static_cast<unsigned long long>(it->second));
    }
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: trace_tool "
                             "record|convert|info ...\n");
        return 2;
    }
    if (!std::strcmp(argv[1], "record"))
        return cmdRecord(argc, argv);
    if (!std::strcmp(argv[1], "convert"))
        return cmdConvert(argc, argv);
    if (!std::strcmp(argv[1], "info"))
        return cmdInfo(argc, argv);
    std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
    return 2;
}
