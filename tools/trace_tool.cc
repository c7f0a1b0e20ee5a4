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
 * a native trace into per-core ChampSim or SIFT files
 * `<out-stem>.core<k>.<format>` and writes the manifest that replays
 * them, `<out-stem>.<format>.json`, whose one trace is named after the
 * stem's basename. The Chrome traces a run writes
 * (--emit traces) are read by `run_tool trace`.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/footprint.h"
#include "common/json.h"
#include "common/log.h"
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
    std::printf("recorded %llu records to %s (peak resident %llu KiB)\n",
                static_cast<unsigned long long>(writer.recordsWritten()),
                pos[1],
                static_cast<unsigned long long>(
                    source->maxResidentBytes() / 1024));
    return 0;
}

/**
 * Write `<stem>.<fmt>.json`, the manifest that replays a convert's
 * output: one trace named after the stem's basename, `params` its
 * format keys, file paths relative to the manifest beside them.
 */
std::string
writeManifest(const std::string &stem, const std::string &fmt,
              const std::string &params, const ConvertResult &res)
{
    const auto base = [](const std::string &path) {
        return json::escape(path.substr(path.find_last_of('/') + 1));
    };
    std::string text = "{\"version\": 1, \"traces\": [\n  {\"name\": \"" +
                       base(stem) + "\", \"format\": \"" + fmt + "\", " +
                       params + ",\n   \"files\": [";
    for (std::size_t i = 0; i < res.files.size(); ++i) {
        text += std::string(i ? ",\n             " : "") +
                "{\"path\": \"" + base(res.files[i].path) +
                "\", \"core\": " + std::to_string(res.files[i].core) + "}";
    }
    const std::string path = stem + "." + fmt + ".json";
    std::ofstream out(path);
    if (!(out << text << "]}]}\n"))
        MEMPOD_FATAL("cannot write '%s'", path.c_str());
    return path;
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
    const std::string stem = pos[1];
    const std::string fmt = pos[2];
    if (fmt != "champsim" && fmt != "sift") {
        std::fprintf(stderr,
                     "unknown convert format '%s' (use champsim or "
                     "sift)\n",
                     fmt.c_str());
        return 2;
    }

    NativeTraceSource source(pos[0]);
    const std::string period = "\"period_ps\": " + std::to_string(period_ps);
    ConvertResult res;
    std::string params;
    if (fmt == "champsim") {
        res = convertToChampSim(source, stem, timing, addr_bias);
        params = timing == ChampSimTiming::kIp
                     ? "\"timing\": \"ip\""
                     : "\"timing\": \"period\", " + period;
        params += ", \"addr_bias\": " + std::to_string(addr_bias);
    } else {
        res = convertToSift(source, stem, period_ps);
        params = period;
    }
    const std::string manifest = writeManifest(stem, fmt, params, res);
    std::printf("converted %llu records into %zu %s file(s); replay "
                "with --manifest %s\n",
                static_cast<unsigned long long>(res.records),
                res.files.size(), fmt.c_str(), manifest.c_str());
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage(kInfoUsage);
    NativeTraceSource source(argv[2]);
    const TraceSummary s = summarize(source);
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

    const FootprintStats f = analyzeFootprint(source);
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
        if (f.perCoreAccesses[c] != 0)
            std::printf(" c%d=%llu", c,
                        static_cast<unsigned long long>(
                            f.perCoreAccesses[c]));
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
