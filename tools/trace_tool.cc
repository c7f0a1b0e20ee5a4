/**
 * @file
 * Trace utility: generate workload traces to disk, inspect saved
 * traces, and print per-core composition — so experiments can be run
 * repeatedly against identical frozen inputs.
 *
 * Usage:
 *   trace_tool gen     <workload> <file.bin> [requests] [seed]
 *   trace_tool record  <workload> <file.trc> [requests] [seed]
 *                      [--manifest traces.json]...
 *   trace_tool convert <in.trc> <out-stem> champsim|sift
 *                      [--timing ip|period] [--period-ps N]
 *                      [--addr-bias N]
 *   trace_tool info    <file.bin>
 *   trace_tool summary <file.trace.json> [topk] [--json]
 *
 * `record` streams any catalog workload (synthetic, or external after
 * --manifest) into the versioned native trace format; `convert` splits
 * a native trace into per-core ChampSim or SIFT files and prints the
 * manifest entry that replays them. `summary --json` replaces the
 * human tables with one machine-readable JSON object (event counts,
 * span totals, top-k longest spans) so scripts and CI can digest a
 * trace without scraping table output.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/footprint.h"
#include "common/json.h"
#include "trace/catalog.h"
#include "trace/champsim.h"
#include "trace/native.h"
#include "trace/sift.h"

namespace {

using namespace mempod;

int
cmdGen(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: trace_tool gen <workload> <file.bin> "
                     "[requests] [seed]\n");
        return 2;
    }
    GeneratorConfig gc;
    gc.totalRequests =
        argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1'000'000;
    gc.seed = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 42;
    const Trace trace = WorkloadCatalog::global().build(argv[2], gc);
    saveTrace(trace, argv[3]);
    const TraceSummary s = summarize(trace);
    std::printf("wrote %llu records (%.1f req/us, %.2f ms) to %s\n",
                static_cast<unsigned long long>(s.records),
                s.requestsPerUs,
                static_cast<double>(s.duration) / 1e9, argv[3]);
    return 0;
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
    if (pos.size() < 2) {
        std::fprintf(stderr,
                     "usage: trace_tool record <workload> <file.trc> "
                     "[requests] [seed] [--manifest traces.json]...\n");
        return 2;
    }
    GeneratorConfig gc;
    gc.totalRequests =
        pos.size() > 2 ? std::strtoull(pos[2], nullptr, 10) : 1'000'000;
    gc.seed = pos.size() > 3 ? std::strtoull(pos[3], nullptr, 10) : 42;

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
            period_ps = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--addr-bias") &&
                   i + 1 < argc) {
            addr_bias = std::strtoull(argv[++i], nullptr, 10);
        } else {
            pos.push_back(argv[i]);
        }
    }
    if (pos.size() < 3) {
        std::fprintf(stderr,
                     "usage: trace_tool convert <in.trc> <out-stem> "
                     "champsim|sift [--timing ip|period] "
                     "[--period-ps N] [--addr-bias N]\n");
        return 2;
    }

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
    if (argc < 3) {
        std::fprintf(stderr, "usage: trace_tool info <file.bin>\n");
        return 2;
    }
    const Trace trace = loadTrace(argv[2]);
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

/** String member `key` of a trace event; "" when absent. */
std::string
field(const json::Value &event, const char *key)
{
    const json::Value *v = event.find(key);
    return v && v->kind == json::Value::Kind::kString ? v->text : "";
}

int
cmdSummary(int argc, char **argv)
{
    bool as_json = false;
    std::vector<const char *> pos;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json"))
            as_json = true;
        else
            pos.push_back(argv[i]);
    }
    if (pos.empty()) {
        std::fprintf(stderr, "usage: trace_tool summary "
                             "<file.trace.json> [topk] [--json]\n");
        return 2;
    }
    const std::size_t topk =
        pos.size() > 1 ? std::strtoull(pos[1], nullptr, 10) : 10;
    std::ifstream in(pos[0]);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", pos[0]);
        return 2;
    }

    struct Span
    {
        std::string id;
        double beginUs = 0, endUs = 0;
        double durUs() const { return endUs - beginUs; }
    };
    // Open async spans keyed by cat/id/name until their 'e' arrives.
    std::unordered_map<std::string, Span> open;
    std::map<std::string, std::uint64_t> counts; // per (ph,name)
    std::vector<Span> demands, migrations, blocked;
    std::uint64_t events = 0, unmatched = 0;
    std::map<std::string, std::uint64_t> instants;

    std::string line;
    while (std::getline(in, line)) {
        // The tracer writes one event object per line, comma-separated
        // inside the traceEvents array; the envelope lines around it
        // are not complete documents and are skipped.
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        const json::Parsed event = json::parse(line);
        if (event.error)
            continue;
        const std::string ph = field(event.value, "ph");
        if (ph.empty() || ph == "M")
            continue;
        ++events;
        const std::string name = field(event.value, "name");
        ++counts[ph + " " + name];
        if (ph == "i")
            ++instants[name];
        if (ph != "b" && ph != "e")
            continue;
        const std::string id = field(event.value, "id");
        const std::string key =
            field(event.value, "cat") + "/" + id + "/" + name;
        const json::Value *ts_value = event.value.find("ts");
        const double ts =
            ts_value ? ts_value->asDouble().value_or(-1.0) : -1.0;
        if (ph == "b") {
            open[key] = Span{id, ts, ts};
        } else {
            auto it = open.find(key);
            if (it == open.end()) {
                ++unmatched;
                continue;
            }
            Span s = it->second;
            s.endUs = ts;
            open.erase(it);
            if (name == "demand")
                demands.push_back(s);
            else if (name == "migration")
                migrations.push_back(s);
            else if (name == "blocked")
                blocked.push_back(s);
        }
    }

    if (as_json) {
        auto byDur = [](const Span &a, const Span &b) {
            return a.durUs() > b.durUs();
        };
        std::sort(demands.begin(), demands.end(), byDur);
        std::sort(migrations.begin(), migrations.end(), byDur);
        auto totalUs = [](const std::vector<Span> &v) {
            double t = 0;
            for (const Span &s : v)
                t += s.durUs();
            return t;
        };
        auto spanArray = [topk](const std::vector<Span> &v) {
            std::string out = "[";
            for (std::size_t i = 0; i < std::min(topk, v.size()); ++i) {
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "%s{\"id\":\"%s\",\"begin_us\":%.3f,"
                              "\"dur_us\":%.3f}",
                              i ? "," : "", v[i].id.c_str(),
                              v[i].beginUs, v[i].durUs());
                out += buf;
            }
            return out + "]";
        };
        std::printf("{\"schema\":\"mempod-trace-summary-v1\",");
        std::printf("\"events\":%llu,\"unmatched_ends\":%llu,"
                    "\"open_spans\":%zu,",
                    static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(unmatched),
                    open.size());
        std::printf("\"counts\":{");
        bool first = true;
        for (const auto &[k, n] : counts) {
            std::printf("%s\"%s\":%llu", first ? "" : ",", k.c_str(),
                        static_cast<unsigned long long>(n));
            first = false;
        }
        std::printf("},\"markers\":{");
        first = true;
        for (const auto &[k, n] : instants) {
            std::printf("%s\"%s\":%llu", first ? "" : ",", k.c_str(),
                        static_cast<unsigned long long>(n));
            first = false;
        }
        std::printf("},");
        std::printf("\"demands\":{\"complete\":%zu,\"total_us\":%.3f,"
                    "\"top\":%s},",
                    demands.size(), totalUs(demands),
                    spanArray(demands).c_str());
        std::printf("\"migrations\":{\"complete\":%zu,"
                    "\"total_us\":%.3f,\"top\":%s},",
                    migrations.size(), totalUs(migrations),
                    spanArray(migrations).c_str());
        std::printf("\"blocked\":{\"complete\":%zu,\"total_us\":%.3f}",
                    blocked.size(), totalUs(blocked));
        std::printf("}\n");
        return 0;
    }

    std::printf("events: %llu  (unmatched async ends: %llu, "
                "still-open spans: %zu)\n",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(unmatched),
                open.size());
    std::printf("\nevent counts by phase+name:\n");
    for (const auto &[k, n] : counts)
        std::printf("  %-24s %llu\n", k.c_str(),
                    static_cast<unsigned long long>(n));

    auto byDur = [](const Span &a, const Span &b) {
        return a.durUs() > b.durUs();
    };
    std::sort(demands.begin(), demands.end(), byDur);
    std::printf("\ntop %zu longest sampled demand requests:\n",
                std::min(topk, demands.size()));
    for (std::size_t i = 0; i < std::min(topk, demands.size()); ++i)
        std::printf("  id=%-10s start=%12.3f us  latency=%9.3f us\n",
                    demands[i].id.c_str(), demands[i].beginUs,
                    demands[i].durUs());

    // Interference windows: for each migration, how many sampled
    // demand spans overlap it in time (they contended for the same
    // banks or were parked behind its page locks).
    std::sort(migrations.begin(), migrations.end(), byDur);
    double migUs = 0;
    for (const Span &m : migrations)
        migUs += m.durUs();
    std::printf("\nmigrations: %zu complete, total span %.3f us\n",
                migrations.size(), migUs);
    for (std::size_t i = 0; i < std::min(topk, migrations.size());
         ++i) {
        const Span &m = migrations[i];
        std::uint64_t overlap = 0;
        for (const Span &d : demands)
            if (d.beginUs < m.endUs && m.beginUs < d.endUs)
                ++overlap;
        std::printf("  flow=%-12s start=%12.3f us  dur=%9.3f us  "
                    "overlapping sampled demands=%llu\n",
                    m.id.c_str(), m.beginUs, m.durUs(),
                    static_cast<unsigned long long>(overlap));
    }
    double blockedUs = 0;
    for (const Span &b : blocked)
        blockedUs += b.durUs();
    std::printf("\nblocked windows: %zu sampled demands parked behind "
                "migrations, total %.3f us\n",
                blocked.size(), blockedUs);
    if (!instants.empty()) {
        std::printf("\nmarkers:");
        for (const auto &[k, n] : instants)
            std::printf(" %s=%llu", k.c_str(),
                        static_cast<unsigned long long>(n));
        std::printf("\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: trace_tool "
                             "gen|record|convert|info|summary ...\n");
        return 2;
    }
    if (!std::strcmp(argv[1], "gen"))
        return cmdGen(argc, argv);
    if (!std::strcmp(argv[1], "record"))
        return cmdRecord(argc, argv);
    if (!std::strcmp(argv[1], "convert"))
        return cmdConvert(argc, argv);
    if (!std::strcmp(argv[1], "info"))
        return cmdInfo(argc, argv);
    if (!std::strcmp(argv[1], "summary"))
        return cmdSummary(argc, argv);
    std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
    return 2;
}
