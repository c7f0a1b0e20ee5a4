/**
 * @file
 * General-purpose simulation driver: run any workload (or a saved
 * trace file) through any mechanism and configuration from the
 * command line, and print the full statistics bundle — the tool a
 * downstream user reaches for first.
 *
 * Usage:
 *   mempod_sim --workload mix5 --mechanism mempod --requests 500000
 *              [--epoch-us 50] [--counters 64] [--bits 2]
 *              [--pods 4] [--cache-kb 0] [--future] [--seed 42]
 *              [--trace file.bin] [--per-core]
 *              [--manifest traces.json] [--record capture.trc]
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "sim/energy.h"
#include "sim/simulation.h"
#include "trace/catalog.h"
#include "trace/native.h"
#include "trace/source.h"

namespace {

using namespace mempod;

Mechanism
parseMechanism(const std::string &s)
{
    Mechanism m;
    if (!mechanismFromName(s, m)) {
        MEMPOD_FATAL("unknown mechanism '%s' (use "
                     "none|mempod|hma|thm|cameo)",
                     s.c_str());
    }
    return m;
}

[[noreturn]] void
usage()
{
    std::printf(
        "mempod_sim --workload NAME | --trace FILE\n"
        "  [--mechanism none|mempod|hma|thm|cameo]  (default mempod)\n"
        "  [--requests N]       trace length          (default 500000)\n"
        "  [--epoch-us U]       MemPod interval       (default 50)\n"
        "  [--counters K]       MEA entries per pod   (default 64)\n"
        "  [--bits B]           MEA counter width     (default 2)\n"
        "  [--pods P]           number of pods        (default 4)\n"
        "  [--cache-kb C]       bookkeeping cache     (default off)\n"
        "  [--future]           HBM-4GHz + DDR4-2400 system\n"
        "  [--fast-only|--slow-only] single-technology system\n"
        "  [--seed S] [--per-core] [--baseline]\n"
        "  [--manifest FILE]    load a traces.json corpus manifest;\n"
        "                       its workloads become --workload names\n"
        "                       (repeatable)\n"
        "  [--record FILE]      capture the trace actually simulated\n"
        "                       to FILE in the native format for\n"
        "                       byte-identical replay via --trace\n"
        "  [--config FILE]      load a SimConfig JSON file; the knob\n"
        "                       flags above are ignored (use --set)\n"
        "  [--set key=value]    dotted-key override, applied last\n"
        "                       (repeatable; schema in EXPERIMENTS.md)\n"
        "  [--dump-config]      print the resolved config JSON and exit\n");
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mempod;

    std::string workload = "mix5";
    std::string trace_file;
    std::string record_file;
    std::string mech_name = "mempod";
    std::uint64_t requests = 500'000;
    std::uint64_t seed = 42;
    std::uint64_t epoch_us = 50;
    std::uint32_t counters = 64;
    std::uint32_t bits = 2;
    std::uint32_t pods = 4;
    std::uint64_t cache_kb = 0;
    bool future = false, fast_only = false, slow_only = false;
    bool per_core = false, baseline = false;
    std::string config_file;
    std::vector<std::pair<std::string, std::string>> overrides;
    bool dump_config = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                MEMPOD_FATAL("%s needs a value", a.c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload = next();
        else if (a == "--trace")
            trace_file = next();
        else if (a == "--manifest")
            WorkloadCatalog::global().loadManifest(next());
        else if (a == "--record")
            record_file = next();
        else if (a == "--mechanism")
            mech_name = next();
        else if (a == "--requests")
            requests = std::strtoull(next(), nullptr, 10);
        else if (a == "--seed")
            seed = std::strtoull(next(), nullptr, 10);
        else if (a == "--epoch-us")
            epoch_us = std::strtoull(next(), nullptr, 10);
        else if (a == "--counters")
            counters = static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--bits")
            bits = static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--pods")
            pods = static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--cache-kb")
            cache_kb = std::strtoull(next(), nullptr, 10);
        else if (a == "--future")
            future = true;
        else if (a == "--fast-only")
            fast_only = true;
        else if (a == "--slow-only")
            slow_only = true;
        else if (a == "--config")
            config_file = next();
        else if (a == "--set") {
            const std::string kv = next();
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                MEMPOD_FATAL("--set expects key=value, got '%s'",
                             kv.c_str());
            overrides.emplace_back(kv.substr(0, eq),
                                   kv.substr(eq + 1));
        } else if (a == "--dump-config")
            dump_config = true;
        else if (a == "--per-core")
            per_core = true;
        else if (a == "--baseline")
            baseline = true;
        else
            usage();
    }

    SimConfig cfg;
    if (!config_file.empty()) {
        // The file is the whole truth; only --set amends it.
        const std::optional<std::string> text =
            json::readFile(config_file);
        if (!text) {
            MEMPOD_FATAL("cannot open config file '%s'",
                         config_file.c_str());
        }
        cfg = SimConfig::fromJson(*text);
    } else {
        const Mechanism mech = parseMechanism(mech_name);
        cfg = future ? SimConfig::future(mech)
                     : SimConfig::paper(mech);
        if (fast_only)
            cfg = SimConfig::fastOnly(future);
        if (slow_only)
            cfg = SimConfig::slowOnly(future);
        cfg.geom.numPods = fast_only || slow_only ? 1 : pods;
        cfg.mempod.interval = epoch_us * 1_us;
        cfg.mempod.pod.meaEntries = counters;
        cfg.mempod.pod.meaCounterBits = bits;
        if (mech == Mechanism::kHma)
            cfg.scaleHmaEpoch(40.0);
        if (cache_kb > 0) {
            cfg.mempod.pod.metaCacheEnabled = true;
            cfg.mempod.pod.metaCacheBytes = cache_kb * 1024 / pods;
            cfg.hma.metaCacheEnabled = true;
            cfg.hma.metaCacheBytes = cache_kb * 1024;
            cfg.thm.metaCacheEnabled = true;
            cfg.thm.metaCacheBytes = cache_kb * 1024;
        }
    }
    for (const auto &[key, value] : overrides)
        cfg.set(key, value);
    if (dump_config) {
        std::printf("%s", cfg.toJson().c_str());
        return 0;
    }

    // One streaming cursor serves the summary, the optional baseline
    // and the main run — every consumer resets it before draining, so
    // external traces never have to be materialized.
    std::unique_ptr<TraceSource> source;
    if (!trace_file.empty()) {
        source = std::make_unique<NativeTraceSource>(trace_file);
        workload = trace_file;
    } else {
        GeneratorConfig gc;
        gc.totalRequests = requests;
        gc.seed = seed;
        source = WorkloadCatalog::global().open(workload, gc);
    }

    if (!record_file.empty()) {
        source->reset();
        NativeTraceWriter writer(record_file);
        TraceRecord rec;
        while (source->next(rec))
            writer.append(rec);
        writer.close();
        std::printf("recorded %llu records to %s\n",
                    static_cast<unsigned long long>(
                        writer.recordsWritten()),
                    record_file.c_str());
    }

    std::printf("config: %s\n", cfg.describe().c_str());
    const TraceSummary ts = summarize(*source);
    std::printf("trace: %llu requests, %.1f req/us, %llu pages, "
                "%.2f ms\n\n",
                static_cast<unsigned long long>(ts.records),
                ts.requestsPerUs,
                static_cast<unsigned long long>(ts.touchedPages),
                static_cast<double>(ts.duration) / 1e9);

    double base_ammat = 0;
    if (baseline) {
        SimConfig bcfg = cfg;
        bcfg.mechanism = Mechanism::kNoMigration;
        base_ammat = runSimulation(bcfg, *source, workload).ammatNs;
        std::printf("no-migration AMMAT: %.2f ns\n", base_ammat);
    }

    const RunResult r = runSimulation(cfg, *source, workload);
    if (r.sampled) {
        std::printf("sampled AMMAT:      %.2f ns +/- %.2f (95%% CI, "
                    "%llu windows)\n",
                    r.sampledAmmatNs, r.sampledCiNs,
                    static_cast<unsigned long long>(r.sampleWindows));
    }
    std::printf("AMMAT:              %.2f ns", r.ammatNs);
    if (base_ammat > 0)
        std::printf("  (%.3f normalized)", r.ammatNs / base_ammat);
    std::printf("\nfast service:       %.1f %%\n",
                100 * r.fastServiceFraction);
    std::printf("row-buffer hits:    %.1f %% (fast tier %.1f %%)\n",
                100 * r.rowHitRate, 100 * r.rowHitRateFast);
    std::printf("migrations:         %llu (%.1f MiB moved)\n",
                static_cast<unsigned long long>(r.migration.migrations),
                r.dataMovedMiB());
    std::printf("blocked demands:    %llu\n",
                static_cast<unsigned long long>(
                    r.migration.blockedRequests));
    if (r.migration.metaCacheHits + r.migration.metaCacheMisses > 0) {
        std::printf(
            "metadata cache:     %.1f %% miss\n",
            100.0 * r.migration.metaCacheMisses /
                (r.migration.metaCacheHits +
                 r.migration.metaCacheMisses));
    }
    const EnergyEstimate e =
        estimateEnergy(r.memStats, r.podLocalMigrations);
    std::printf("movement energy:    %.1f uJ (%.1f demand, %.1f "
                "migration, %.1f bookkeeping)\n",
                e.totalUj(), e.demandUj, e.migrationUj,
                e.bookkeepingUj);
    std::printf("simulated time:     %.3f ms (%llu events)\n",
                static_cast<double>(r.simulatedPs) / 1e9,
                static_cast<unsigned long long>(r.eventsExecuted));

    if (per_core) {
        std::printf("\nper-core AMMAT (ns):");
        for (std::size_t c = 0; c < r.perCoreAmmatNs.size(); ++c)
            std::printf(" c%zu=%.1f", c, r.perCoreAmmatNs[c]);
        std::printf("\n");
    }
    return 0;
}
