/**
 * @file
 * General-purpose simulation driver: run one workload (or a saved
 * trace file) through any mechanism and configuration, and print the
 * full statistics bundle. A one-job harness over the shared option
 * table (bench/bench_util.h; run with --help): every harness flag
 * means the same here. The config resolves as --config FILE, or else
 * the --preset factory for --mechanism plus HMA epoch scaling (as in
 * fig8); then the --set entries in order.
 */
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/log.h"
#include "sim/energy.h"
#include "trace/native.h"

namespace {

using namespace mempod;

/** A --preset name and the SimConfig factory call it stands for. */
struct Preset
{
    const char *name;
    bool singleTier; //!< a NoMigration system; --mechanism is an error
    SimConfig (*make)(Mechanism);
};

constexpr Preset kPresets[] = {
    {"paper", false, SimConfig::paper},
    {"future", false, SimConfig::future},
    {"fast-only", true,
     [](Mechanism) { return SimConfig::fastOnly(false); }},
    {"slow-only", true,
     [](Mechanism) { return SimConfig::slowOnly(false); }},
    {"future-fast-only", true,
     [](Mechanism) { return SimConfig::fastOnly(true); }},
    {"future-slow-only", true,
     [](Mechanism) { return SimConfig::slowOnly(true); }},
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace mempod;
    using namespace mempod::bench;

    const char *what = "mempod_sim";
    std::optional<Mechanism> mech;
    const Preset *preset = nullptr;
    std::string trace_file, record_file, config_file;
    bool dump_config = false, per_core = false, baseline = false;
    Options opt = parseOptions(
        argc, argv, what,
        {{"--mechanism", "NAME", "none|mempod|hma|thm|cameo (default mempod)",
          [&](const std::string &v) -> std::string {
              Mechanism m;
              if (!mechanismFromName(v, m)) {
                  return "must be none, mempod, hma, thm or cameo, "
                         "got '" + v + "'";
              }
              mech = m;
              return {};
          }},
         {"--preset", "NAME",
          "paper (default)|future|[future-]fast-only|[future-]slow-only",
          [&](const std::string &v) -> std::string {
              preset = nullptr;
              for (const Preset &p : kPresets) {
                  if (v == p.name)
                      preset = &p;
              }
              return preset ? "" : "names no preset: '" + v + "'";
          }},
         {"--trace", "FILE",
          "replay a native trace (the workload is the file stem)",
          storeText(trace_file)},
         {"--record", "FILE",
          "capture the simulated trace to FILE for --trace",
          storeText(record_file)},
         {"--config", "FILE",
          "SimConfig JSON instead of --preset/--mechanism",
          storeText(config_file)},
         {"--dump-config", nullptr,
          "print the resolved config JSON and exit", storeTrue(dump_config)},
         {"--per-core", nullptr, "also print per-core AMMAT",
          storeTrue(per_core)},
         {"--baseline", nullptr,
          "also run NoMigration and normalize AMMAT to it",
          storeTrue(baseline)}});

    if (!config_file.empty() && (mech || preset))
        usageError(what, "--config excludes --mechanism and --preset");
    if (preset && preset->singleTier && mech)
        usageError(what, "a single-tier --preset excludes --mechanism");
    if (opt.workloads.size() > 1)
        usageError(what, "--workloads must name exactly one workload");
    if (!trace_file.empty() && !opt.workloads.empty())
        usageError(what, "--trace names the workload; drop --workloads");

    SimConfig cfg;
    if (!config_file.empty()) {
        const std::optional<std::string> json =
            json::readFile(config_file);
        if (!json) {
            MEMPOD_FATAL("cannot open config file '%s'",
                         config_file.c_str());
        }
        cfg = SimConfig::fromJson(*json);
    } else {
        cfg = (preset ? preset->make : SimConfig::paper)(
            mech.value_or(Mechanism::kMemPod));
        if (cfg.mechanism == Mechanism::kHma)
            cfg.scaleHmaEpoch(40.0); // keep the paper's ratios (fig8)
    }
    if (dump_config) {
        for (const auto &[key, value] : opt.sets)
            cfg.set(key, value);
        std::printf("%s", cfg.toJson().c_str());
        return 0;
    }

    std::string workload =
        opt.workloads.empty() ? "mix5" : opt.workloads.front();
    if (!trace_file.empty()) {
        ExternalTraceSpec spec;
        spec.name = std::filesystem::path(trace_file).stem().string();
        spec.format = "native";
        spec.files.push_back({trace_file, 0});
        WorkloadCatalog::global().registerExternal(spec);
        workload = spec.name;
    }
    // mempod_sim's default length: 500k generated requests, or the
    // whole --trace file.
    if (!opt.requests && !opt.full) {
        opt.requests = trace_file.empty()
                           ? 500'000
                           : NativeTraceSource(trace_file).size();
    }

    // One cursor serves --record and the summary (each a full pass
    // over the stream); the jobs below open their own cursors with the
    // same generator parameters.
    BatchJob job = timingJob(cfg, workload, opt);
    job.label = mechanismName(job.config.mechanism);
    const std::unique_ptr<TraceSource> source =
        WorkloadCatalog::global().open(workload, job.gen);
    if (!record_file.empty()) {
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

    std::printf("config: %s\n", job.config.describe().c_str());
    const TraceSummary ts = summarize(*source);
    std::printf("trace: %llu requests, %.1f req/us, %llu pages, "
                "%.2f ms\n\n",
                static_cast<unsigned long long>(ts.records),
                ts.requestsPerUs,
                static_cast<unsigned long long>(ts.touchedPages),
                static_cast<double>(ts.duration) / 1e9);

    BatchRunner runner(runnerOptions(opt));
    if (baseline) {
        BatchJob base = job;
        base.config.mechanism = Mechanism::kNoMigration;
        base.label = mechanismName(Mechanism::kNoMigration);
        runner.add(std::move(base));
    }
    runner.add(std::move(job));
    const std::vector<JobResult> results = runner.runAll();

    double base_ammat = 0;
    if (baseline) {
        base_ammat = need(results.front()).ammatNs;
        std::printf("no-migration AMMAT: %.2f ns\n", base_ammat);
    }

    const RunResult &r = need(results.back());
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
    finishBench(what, opt, results);
    return 0;
}
