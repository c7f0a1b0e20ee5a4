/**
 * @file
 * Figure 10: scalability to future, faster memories. The stacked
 * memory is accelerated to a 4 GHz HBM while the off-chip memory only
 * moves to DDR4-2400, widening the latency ratio between the tiers.
 * AMMAT is normalized to a 9 GB DDR4-2400-only configuration; HMA's
 * sort penalty is reduced 40% for the faster future CPU. "HBMoc" is
 * the overclocked-HBM-only bar.
 *
 * This harness also hosts the PDES shard-scaling report (the README
 * scaling table): one fig10-sized MemPod run repeated at sim.shards
 * in {1, 2, 4, 8}, with wall-clock medians, the per-shard work split
 * from the executor's counters, and a byte-identity cross-check
 * against the serial kernel.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "sim/parallel.h"
#include "sim/simulation.h"

namespace {

/**
 * The README scaling table: one simulation, many kernel widths. Wall
 * clock is reported as the median of three runs; on a core-limited
 * host the wall column flattens out, so the per-shard event counters
 * carry the scaling claim — they prove each worker owns an even slice
 * of the channel work regardless of how the OS schedules the threads.
 * Determinism is re-checked here, not assumed: every row must
 * reproduce the serial run's AMMAT and executed-event count exactly.
 */
void
shardScalingReport(const mempod::bench::Options &opt)
{
    using namespace mempod;
    using namespace mempod::bench;
    using Clock = std::chrono::steady_clock;

    const char *workload = "mix5";
    const std::uint64_t requests = opt.timingRequests();
    GeneratorConfig gen;
    gen.totalRequests = requests;
    gen.seed = opt.seed;
    const SimConfig cfg = SimConfig::future(Mechanism::kMemPod);

    std::printf("\nPDES shard scaling (MemPod future system, %s, "
                "%llu requests, wall = median of 3):\n",
                workload, static_cast<unsigned long long>(requests));

    TablePrinter table({"shards", "wall ms", "speedup", "events",
                        "channel ev", "per-shard min", "per-shard max",
                        "windows", "busy %", "stall %"});

    double serial_ammat = 0.0;
    std::uint64_t serial_events = 0;
    double base_ms = 0.0;
    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
        double wall[3];
        RunResult r;
        std::uint64_t per_min = 0, per_max = 0, windows = 0,
                      channel_events = 0;
        std::string busy_col = "-", stall_col = "-";
        for (int rep = 0; rep < 3; ++rep) {
            SimConfig c = cfg;
            c.shards = shards;
            c.perfEnabled = true; // per-shard busy/stall columns
            Simulation sim(c);
            const auto t0 = Clock::now();
            const auto source =
                WorkloadCatalog::global().open(workload, gen);
            r = sim.run(*source, "scaling");
            wall[rep] = std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count();
            const ParallelExecutor *ex = sim.executor();
            const std::vector<std::uint64_t> byDomain =
                ex->perDomainExecuted();
            channel_events = ex->totalExecuted() - byDomain[0];
            per_min = per_max = ex->perShardExecuted(0);
            for (unsigned s = 1; s < ex->shards(); ++s) {
                const std::uint64_t n = ex->perShardExecuted(s);
                per_min = std::min(per_min, n);
                per_max = std::max(per_max, n);
            }
            windows = ex->windows();
            // Host utilization across shards, min..max, from the run's
            // PerfMonitor (PDES load imbalance at a glance).
            if (const PerfReport *pr = sim.perfReport()) {
                double bmin = 100.0, bmax = 0.0;
                for (const PerfReport::Shard &sh : pr->shards) {
                    const double denom =
                        static_cast<double>(sh.busyNs + sh.stallNs);
                    const double b =
                        denom > 0 ? 100.0 *
                                        static_cast<double>(sh.busyNs) /
                                        denom
                                  : 0.0;
                    bmin = std::min(bmin, b);
                    bmax = std::max(bmax, b);
                }
                if (!pr->shards.empty()) {
                    busy_col = TablePrinter::num(bmin, 1) + ".." +
                               TablePrinter::num(bmax, 1);
                    stall_col = TablePrinter::num(100.0 - bmax, 1) +
                                ".." + TablePrinter::num(100.0 - bmin, 1);
                }
            }
        }
        std::sort(wall, wall + 3);
        const double ms = wall[1];

        if (shards == 1) {
            // The shards=1 row *is* the determinism reference: it runs
            // the full PDES machinery (windows, outbox merges) with
            // one worker, so any divergence below is a kernel bug, not
            // thread scheduling.
            serial_ammat = r.ammatNs;
            serial_events = r.eventsExecuted;
            base_ms = ms;
        } else if (r.ammatNs != serial_ammat ||
                   r.eventsExecuted != serial_events) {
            std::fprintf(stderr,
                         "FATAL: shards=%u diverged from shards=1 "
                         "(ammat %.17g vs %.17g, events %llu vs %llu)\n",
                         shards, r.ammatNs, serial_ammat,
                         static_cast<unsigned long long>(
                             r.eventsExecuted),
                         static_cast<unsigned long long>(serial_events));
            std::exit(1);
        }

        table.addRow({std::to_string(shards), TablePrinter::num(ms, 1),
                      TablePrinter::num(base_ms / ms, 2),
                      std::to_string(r.eventsExecuted),
                      std::to_string(channel_events),
                      std::to_string(per_min), std::to_string(per_max),
                      std::to_string(windows), busy_col, stall_col});
    }
    table.print();
    std::printf("all shard counts reproduce the serial kernel "
                "byte-for-byte; on a core-limited host read the "
                "per-shard columns, not the wall clock.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mempod;
    using namespace mempod::bench;

    const Options opt = parseOptions(
        argc, argv, "fig10_scalability: future-system comparison");
    banner("Figure 10",
           "future system (HBM-4GHz + DDR4-2400), norm. to DDR-only",
           opt);

    const auto workloads =
        opt.full ? opt.suiteWorkloads() : opt.sweepWorkloads();

    struct Config
    {
        const char *label;
        SimConfig cfg;
    };
    std::vector<Config> configs;
    configs.push_back({"TLM", SimConfig::future(Mechanism::kNoMigration)});
    configs.push_back({"MemPod", SimConfig::future(Mechanism::kMemPod)});
    {
        SimConfig hma = SimConfig::future(Mechanism::kHma);
        hma.scaleHmaEpoch(40.0);
        // future() already reduced the stall by 40%; keep that ratio.
        hma.hma.sortStall = static_cast<TimePs>(hma.hma.sortStall * 0.6);
        configs.push_back({"HMA", hma});
    }
    configs.push_back({"THM", SimConfig::future(Mechanism::kThm)});
    configs.push_back({"CAMEO", SimConfig::future(Mechanism::kCameo)});
    configs.push_back({"HBMoc", SimConfig::fastOnly(/*future=*/true)});

    TablePrinter table({"workload", "TLM", "MemPod", "HMA", "THM",
                        "CAMEO", "HBMoc"});
    std::vector<std::vector<double>> norms(configs.size());

    BatchRunner runner(runnerOptions(opt));
    for (const auto &name : workloads) {
        runner.add(timingJob(SimConfig::slowOnly(/*future=*/true),
                             name, opt, "DDR-only"));
        for (const auto &c : configs)
            runner.add(timingJob(c.cfg, name, opt, c.label));
    }
    const std::vector<JobResult> results = runner.runAll();
    const std::size_t stride = 1 + configs.size();

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const double ddr_only = need(results[w * stride]).ammatNs;
        std::vector<std::string> row{name};
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const RunResult &r = need(results[w * stride + 1 + c]);
            const double norm = r.ammatNs / ddr_only;
            norms[c].push_back(norm);
            row.push_back(TablePrinter::num(norm, 3));
        }
        table.addRow(std::move(row));
    }

    std::vector<std::string> avg{"AVG"};
    for (auto &v : norms)
        avg.push_back(TablePrinter::num(mean(v), 3));
    table.addRow(std::move(avg));

    table.print();
    std::printf("\n");
    table.printCsv();

    const double tlm = mean(norms[0]);
    std::printf("\nimprovement over future TLM: MemPod %.0f%%, HMA "
                "%.0f%%, THM %.0f%%, CAMEO %.0f%%, HBMoc %.0f%%\n",
                100 * (1 - mean(norms[1]) / tlm),
                100 * (1 - mean(norms[2]) / tlm),
                100 * (1 - mean(norms[3]) / tlm),
                100 * (1 - mean(norms[4]) / tlm),
                100 * (1 - mean(norms[5]) / tlm));
    std::printf("paper: MemPod +24%%, THM +13%%, HMA +2%%, CAMEO -1%% "
                "vs TLM; HBMoc is 40%% faster than TLM. MemPod scales "
                "best as the tier latency ratio widens.\n");

    shardScalingReport(opt);
    finishBench("fig10_scalability", opt, results);
    return 0;
}
