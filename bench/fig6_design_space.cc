/**
 * @file
 * Figure 6: MemPod's page-tracking/migration design space — average
 * AMMAT over all workloads for every (epoch length, MEA counter
 * count) pair. Following the paper's methodology the sweep runs with
 * 16-bit counters and remap caches disabled, isolating the epoch and
 * counter-count effects. The paper's optimum is (50 us, 64 counters),
 * with the best configurations lying on the constant-migration-rate
 * diagonal.
 */
#include <cstdio>

#include "bench_util.h"
#include "sim/simulation.h"

int
main(int argc, char **argv)
{
    using namespace mempod;
    using namespace mempod::bench;

    const Options opt = parseOptions(
        argc, argv, "fig6_design_space: epoch x counters sweep");
    banner("Figure 6", "AMMAT over epoch length x MEA counters", opt);

    const std::vector<TimePs> epochs =
        opt.full ? std::vector<TimePs>{25_us, 50_us, 100_us, 200_us,
                                       300_us, 500_us}
                 : std::vector<TimePs>{25_us, 50_us, 100_us, 200_us};
    const std::vector<std::uint32_t> counters =
        opt.full ? std::vector<std::uint32_t>{16, 32, 64, 128, 256, 512}
                 : std::vector<std::uint32_t>{16, 64, 256};

    const auto workloads = opt.sweepWorkloads();
    std::printf("workloads:");
    for (const auto &w : workloads)
        std::printf(" %s", w.c_str());
    std::printf("\n\n");

    std::vector<std::string> headers{"epoch \\ counters"};
    for (auto k : counters)
        headers.push_back(std::to_string(k));
    TablePrinter table(headers);

    double best = 1e30;
    TimePs best_epoch = 0;
    std::uint32_t best_k = 0;

    // The whole (epoch x counters x workload) grid as one batch; each
    // job streams its own copy of its workload's trace.
    BatchRunner runner(runnerOptions(opt));
    for (const TimePs epoch : epochs) {
        for (const std::uint32_t k : counters) {
            for (const auto &w : workloads) {
                SimConfig cfg = SimConfig::paper(Mechanism::kMemPod);
                cfg.mempod.interval = epoch;
                cfg.mempod.pod.meaEntries = k;
                cfg.mempod.pod.meaCounterBits = 16; // per the paper
                runner.add(timingJob(
                    cfg, w, opt,
                    std::to_string(epoch / 1_us) + "us/" +
                        std::to_string(k)));
            }
        }
    }
    const std::vector<JobResult> results = runner.runAll();

    std::size_t idx = 0;
    for (const TimePs epoch : epochs) {
        std::vector<std::string> row{
            TablePrinter::num(static_cast<double>(epoch) / 1_us, 0) +
            " us"};
        for (const std::uint32_t k : counters) {
            std::vector<double> ammats;
            for (std::size_t i = 0; i < workloads.size(); ++i)
                ammats.push_back(need(results[idx++]).ammatNs);
            const double avg = mean(ammats);
            if (avg < best) {
                best = avg;
                best_epoch = epoch;
                best_k = k;
            }
            row.push_back(TablePrinter::num(avg, 2));
        }
        table.addRow(std::move(row));
    }

    table.print();
    std::printf("\n");
    table.printCsv();
    std::printf("\nbest configuration: %.0f us epochs, %u counters "
                "(avg AMMAT %.2f ns)\npaper: optimum at 50 us / 64 "
                "counters; minima lie on the constant-migration-rate "
                "diagonal.\n",
                static_cast<double>(best_epoch) / 1_us, best_k, best);
    finishBench("fig6_design_space", opt, results);
    return 0;
}
