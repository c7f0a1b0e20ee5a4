/**
 * @file
 * Tour of one Table 3 mixed workload across every migration
 * mechanism: runs the same multi-programmed trace under no-migration,
 * MemPod, HMA, THM and CAMEO, and reports AMMAT, fast-service
 * fraction, migration counts/traffic and blocked-request counts —
 * the comparison at the heart of the paper's Figure 8.
 *
 * Usage: mixed_workload_tour [mixN] [requests]
 */
#include <cstdio>
#include <string>

#include "common/number.h"
#include "sim/report.h"
#include "sim/simulation.h"
#include "trace/catalog.h"

int
main(int argc, char **argv)
{
    using namespace mempod;

    const std::string name = argc > 1 ? argv[1] : "mix5";
    std::uint64_t requests = 400'000;
    if (argc > 3 || (argc > 2 && (parseDecimal(argv[2], requests) !=
                                      std::errc() ||
                                  requests == 0))) {
        std::fprintf(stderr,
                     "usage: mixed_workload_tour [mixN] [requests]\n");
        return 2;
    }

    const CatalogEntry &entry = WorkloadCatalog::global().find(name);
    std::printf("workload %s:", entry.name.c_str());
    for (const auto &b : entry.synthetic.benchmarks)
        std::printf(" %s", b.c_str());
    std::printf("\n\n");

    GeneratorConfig gen;
    gen.totalRequests = requests;
    const Trace trace = WorkloadCatalog::global().build(name, gen);

    TablePrinter table({"mechanism", "AMMAT (ns)", "norm.", "fast %",
                        "migrations", "moved (MiB)", "blocked reqs",
                        "row hit %"});

    double base = 0.0;
    for (Mechanism m : {Mechanism::kNoMigration, Mechanism::kMemPod,
                        Mechanism::kHma, Mechanism::kThm,
                        Mechanism::kCameo}) {
        SimConfig cfg = SimConfig::paper(m);
        if (m == Mechanism::kHma)
            cfg.scaleHmaEpoch(40.0); // see EXPERIMENTS.md scale note
        const RunResult r = runSimulation(cfg, trace, entry.name);
        if (m == Mechanism::kNoMigration)
            base = r.ammatNs;
        table.addRow({r.mechanism, TablePrinter::num(r.ammatNs, 1),
                      TablePrinter::num(r.ammatNs / base, 3),
                      TablePrinter::num(100 * r.fastServiceFraction, 1),
                      std::to_string(r.migration.migrations),
                      TablePrinter::num(r.dataMovedMiB(), 1),
                      std::to_string(r.migration.blockedRequests),
                      TablePrinter::num(100 * r.rowHitRate, 1)});
    }

    table.print();
    std::printf("\nNotes: CAMEO swaps 64 B lines on every slow access "
                "(many small moves); MemPod swaps 2 KB pages per 50 us "
                "epoch, split across 4 independent Pods.\n");
    return 0;
}
