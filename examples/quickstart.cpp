/**
 * @file
 * Quickstart: build the paper's Table 2 system, generate a small
 * 8-core workload, and compare MemPod against a two-level memory with
 * no migration. Demonstrates the three core API layers: workload
 * generation, simulation configuration, and result reporting.
 *
 * Usage: quickstart [workload] [requests]
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

    const std::string workload_name = argc > 1 ? argv[1] : "xalanc";
    std::uint64_t requests = 400'000;
    if (argc > 3 || (argc > 2 && (parseDecimal(argv[2], requests) !=
                                      std::errc() ||
                                  requests == 0))) {
        std::fprintf(stderr, "usage: quickstart [workload] [requests]\n");
        return 2;
    }

    // 1. Generate a deterministic multi-programmed trace.
    GeneratorConfig gen;
    gen.totalRequests = requests;
    gen.seed = 42;
    const CatalogEntry &entry =
        WorkloadCatalog::global().find(workload_name);
    const Trace trace =
        WorkloadCatalog::global().build(workload_name, gen);
    VectorTraceSource source(trace);
    const TraceSummary summary = summarize(source);
    std::printf("workload %s: %llu requests, %.1f req/us, "
                "%llu distinct pages, %.2f ms of execution\n",
                entry.name.c_str(),
                static_cast<unsigned long long>(summary.records),
                summary.requestsPerUs,
                static_cast<unsigned long long>(summary.touchedPages),
                static_cast<double>(summary.duration) / 1e9);

    // 2. Run the same trace through a no-migration TLM and MemPod.
    TablePrinter table({"mechanism", "AMMAT (ns)", "fast service %",
                        "migrations", "data moved (MiB)",
                        "row-buffer hit %"});
    double base_ammat = 0.0;
    for (const Mechanism m :
         {Mechanism::kNoMigration, Mechanism::kMemPod}) {
        SimConfig cfg = SimConfig::paper(m);
        const RunResult r = runSimulation(cfg, trace, entry.name);
        if (m == Mechanism::kNoMigration)
            base_ammat = r.ammatNs;
        table.addRow({r.mechanism, TablePrinter::num(r.ammatNs, 1),
                      TablePrinter::num(100 * r.fastServiceFraction, 1),
                      std::to_string(r.migration.migrations),
                      TablePrinter::num(r.dataMovedMiB(), 1),
                      TablePrinter::num(100 * r.rowHitRate, 1)});
        if (m == Mechanism::kMemPod && base_ammat > 0) {
            std::printf(
                "\nMemPod improves AMMAT by %.1f%% over the "
                "no-migration two-level memory.\n\n",
                100.0 * (1.0 - r.ammatNs / base_ammat));
        }
    }

    // 3. Report.
    table.print();
    return 0;
}
