/**
 * @file
 * Interactive design-space exploration of MemPod's knobs on a chosen
 * workload: epoch length, MEA entry count and counter width — the
 * Section 6.3.1 experiments as a single-workload CLI tool.
 *
 * Usage: design_space_explorer [workload] [requests]
 *          [--epochs us,us,...] [--counters k,k,...] [--bits b,b,...]
 *          [--jobs N]
 *
 * Every number must be a whole positive integer (--jobs: 0 = all
 * cores, at most 1024; --bits at most 32); anything else prints the
 * usage line and exits 2.
 *
 * The grid runs on the BatchRunner worker pool; results are identical
 * at any --jobs value.
 */
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/number.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "trace/catalog.h"

namespace {

/**
 * Parse "a,b,..." into `out`: each item a whole integer in [1, max].
 * False on an empty, malformed or out-of-range item.
 */
bool
parseList(std::string_view s, std::uint64_t max,
          std::vector<std::uint64_t> &out)
{
    out.clear();
    while (true) {
        const std::size_t comma = s.find(',');
        std::uint64_t v = 0;
        if (mempod::parseDecimal(s.substr(0, comma), v) != std::errc() ||
            v == 0 || v > max)
            return false;
        out.push_back(v);
        if (comma == std::string_view::npos)
            return true;
        s.remove_prefix(comma + 1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mempod;

    std::string workload = "xalanc";
    std::uint64_t requests = 300'000;
    unsigned jobs = 0;
    std::vector<std::uint64_t> epochs_us{25, 50, 100, 200};
    std::vector<std::uint64_t> counters{16, 64, 256};
    std::vector<std::uint64_t> bits{2};

    int positional = 0;
    bool ok = true;
    for (int i = 1; ok && i < argc; ++i) {
        const std::string_view arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--epochs" && has_value)
            ok = parseList(argv[++i], UINT64_MAX / 1_us, epochs_us);
        else if (arg == "--counters" && has_value)
            ok = parseList(argv[++i], UINT32_MAX, counters);
        else if (arg == "--bits" && has_value)
            ok = parseList(argv[++i], 32, bits);
        else if (arg == "--jobs" && has_value)
            ok = parseDecimal(argv[++i], jobs) == std::errc() &&
                 jobs <= 1024;
        else if (arg.starts_with('-') || positional > 1)
            ok = false;
        else if (positional++ == 0)
            workload = arg;
        else
            ok = parseDecimal(arg, requests) == std::errc() && requests > 0;
    }
    if (!ok) {
        std::fprintf(stderr,
                     "usage: design_space_explorer [workload] [requests] "
                     "[--epochs us,...] [--counters k,...] [--bits b,...] "
                     "[--jobs N]\n");
        return 2;
    }

    GeneratorConfig gen;
    gen.totalRequests = requests;
    if (!WorkloadCatalog::global().tryFind(workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }

    // The baseline plus the whole knob grid as one parallel batch;
    // the runner generates the workload trace once and shares it.
    BatchRunner runner({.jobs = jobs, .progress = true});
    {
        BatchJob baseline;
        baseline.config = SimConfig::paper(Mechanism::kNoMigration);
        baseline.workload = workload;
        baseline.gen = gen;
        baseline.label = "TLM";
        runner.add(std::move(baseline));
    }
    for (const auto e : epochs_us) {
        for (const auto k : counters) {
            for (const auto b : bits) {
                BatchJob job;
                job.config = SimConfig::paper(Mechanism::kMemPod);
                job.config.mempod.interval = e * 1_us;
                job.config.mempod.pod.meaEntries =
                    static_cast<std::uint32_t>(k);
                job.config.mempod.pod.meaCounterBits =
                    static_cast<std::uint32_t>(b);
                job.workload = workload;
                job.gen = gen;
                job.label = std::to_string(e) + "us/" +
                            std::to_string(k) + "c/" +
                            std::to_string(b) + "b";
                runner.add(std::move(job));
            }
        }
    }
    const std::vector<JobResult> results = runner.runAll();
    for (const JobResult &jr : results) {
        if (!jr.ok) {
            std::fprintf(stderr, "job %s failed: %s\n",
                         jr.label.c_str(), jr.error.c_str());
            return 1;
        }
    }

    const double base = results[0].result.ammatNs;
    std::printf("workload %s, %llu requests; no-migration AMMAT "
                "%.1f ns\n\n",
                workload.c_str(),
                static_cast<unsigned long long>(requests), base);

    TablePrinter table({"epoch (us)", "counters", "bits", "AMMAT (ns)",
                        "norm.", "migr/pod/interval", "fast %"});

    double best = 1e30;
    std::string best_desc;
    std::size_t idx = 1;
    for (const auto e : epochs_us) {
        for (const auto k : counters) {
            for (const auto b : bits) {
                const RunResult &r = results[idx++].result;
                const double mpi =
                    r.migration.intervals
                        ? static_cast<double>(r.migration.migrations) /
                              4.0 / r.migration.intervals
                        : 0.0;
                table.addRow({std::to_string(e), std::to_string(k),
                              std::to_string(b),
                              TablePrinter::num(r.ammatNs, 1),
                              TablePrinter::num(r.ammatNs / base, 3),
                              TablePrinter::num(mpi, 1),
                              TablePrinter::num(
                                  100 * r.fastServiceFraction, 1)});
                if (r.ammatNs < best) {
                    best = r.ammatNs;
                    best_desc = std::to_string(e) + " us / " +
                                std::to_string(k) + " counters / " +
                                std::to_string(b) + " bits";
                }
            }
        }
    }

    table.print();
    std::printf("\nbest: %s (AMMAT %.1f ns, %.1f%% better than "
                "no-migration)\n",
                best_desc.c_str(), best, 100 * (1 - best / base));
    return 0;
}
