#include "sim/runner.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/simulation.h"
#include "sim/stats_writer.h"
#include "trace/catalog.h"

namespace mempod {

BatchRunner::BatchRunner(RunnerOptions opt) : opt_(opt) {}

std::size_t
BatchRunner::add(BatchJob job)
{
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

unsigned
BatchRunner::workerCount() const
{
    unsigned n = opt_.jobs;
    if (n == 0)
        n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

JobResult
BatchRunner::execute(const BatchJob &job, std::size_t index)
{
    JobResult out;
    out.workload = job.workload;
    out.label = job.label;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        // Each job opens its own single-owner cursor; the catalog is
        // the only state jobs share, and they only read it. Checking
        // the name first keeps an unknown workload a per-job failure
        // instead of find()'s process exit.
        const WorkloadCatalog &catalog = WorkloadCatalog::global();
        if (catalog.tryFind(job.workload) == nullptr)
            throw std::invalid_argument("unknown workload '" +
                                        job.workload + "'");
        const std::unique_ptr<TraceSource> source =
            catalog.open(job.workload, job.gen);
        switch (job.kind) {
          case JobKind::kTiming: {
            Simulation sim(job.config);
            out.result = sim.run(*source, job.workload);
            const std::string stem = StatsWriter::jobFileStem(
                index, job.label, job.workload);
            const ArtifactSink &sink = opt_.artifacts;
            if (sink.wantStats()) {
                const std::string base =
                    sink.statsDir() + "/" + stem;
                StatsWriter::writeFile(
                    base + ".json",
                    StatsWriter::toJson(sim.registry(),
                                        sim.finalSnapshot(),
                                        out.result));
                if (sim.sampler())
                    StatsWriter::writeFile(
                        base + ".jsonl",
                        StatsWriter::toJsonl(
                            sim.sampler()->records()));
            }
            if (sink.wantDecisions() && sim.decisionLog())
                StatsWriter::writeFile(
                    sink.decisionsDir() + "/" + stem +
                        ".decisions.jsonl",
                    StatsWriter::decisionsToJsonl(*sim.decisionLog(),
                                                  job.workload,
                                                  out.result.mechanism));
            if (sink.wantTraces() && sim.tracer())
                StatsWriter::writeFile(sink.tracesDir() + "/" + stem +
                                           ".trace.json",
                                       sim.tracer()->toJson());
            if (const PerfReport *pr = sim.perfReport()) {
                out.perf = *pr;
                out.hasPerf = true;
                if (sink.wantPerf())
                    StatsWriter::writeFile(
                        sink.perfDir() + "/" + stem + ".perf.json",
                        StatsWriter::perfToJson(*pr));
            }
            break;
          }
          case JobKind::kIntervalStudy:
            out.study = runIntervalStudy(pageStreamFromSource(*source),
                                         job.study);
            break;
        }
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }
    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return out;
}

std::vector<JobResult>
BatchRunner::runAll()
{
    std::vector<BatchJob> jobs;
    jobs.swap(jobs_);
    std::vector<JobResult> results(jobs.size());
    if (jobs.empty())
        return results;

    // Create the run directory tree once, from the main thread,
    // before any worker races to write into it.
    opt_.artifacts.prepare();

    // Stats files are numbered by overall submission order so repeated
    // runAll() batches on one runner never overwrite each other.
    const std::size_t index_base = statsIndexBase_;
    statsIndexBase_ += jobs.size();

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(workerCount(), jobs.size()));

    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::size_t> finished; // indices, completion order

    auto work = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            JobResult r = execute(jobs[i], index_base + i);
            {
                std::lock_guard<std::mutex> lock(mu);
                results[i] = std::move(r);
                finished.push_back(i);
            }
            cv.notify_one();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(work);

    // The main thread owns all progress output; workers only enqueue
    // completion notices.
    std::FILE *stream =
        opt_.progressStream ? opt_.progressStream : stderr;
    const auto start = std::chrono::steady_clock::now();
    std::size_t done = 0;
    while (done < jobs.size()) {
        std::size_t idx;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return !finished.empty(); });
            idx = finished.front();
            finished.pop_front();
        }
        ++done;
        if (opt_.progress) {
            const JobResult &r = results[idx];
            const double elapsed = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() -
                                       start)
                                       .count();
            const double eta =
                elapsed / static_cast<double>(done) *
                static_cast<double>(jobs.size() - done);
            std::string what = r.label.empty()
                                   ? r.workload
                                   : r.label + "/" + r.workload;
            if (r.ok) {
                // Sim-time-per-wall-second: the rate the ROADMAP's
                // raw-speed goal is steered by.
                const double sim_ms =
                    static_cast<double>(r.result.simulatedPs) / 1e9;
                std::fprintf(
                    stream,
                    "[%3zu/%zu] %-28s wall %6.2fs  sim %8.3fms  "
                    "(%6.2f ms/s)  ETA %4.0fs\n",
                    done, jobs.size(), what.c_str(), r.wallSeconds,
                    sim_ms,
                    r.wallSeconds > 0 ? sim_ms / r.wallSeconds : 0.0,
                    eta);
            } else {
                std::fprintf(stream, "[%3zu/%zu] %-28s FAILED: %s\n",
                             done, jobs.size(), what.c_str(),
                             r.error.c_str());
            }
            std::fflush(stream);
        }
    }

    for (auto &t : pool)
        t.join();
    return results;
}

std::string
serializeRunResult(const RunResult &r)
{
    std::string out;
    char buf[128];
    auto field = [&](const char *name, const char *fmt, auto value) {
        std::snprintf(buf, sizeof(buf), fmt, value);
        out += name;
        out += '=';
        out += buf;
        out += '\n';
    };
    field("workload", "%s", r.workload.c_str());
    field("mechanism", "%s", r.mechanism.c_str());
    field("ammatNs", "%a", r.ammatNs); // hex float: bit-exact
    // Only sampled runs carry these; detailed baselines stay stable.
    if (r.sampled) {
        field("sampledAmmatNs", "%a", r.sampledAmmatNs);
        field("sampledCiNs", "%a", r.sampledCiNs);
        field("sampleWindows", "%llu",
              static_cast<unsigned long long>(r.sampleWindows));
    }
    field("demandRequests", "%llu",
          static_cast<unsigned long long>(r.demandRequests));
    field("completed", "%llu",
          static_cast<unsigned long long>(r.completed));
    field("fastServiceFraction", "%a", r.fastServiceFraction);
    field("rowHitRate", "%a", r.rowHitRate);
    field("rowHitRateFast", "%a", r.rowHitRateFast);
    field("simulatedPs", "%llu",
          static_cast<unsigned long long>(r.simulatedPs));
    field("eventsExecuted", "%llu",
          static_cast<unsigned long long>(r.eventsExecuted));
    field("migrations", "%llu",
          static_cast<unsigned long long>(r.migration.migrations));
    field("bytesMoved", "%llu",
          static_cast<unsigned long long>(r.migration.bytesMoved));
    field("intervals", "%llu",
          static_cast<unsigned long long>(r.migration.intervals));
    field("blockedRequests", "%llu",
          static_cast<unsigned long long>(r.migration.blockedRequests));
    field("metaCacheHits", "%llu",
          static_cast<unsigned long long>(r.migration.metaCacheHits));
    field("metaCacheMisses", "%llu",
          static_cast<unsigned long long>(r.migration.metaCacheMisses));
    field("candidatesSkipped", "%llu",
          static_cast<unsigned long long>(r.migration.candidatesSkipped));
    field("wastedMigrations", "%llu",
          static_cast<unsigned long long>(r.migration.wastedMigrations));
    field("demandFast", "%llu",
          static_cast<unsigned long long>(r.memStats.demandFast));
    field("demandSlow", "%llu",
          static_cast<unsigned long long>(r.memStats.demandSlow));
    field("migrationFast", "%llu",
          static_cast<unsigned long long>(r.memStats.migrationFast));
    field("migrationSlow", "%llu",
          static_cast<unsigned long long>(r.memStats.migrationSlow));
    field("bookkeepingFast", "%llu",
          static_cast<unsigned long long>(r.memStats.bookkeepingFast));
    field("bookkeepingSlow", "%llu",
          static_cast<unsigned long long>(r.memStats.bookkeepingSlow));
    field("podLocalMigrations", "%d", r.podLocalMigrations ? 1 : 0);
    field("blockedPs", "%llu",
          static_cast<unsigned long long>(r.migration.blockedPs));
    field("metadataPs", "%llu",
          static_cast<unsigned long long>(r.migration.metadataPs));
    field("attribution.mshrWaitNs", "%a", r.attribution.mshrWaitNs);
    field("attribution.metadataNs", "%a", r.attribution.metadataNs);
    field("attribution.blockedNs", "%a", r.attribution.blockedNs);
    field("attribution.queueWaitNs", "%a", r.attribution.queueWaitNs);
    field("attribution.serviceNs", "%a", r.attribution.serviceNs);
    field("latencyP50Ns", "%a", r.latency.p50Ns);
    field("latencyP95Ns", "%a", r.latency.p95Ns);
    field("latencyP99Ns", "%a", r.latency.p99Ns);
    for (double a : r.perCoreAmmatNs)
        field("perCoreAmmatNs", "%a", a);
    for (const LatencyPercentiles &lp : r.perCoreLatency) {
        field("perCoreLatencyP50Ns", "%a", lp.p50Ns);
        field("perCoreLatencyP95Ns", "%a", lp.p95Ns);
        field("perCoreLatencyP99Ns", "%a", lp.p99Ns);
    }
    return out;
}

} // namespace mempod
