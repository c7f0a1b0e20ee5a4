/**
 * @file
 * Benchmark runner: replays one generated workload through one
 * configuration, repeatedly, and prints one JSON object per line for
 * every rep (host times, output digest, simulated outputs, and, for the
 * probe rep, the host-profile counters). benchmark/run.py owns the
 * workload table, the output checks and every derived metric; this
 * program only measures.
 *
 * It reaches the simulator through stable public calls only:
 * SimConfig::paper/set, WorkloadCatalog::build, writeNativeTrace and
 * NativeTraceSource, Simulation's constructor/run/perfReport/
 * decisionLog, SimConfig::perfEnabled, and serializeRunResult.
 *
 * Usage:
 *   runner --info
 *   runner --mechanism M --trace NAME --seed S --records N
 *          [--native PATH] [--set key=value]...
 *          [--variant NAME[:key=value,...]]...
 *          [--once NAME[:key=value,...]]...
 *          [--seconds S] [--min-reps K]
 *
 * Order of work: record the native file (--native), one untimed rep of
 * every --once variant, one untimed warm-up rep of the first variant,
 * then round-robin cycles over the --variant list until --seconds have
 * passed and at least --min-reps cycles ran. A rep whose config sets
 * perf.enabled=true is a probe rep: it also times every next() call of
 * the trace source and reports the host-profile counters. Every rep is
 * bracketed by a fixed reference workload (referenceSeconds). The last
 * line is {"kind":"end",...}; a run without it died.
 */
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "trace/catalog.h"
#include "trace/native.h"
#include "trace/source.h"

namespace {

using namespace mempod;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of this process, all threads. */
double
cpuSeconds()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/**
 * Fixed reference work, timed before and after every rep so that
 * run.py can divide the host's momentary speed out of the rep's times:
 * a timestamp-ordered queue feeding probes into a 1 MiB table, the
 * shape of the simulator's event loop. It never changes with the
 * simulator. On a shared 4-vCPU VM the simulator's rep time moved with
 * it at elasticity 1.04 over 1000 reps through busy and quiet periods;
 * a pointer chase or an ALU loop moved 1.5-1.7x less than the
 * simulator did.
 */
double
referenceSeconds()
{
    constexpr unsigned kSteps = 400'000;
    const Clock::time_point t0 = Clock::now();
    std::vector<std::uint64_t> table(1u << 17);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        queue;
    for (std::uint64_t i = 0; i < 256; ++i)
        queue.push(i * 7919);
    std::uint64_t h = 1469598103934665603ull;
    std::uint64_t acc = 0;
    for (unsigned step = 0; step < kSteps; ++step) {
        const std::uint64_t t = queue.top();
        queue.pop();
        h = (h ^ t) * 1099511628211ull;
        h ^= h >> 29;
        std::uint64_t &slot = table[h & (table.size() - 1)];
        if (slot & 1) {
            acc += slot;
            slot = h;
        } else {
            slot ^= t;
        }
        queue.push(t + (h & 1023) + 1);
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
    return secondsSince(t0);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Accumulates one flat JSON object; numbers keep 17 digits. */
class JsonLine
{
  public:
    JsonLine &
    num(const char *key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }

    JsonLine &
    u64(const char *key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonLine &
    str(const char *key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }

    JsonLine &
    raw(const std::string &key, const std::string &json)
    {
        body_ += body_.empty() ? "{" : ",";
        body_ += "\"" + key + "\":" + json;
        return *this;
    }

    /** Print the object as one line and flush, so a crash keeps it. */
    void
    print() const
    {
        std::printf("%s}\n", body_.c_str());
        std::fflush(stdout);
    }

    std::string close() const { return body_ + "}"; }

  private:
    std::string body_;
};

/** A named list of dotted-key overrides on top of the base config. */
struct Variant
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> sets;
};

std::pair<std::string, std::string>
splitKeyValue(const std::string &kv)
{
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0)
        MEMPOD_FATAL("expected key=value, got '%s'", kv.c_str());
    return {kv.substr(0, eq), kv.substr(eq + 1)};
}

/** Parse NAME[:key=value,key=value]. */
Variant
parseVariant(const std::string &spec)
{
    Variant v;
    const std::size_t colon = spec.find(':');
    v.name = spec.substr(0, colon);
    if (colon == std::string::npos)
        return v;
    std::size_t start = colon + 1;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        v.sets.push_back(splitKeyValue(spec.substr(start, comma - start)));
        start = comma + 1;
    }
    return v;
}

std::uint64_t
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

/**
 * Mean cost of the two clock reads TimedSource adds per call, so the
 * trace layer's self time can be separated from the probe's overhead.
 */
double
clockPairNs()
{
    constexpr int kPairs = 1 << 20;
    std::uint64_t total = 0;
    for (int i = 0; i < kPairs; ++i) {
        const Clock::time_point t0 = Clock::now();
        total += nsBetween(t0, Clock::now());
    }
    return static_cast<double>(total) / kPairs;
}

/** Wraps the replayed source and times every next() call. */
class TimedSource final : public TraceSource
{
  public:
    explicit TimedSource(TraceSource &inner) : inner_(inner) {}

    bool
    next(TraceRecord &out) override
    {
        const Clock::time_point t0 = Clock::now();
        const bool ok = inner_.next(out);
        ns_ += nsBetween(t0, Clock::now());
        ++calls_;
        return ok;
    }

    void reset() override { inner_.reset(); }
    std::uint64_t size() const override { return inner_.size(); }
    std::uint64_t
    maxResidentBytes() const override
    {
        return inner_.maxResidentBytes();
    }

    std::uint64_t ns() const { return ns_; }
    std::uint64_t calls() const { return calls_; }

  private:
    TraceSource &inner_;
    std::uint64_t ns_ = 0;
    std::uint64_t calls_ = 0;
};

struct Options
{
    Mechanism mechanism = Mechanism::kMemPod;
    std::string trace;
    GeneratorConfig gen;
    std::string native;
    std::vector<std::pair<std::string, std::string>> sets;
    std::vector<Variant> variants;
    std::vector<Variant> once;
    double seconds = 0.0;
    unsigned minReps = 1;
};

/** Host profile of a probe rep: every counter and gauge, plus shards. */
std::string
perfJson(const PerfReport &p)
{
    JsonLine counters;
    for (const auto &[name, v] : p.counters)
        counters.u64(name.c_str(), v);
    JsonLine gauges;
    for (const auto &[name, v] : p.gauges)
        gauges.num(name.c_str(), v);
    std::string shards = "[";
    for (std::size_t s = 0; s < p.shards.size(); ++s) {
        const PerfReport::Shard &sh = p.shards[s];
        shards += (s ? "," : "") + JsonLine()
                                       .u64("busy_ns", sh.busyNs)
                                       .u64("stall_ns", sh.stallNs)
                                       .u64("events", sh.events)
                                       .close();
    }
    shards += "]";
    std::uint64_t run_ns = 0;
    for (const auto &[name, ns] : p.phasesNs)
        if (name == "run")
            run_ns = ns;
    return JsonLine()
        .u64("windows", p.windows)
        .u64("run_ns", run_ns)
        .raw("counters", counters.close())
        .raw("gauges", gauges.close())
        .raw("shards", shards)
        .close();
}

/** One rep: open the trace, build the simulation, run, report. */
void
runRep(const Options &o, const Variant &v, const char *kind)
{
    SimConfig cfg = SimConfig::paper(o.mechanism);
    for (const auto &[k, val] : o.sets)
        cfg.set(k, val);
    for (const auto &[k, val] : v.sets)
        cfg.set(k, val);
    const bool probe = cfg.perfEnabled;

    const double ref0 = referenceSeconds();
    const Clock::time_point t0 = Clock::now();
    Trace trace;
    std::unique_ptr<TraceSource> source;
    if (o.native.empty()) {
        trace = WorkloadCatalog::global().build(o.trace, o.gen);
        source = std::make_unique<VectorTraceSource>(trace);
    } else {
        source = std::make_unique<NativeTraceSource>(o.native);
    }
    const double trace_s = secondsSince(t0);

    const Clock::time_point t1 = Clock::now();
    Simulation sim(cfg);
    const double ctor_s = secondsSince(t1);

    TimedSource timed(*source);
    TraceSource &feed = probe ? static_cast<TraceSource &>(timed) : *source;
    const double cpu0 = cpuSeconds();
    const Clock::time_point t2 = Clock::now();
    const RunResult r = sim.run(feed, o.trace);
    const double run_s = secondsSince(t2);
    const double cpu_s = cpuSeconds() - cpu0;
    const double ref_s = (ref0 + referenceSeconds()) / 2;

    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(serializeRunResult(r))));
    const DecisionLog *ledger = sim.decisionLog();
    JsonLine line;
    line.str("kind", kind)
        .str("variant", v.name)
        .num("setup_trace_s", trace_s)
        .num("setup_ctor_s", ctor_s)
        .num("run_s", run_s)
        .num("cpu_s", cpu_s)
        .num("ref_s", ref_s)
        .u64("records", r.demandRequests)
        .u64("events", r.eventsExecuted)
        .str("digest", digest)
        .num("ammat_ns", r.ammatNs)
        .u64("migrations", r.migration.migrations)
        .u64("blocked", r.migration.blockedRequests)
        .u64("wasted", r.migration.wastedMigrations)
        .num("row_hit_rate", r.rowHitRate)
        .num("mshr_wait_ns", r.attribution.mshrWaitNs)
        .num("queue_wait_ns", r.attribution.queueWaitNs)
        .num("service_ns", r.attribution.serviceNs)
        .u64("decisions", ledger ? ledger->size() : 0);
    if (r.sampled) {
        line.num("sampled_ammat_ns", r.sampledAmmatNs)
            .num("sampled_ci_ns", r.sampledCiNs)
            .u64("sample_windows", r.sampleWindows);
    }
    if (probe) {
        static const double clock_ns = clockPairNs();
        line.u64("trace_ns", timed.ns())
            .u64("trace_calls", timed.calls())
            .num("clock_ns", clock_ns);
        if (const PerfReport *p = sim.perfReport())
            line.raw("perf", perfJson(*p));
    }
    line.print();
}

void
printInfo()
{
    JsonLine()
        .str("compiler", MEMPOD_BENCH_COMPILER)
        .str("build_type", MEMPOD_BENCH_BUILD_TYPE)
        .str("flags", MEMPOD_BENCH_FLAGS)
        .print();
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: runner --info | --mechanism M --trace NAME "
                 "--seed S --records N [--native PATH]\n"
                 "  [--set k=v]... [--variant NAME[:k=v,...]]... "
                 "[--once NAME[:k=v,...]]...\n"
                 "  [--seconds S] [--min-reps K]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--mechanism") {
            if (!mechanismFromName(value(), o.mechanism))
                usage();
        } else if (a == "--trace") {
            o.trace = value();
        } else if (a == "--seed") {
            o.gen.seed = std::stoull(value());
        } else if (a == "--records") {
            o.gen.totalRequests = std::stoull(value());
        } else if (a == "--native") {
            o.native = value();
        } else if (a == "--set") {
            o.sets.push_back(splitKeyValue(value()));
        } else if (a == "--variant") {
            o.variants.push_back(parseVariant(value()));
        } else if (a == "--once") {
            o.once.push_back(parseVariant(value()));
        } else if (a == "--seconds") {
            o.seconds = std::stod(value());
        } else if (a == "--min-reps") {
            o.minReps = static_cast<unsigned>(std::stoul(value()));
        } else {
            usage();
        }
    }
    if (o.trace.empty() || o.gen.totalRequests == 0)
        usage();
    if (o.variants.empty())
        o.variants.push_back({"base", {}});
    return o;
}

int
run(const Options &o)
{
    if (!o.native.empty()) {
        const Clock::time_point t0 = Clock::now();
        writeNativeTrace(WorkloadCatalog::global().build(o.trace, o.gen),
                         o.native);
        JsonLine()
            .str("kind", "prepare")
            .num("record_s", secondsSince(t0))
            .print();
    }
    for (const Variant &v : o.once)
        runRep(o, v, "once");
    runRep(o, o.variants.front(), "warmup");

    const Clock::time_point start = Clock::now();
    unsigned cycles = 0;
    while (cycles < o.minReps || secondsSince(start) < o.seconds) {
        for (const Variant &v : o.variants)
            runRep(o, v, "rep");
        ++cycles;
    }

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    JsonLine()
        .str("kind", "end")
        .u64("cycles", cycles)
        .num("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0)
        .print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--info") {
        printInfo();
        return 0;
    }
    setQuietLogging(true);
#ifdef __GLIBC__
    // Keep freed memory in the process, so reps after the warm-up reuse
    // pages the kernel already mapped. setup_s and records_per_s then
    // time the simulator's own work, not the host's page-fault service,
    // whose cost swings with other tenants' memory pressure on a shared
    // VM (it was a third of MemPod's setup time, and its noisiest part).
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, -1);
#endif
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "runner: %s\n", e.what());
        return 1;
    }
}
