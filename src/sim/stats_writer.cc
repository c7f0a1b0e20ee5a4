#include "sim/stats_writer.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include <unistd.h>

#include "common/json.h"

namespace mempod {

namespace {

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

void
appendKeyString(std::string &out, const char *key, const std::string &v)
{
    out += '"';
    out += key;
    out += "\":\"";
    out += json::escape(v);
    out += '"';
}

void
appendKeyU64(std::string &out, const char *key, std::uint64_t v)
{
    out += '"';
    out += key;
    out += "\":";
    appendU64(out, v);
}

void
appendKeyDouble(std::string &out, const char *key, double v)
{
    out += '"';
    out += key;
    out += "\":";
    out += json::formatDouble(v);
}

void
appendBuckets(std::string &out, const std::vector<std::uint64_t> &b)
{
    out += '[';
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (i)
            out += ',';
        appendU64(out, b[i]);
    }
    out += ']';
}

/** Emit `"kind":...,<payload fields>` without surrounding braces. */
void
appendMetricValue(std::string &out, const MetricValue &v)
{
    out += "\"kind\":\"";
    out += metricKindName(v.kind);
    out += '"';
    switch (v.kind) {
      case MetricKind::kCounter:
        out += ',';
        appendKeyU64(out, "value", v.count);
        break;
      case MetricKind::kGauge:
        out += ',';
        appendKeyDouble(out, "value", v.real);
        break;
      case MetricKind::kScalar:
        out += ',';
        appendKeyU64(out, "count", v.count);
        out += ',';
        appendKeyDouble(out, "sum", v.real);
        out += ',';
        appendKeyDouble(out, "min", v.min);
        out += ',';
        appendKeyDouble(out, "max", v.max);
        out += ',';
        appendKeyDouble(out, "mean", v.mean);
        out += ',';
        appendKeyDouble(out, "stddev", v.stddev);
        break;
      case MetricKind::kRatio:
        out += ',';
        appendKeyU64(out, "hits", v.hits);
        out += ',';
        appendKeyU64(out, "total", v.count);
        out += ',';
        appendKeyDouble(out, "rate", v.rate());
        break;
      case MetricKind::kHistogram:
        out += ',';
        appendKeyU64(out, "count", v.count);
        out += ",\"buckets\":";
        appendBuckets(out, v.buckets);
        break;
    }
}

} // namespace

std::string
StatsWriter::toJson(const MetricRegistry &reg, const MetricSnapshot &snap,
                    const RunResult &r)
{
    std::string out;
    out.reserve(16 * 1024);
    out += "{\n  ";
    appendKeyString(out, "schema", "mempod-stats-v1");
    out += ",\n  ";
    appendKeyString(out, "workload", r.workload);
    out += ",\n  ";
    appendKeyString(out, "mechanism", r.mechanism);
    out += ",\n  ";
    appendKeyU64(out, "sim_time_ps", snap.simTimePs);
    out += ",\n  \"summary\": {\n    ";
    appendKeyDouble(out, "ammat_ns", r.ammatNs);
    out += ",\n    ";
    // Sampled-simulation keys appear only on sampled runs so detailed
    // goldens stay byte-identical.
    if (r.sampled) {
        appendKeyDouble(out, "sampled_ammat_ns", r.sampledAmmatNs);
        out += ",\n    ";
        appendKeyDouble(out, "sampled_ci_ns", r.sampledCiNs);
        out += ",\n    ";
        appendKeyU64(out, "sample_windows", r.sampleWindows);
        out += ",\n    ";
    }
    appendKeyU64(out, "demand_requests", r.demandRequests);
    out += ",\n    ";
    appendKeyU64(out, "completed", r.completed);
    out += ",\n    ";
    appendKeyDouble(out, "fast_service_fraction", r.fastServiceFraction);
    out += ",\n    ";
    appendKeyDouble(out, "row_hit_rate", r.rowHitRate);
    out += ",\n    ";
    appendKeyDouble(out, "row_hit_rate_fast", r.rowHitRateFast);
    out += ",\n    ";
    appendKeyU64(out, "simulated_ps", r.simulatedPs);
    out += ",\n    ";
    appendKeyU64(out, "events_executed", r.eventsExecuted);
    out += ",\n    ";
    appendKeyU64(out, "migrations", r.migration.migrations);
    out += ",\n    ";
    appendKeyU64(out, "bytes_moved", r.migration.bytesMoved);
    out += ",\n    ";
    appendKeyDouble(out, "data_moved_mib", r.dataMovedMiB());
    out += ",\n    ";
    appendKeyU64(out, "blocked_requests", r.migration.blockedRequests);
    out += ",\n    ";
    appendKeyU64(out, "intervals", r.migration.intervals);
    out += ",\n    ";
    appendKeyU64(out, "candidates_skipped",
                 r.migration.candidatesSkipped);
    out += ",\n    ";
    appendKeyU64(out, "wasted_migrations", r.migration.wastedMigrations);
    out += ",\n    ";
    appendKeyU64(out, "meta_cache_hits", r.migration.metaCacheHits);
    out += ",\n    ";
    appendKeyU64(out, "meta_cache_misses", r.migration.metaCacheMisses);
    out += ",\n    ";
    out += "\"pod_local_migrations\":";
    out += r.podLocalMigrations ? "true" : "false";
    out += ",\n    \"per_core_ammat_ns\":[";
    for (std::size_t c = 0; c < r.perCoreAmmatNs.size(); ++c) {
        if (c)
            out += ',';
        out += json::formatDouble(r.perCoreAmmatNs[c]);
    }
    out += "],\n    \"attribution_ns\": {";
    appendKeyDouble(out, "mshr_wait", r.attribution.mshrWaitNs);
    out += ',';
    appendKeyDouble(out, "metadata", r.attribution.metadataNs);
    out += ',';
    appendKeyDouble(out, "blocked", r.attribution.blockedNs);
    out += ',';
    appendKeyDouble(out, "queue_wait", r.attribution.queueWaitNs);
    out += ',';
    appendKeyDouble(out, "service", r.attribution.serviceNs);
    out += ',';
    appendKeyDouble(out, "total", r.attribution.totalNs());
    out += "},\n    \"latency_ns\": {";
    appendKeyDouble(out, "p50", r.latency.p50Ns);
    out += ',';
    appendKeyDouble(out, "p95", r.latency.p95Ns);
    out += ',';
    appendKeyDouble(out, "p99", r.latency.p99Ns);
    out += "},\n    \"per_core_latency_ns\":[";
    for (std::size_t c = 0; c < r.perCoreLatency.size(); ++c) {
        if (c)
            out += ',';
        out += '{';
        appendKeyDouble(out, "p50", r.perCoreLatency[c].p50Ns);
        out += ',';
        appendKeyDouble(out, "p95", r.perCoreLatency[c].p95Ns);
        out += ',';
        appendKeyDouble(out, "p99", r.perCoreLatency[c].p99Ns);
        out += '}';
    }
    out += "]\n  },\n  \"metrics\": {\n";
    bool first = true;
    for (const auto &[name, value] : snap.values) {
        if (!first)
            out += ",\n";
        first = false;
        out += "    \"";
        out += json::escape(name);
        out += "\": {";
        appendKeyString(out, "desc", reg.description(name));
        out += ',';
        appendMetricValue(out, value);
        out += '}';
    }
    out += "\n  }\n}\n";
    return out;
}

std::string
StatsWriter::toJsonl(const std::vector<IntervalRecord> &records)
{
    std::string out;
    for (const IntervalRecord &rec : records) {
        out += "{";
        appendKeyU64(out, "interval", rec.index);
        out += ',';
        appendKeyU64(out, "start_ps", rec.startPs);
        out += ',';
        appendKeyU64(out, "end_ps", rec.endPs);
        out += ",\"counters\":{";
        bool first = true;
        for (const auto &[name, v] : rec.delta.values) {
            if (v.kind != MetricKind::kCounter || v.count == 0)
                continue;
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += json::escape(name);
            out += "\":";
            appendU64(out, v.count);
        }
        out += "},\"gauges\":{";
        first = true;
        for (const auto &[name, v] : rec.delta.values) {
            if (v.kind != MetricKind::kGauge)
                continue;
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += json::escape(name);
            out += "\":";
            out += json::formatDouble(v.real);
        }
        out += "}}\n";
    }
    return out;
}

std::string
StatsWriter::decisionsToJsonl(const DecisionLog &log,
                              const std::string &workload,
                              const std::string &mechanism)
{
    std::string out;
    out.reserve(128 + 160 * log.size());
    out += '{';
    appendKeyString(out, "schema", "mempod-decisions-v1");
    out += ',';
    appendKeyString(out, "workload", workload);
    out += ',';
    appendKeyString(out, "mechanism", mechanism);
    out += ',';
    appendKeyU64(out, "epoch_ps", log.epochPs());
    out += ',';
    appendKeyDouble(out, "benefit_per_touch_ns",
                    log.benefitPerTouchNs());
    out += ',';
    appendKeyU64(out, "decisions", log.size());
    out += ',';
    appendKeyU64(out, "committed", log.committedCount());
    out += ',';
    appendKeyU64(out, "aborted", log.abortedCount());
    out += ',';
    appendKeyU64(out, "ping_pongs", log.pingPongCount());
    out += "}\n";
    for (const DecisionLog::Record &d : log.records()) {
        out += '{';
        appendKeyU64(out, "seq", d.seq);
        out += ',';
        appendKeyU64(out, "time_ps", d.timePs);
        out += ',';
        appendKeyU64(out, "epoch", d.epoch);
        out += ",\"pod\":";
        if (d.pod == DecisionLog::kNoPod)
            out += "null"; // centralized mechanism, no Pod identity
        else
            appendU64(out, d.pod);
        out += ',';
        appendKeyU64(out, "page", d.page);
        out += ',';
        appendKeyU64(out, "victim", d.victim);
        out += ',';
        appendKeyU64(out, "tracker_count", d.trackerCount);
        out += ',';
        appendKeyDouble(out, "predicted_benefit_ns",
                        d.predictedBenefitNs);
        out += ',';
        appendKeyString(out, "outcome",
                        DecisionLog::outcomeName(d.outcome));
        out += ',';
        appendKeyU64(out, "commit_ps", d.commitPs);
        out += ",\"ping_pong\":";
        out += d.pingPong ? "true" : "false";
        out += ',';
        appendKeyU64(out, "realized_near_hits", d.realizedNearHits);
        out += "}\n";
    }
    return out;
}

std::string
StatsWriter::jobFileStem(std::size_t index, const std::string &label,
                         const std::string &workload)
{
    auto sanitize = [](const std::string &s) {
        std::string out;
        out.reserve(s.size());
        for (const char c : s) {
            const bool ok = (c >= 'a' && c <= 'z') ||
                            (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '.' ||
                            c == '_' || c == '-';
            out += ok ? c : '-';
        }
        return out;
    };
    char buf[32];
    std::snprintf(buf, sizeof(buf), "job%03zu", index);
    std::string stem = buf;
    if (!label.empty())
        stem += "_" + sanitize(label);
    if (!workload.empty())
        stem += "_" + sanitize(workload);
    return stem;
}

std::string
StatsWriter::perfToJson(const PerfReport &r)
{
    const PerfHostInfo host = perfHostInfo();
    std::string out;
    out.reserve(4 * 1024);
    out += "{\n  ";
    appendKeyString(out, "schema", "mempod-perf-v1");
    out += ",\n  \"host\": {";
    appendKeyString(out, "sysname", host.sysname);
    out += ',';
    appendKeyString(out, "machine", host.machine);
    out += ',';
    appendKeyU64(out, "cpus", host.cpus);
    out += "},\n  ";
    appendKeyDouble(out, "wall_seconds", r.wallSeconds);
    out += ",\n  ";
    appendKeyU64(out, "max_rss_kib", r.maxRssKib);
    out += ",\n  ";
    appendKeyU64(out, "sim_time_ps", r.simTimePs);
    out += ",\n  ";
    appendKeyU64(out, "events_executed", r.eventsExecuted);
    out += ",\n  ";
    appendKeyDouble(out, "events_per_second", r.eventsPerSecond);
    out += ",\n  ";
    appendKeyU64(out, "windows", r.windows);
    out += ",\n  \"phases_ns\": {";
    bool first = true;
    for (const auto &[name, ns] : r.phasesNs) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += json::escape(name);
        out += "\":";
        appendU64(out, ns);
    }
    out += "},\n  \"counters\": {";
    first = true;
    for (const auto &[name, v] : r.counters) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += json::escape(name);
        out += "\":";
        appendU64(out, v);
    }
    out += "},\n  \"gauges\": {";
    first = true;
    for (const auto &[name, v] : r.gauges) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += json::escape(name);
        out += "\":";
        out += json::formatDouble(v);
    }
    out += "},\n  \"histograms\": {";
    first = true;
    for (const auto &[name, buckets] : r.histograms) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += json::escape(name);
        out += "\":";
        appendBuckets(out, buckets);
    }
    out += "},\n  \"shards\": [";
    for (std::size_t s = 0; s < r.shards.size(); ++s) {
        if (s)
            out += ',';
        out += '{';
        appendKeyU64(out, "busy_ns", r.shards[s].busyNs);
        out += ',';
        appendKeyU64(out, "stall_ns", r.shards[s].stallNs);
        out += ',';
        appendKeyU64(out, "events", r.shards[s].events);
        out += '}';
    }
    out += "]\n}\n";
    return out;
}

void
StatsWriter::writeFile(const std::string &path,
                       const std::string &content)
{
    // Temp-then-rename in the same directory: rename(2) is atomic on
    // POSIX when source and target share a filesystem, so a crash at
    // any point leaves either the previous file or the complete new
    // one. The pid keeps concurrent writers of *different* paths in
    // one directory from colliding on the temp name.
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(getpid()));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw std::runtime_error("cannot open stats file: " + tmp);
    const std::size_t n =
        std::fwrite(content.data(), 1, content.size(), f);
    const bool write_ok = n == content.size();
    if (std::fclose(f) != 0 || !write_ok) {
        std::remove(tmp.c_str());
        throw std::runtime_error("short write on stats file: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot rename stats file into place: " +
                                 path);
    }
}

} // namespace mempod
