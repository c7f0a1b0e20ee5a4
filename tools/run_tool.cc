/**
 * @file
 * The one tool for run directories (--out DIR) and BENCH_<name>.json
 * files:
 *
 *   run_tool summary FILE...
 *       Flatten every numeric leaf of each JSON file to a dotted path
 *       and print one aligned table, one column per file.
 *
 *   run_tool explain BASE_STATS CUR_STATS [--decisions BASE CUR]
 *       Attribute an AMMAT difference between two "mempod-stats-v1"
 *       exports: the delta of each of the five AMMAT components (they
 *       partition arrival-to-finish time, so the deltas must sum to the
 *       measured delta; exit 1 when they do not), each pod's share, and
 *       migration quality. With two "mempod-decisions-v1" ledgers it
 *       also compares decision rates and prints the first diverging
 *       decision. Ledgers deterministic at any --jobs/--shards make that
 *       the earliest point where two configurations chose differently.
 *
 *   run_tool speedup BASE_BENCH CUR_BENCH N
 *       Hard gate on simulation cost: CUR's `events_per_sim_ms` must be
 *       at most 1/N of BASE's, i.e. CUR retires the same simulated time
 *       in N times fewer events. Event counts are a pure function of
 *       configs and traces, so the gate is safe on noisy hosts. A
 *       missing, null (non-finite), zero or negative leaf on either
 *       side fails the gate rather than passing it vacuously.
 *
 *   run_tool check PATH...
 *       Validate run directories and BENCH files against their schemas.
 *       Each file is checked on its own (see the check* functions);
 *       each directory PATH is then held to the run-level rules in
 *       checkRun(). Every violation is printed to stderr as
 *       "FILE: first violation".
 *
 * Exit status: 0 on success; 1 for a finding (attribution mismatch,
 * speedup below N, check violations); 2 for a bad command line or an
 * input that cannot be read as what the subcommand needs.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"

namespace {

using namespace mempod;
namespace fs = std::filesystem;

/** Numeric leaves of one file, keyed by dotted path. */
using FlatDoc = std::map<std::string, double>;

/** An input that breaks its schema; what() names the first violation. */
struct Bad : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

[[noreturn]] void
bad(const std::string &what)
{
    throw Bad(what);
}

void
expect(bool ok, const std::string &what)
{
    if (!ok)
        bad(what);
}

json::Value
parseJson(std::string_view text)
{
    json::Parsed doc = json::parse(text);
    if (doc.error) {
        bad("not valid JSON: " + doc.error->message + " (line " +
            std::to_string(doc.error->line) + ", byte " +
            std::to_string(doc.error->offset) + ")");
    }
    return std::move(doc.value);
}

std::string
readText(const std::string &path)
{
    std::optional<std::string> text = json::readFile(path);
    if (!text)
        bad("cannot open");
    return std::move(*text);
}

json::Value
loadJson(const std::string &path)
{
    return parseJson(readText(path));
}

/** `read(path)`, or exit 2 naming the file and its first violation. */
template <typename T>
T
orExit(const std::string &path, T (*read)(const std::string &))
{
    try {
        return read(path);
    } catch (const Bad &e) {
        std::fprintf(stderr, "run_tool: %s: %s\n", path.c_str(), e.what());
        std::exit(2);
    }
}

const json::Value &
member(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    if (!v)
        bad(std::string("missing key '") + key + "'");
    return *v;
}

double
number(const json::Value &obj, const char *key)
{
    const std::optional<double> d = member(obj, key).asDouble();
    if (!d)
        bad(std::string("'") + key + "' is not a number");
    return *d;
}

std::uint64_t
count(const json::Value &obj, const char *key)
{
    const std::optional<std::uint64_t> n = member(obj, key).asU64();
    if (!n)
        bad(std::string("'") + key + "' is not an unsigned integer");
    return *n;
}

const std::string &
text(const json::Value &obj, const char *key)
{
    const json::Value &v = member(obj, key);
    if (v.kind != json::Value::Kind::kString)
        bad(std::string("'") + key + "' is not a string");
    return v.text;
}

void
schema(const json::Value &doc, const char *want)
{
    const std::string &got = text(doc, "schema");
    expect(got == want, "schema is '" + got + "', expected '" + want + "'");
}

/** Compact numeric rendering: integers plain, else 6 significant. */
std::string
num(double v)
{
    char buf[64];
    if (std::fabs(v) < 1e15 && v == std::floor(v))
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/**
 * A "mempod-decisions-v1" ledger that passed validation: a header
 * carrying the run identity and totals, then one decision per line
 * with contiguous `seq`. The header totals equal the body's counts.
 */
struct Ledger
{
    std::string mechanism;
    std::uint64_t decisions = 0, committed = 0, aborted = 0, pingPongs = 0;
    std::vector<std::string> lines; //!< raw lines; [0] is the header
};

Ledger
readLedger(const std::string &path)
{
    const std::string body = readText(path);
    Ledger l;
    for (std::size_t start = 0; start < body.size();) {
        const std::size_t nl = std::min(body.find('\n', start), body.size());
        l.lines.push_back(body.substr(start, nl - start));
        start = nl + 1;
    }
    expect(!l.lines.empty(), "empty ledger (no header line)");
    std::uint64_t committed = 0, aborted = 0, ping_pongs = 0;
    for (std::size_t i = 0; i < l.lines.size(); ++i) {
        try {
            const json::Value d = parseJson(l.lines[i]);
            if (i == 0) {
                schema(d, "mempod-decisions-v1");
                for (const char *key :
                     {"workload", "epoch_ps", "benefit_per_touch_ns"})
                    member(d, key);
                l.mechanism = text(d, "mechanism");
                l.decisions = count(d, "decisions");
                l.committed = count(d, "committed");
                l.aborted = count(d, "aborted");
                l.pingPongs = count(d, "ping_pongs");
                continue;
            }
            const std::uint64_t seq = count(d, "seq");
            expect(seq == i - 1, "seq " + std::to_string(seq) +
                                     ", expected " + std::to_string(i - 1));
            for (const char *key :
                 {"time_ps", "epoch", "pod", "page", "victim",
                  "tracker_count", "predicted_benefit_ns", "commit_ps",
                  "realized_near_hits"})
                member(d, key);
            const std::string &outcome = text(d, "outcome");
            expect(outcome == "pending" || outcome == "completed" ||
                       outcome == "aborted",
                   "outcome '" + outcome + "' is not pending, completed "
                                           "or aborted");
            committed += outcome == "completed";
            aborted += outcome == "aborted";
            const json::Value &pp = member(d, "ping_pong");
            expect(pp.kind == json::Value::Kind::kBool,
                   "'ping_pong' is not a boolean");
            ping_pongs += pp.boolean;
        } catch (const Bad &e) {
            bad("line " + std::to_string(i + 1) + ": " + e.what());
        }
    }
    const auto total = [](const char *key, std::uint64_t header,
                          std::uint64_t body) {
        expect(header == body, std::string("header ") + key + " " +
                                   std::to_string(header) + " but the "
                                   "body has " + std::to_string(body));
    };
    total("decisions", l.decisions, l.lines.size() - 1);
    total("committed", l.committed, committed);
    total("aborted", l.aborted, aborted);
    total("ping_pongs", l.pingPongs, ping_pongs);
    return l;
}

// ---------------------------------------------------------------------
// summary

FlatDoc
loadFlat(const std::string &path)
{
    return json::flattenNumbers(loadJson(path));
}

int
cmdSummary(const std::vector<std::string> &files)
{
    if (files.empty()) {
        std::fprintf(stderr, "usage: run_tool summary FILE...\n");
        return 2;
    }
    // Union of keys across all files, one column per file.
    std::vector<FlatDoc> docs;
    std::map<std::string, bool> keys;
    for (const std::string &f : files) {
        docs.push_back(orExit(f, loadFlat));
        for (const auto &[k, v] : docs.back())
            keys[k] = true;
    }
    std::size_t keyw = std::strlen("metric");
    for (const auto &[k, unused] : keys)
        keyw = std::max(keyw, k.size());

    std::printf("%-*s", static_cast<int>(keyw), "metric");
    for (const std::string &f : files)
        std::printf("  %18s", f.c_str());
    std::printf("\n");
    for (const auto &[k, unused] : keys) {
        std::printf("%-*s", static_cast<int>(keyw), k.c_str());
        for (const FlatDoc &d : docs) {
            const auto it = d.find(k);
            std::printf("  %18s",
                        it == d.end() ? "-" : num(it->second).c_str());
        }
        std::printf("\n");
    }
    return 0;
}

// ---------------------------------------------------------------------
// explain

/** Fetch a required key; exits(2) naming it when absent. */
double
need(const FlatDoc &doc, const std::string &file, const std::string &key)
{
    const auto it = doc.find(key);
    if (it == doc.end()) {
        std::fprintf(stderr,
                     "run_tool: %s: no numeric key '%s' — is it a "
                     "mempod-stats-v1 export?\n",
                     file.c_str(), key.c_str());
        std::exit(2);
    }
    return it->second;
}

double
get(const FlatDoc &doc, const std::string &key)
{
    const auto it = doc.find(key);
    return it == doc.end() ? 0.0 : it->second;
}

double
rate(double part, double whole)
{
    return whole > 0 ? part / whole : 0.0;
}

void
compareLedgers(const std::string &base_path, const std::string &cur_path)
{
    const Ledger b = orExit(base_path, readLedger);
    const Ledger c = orExit(cur_path, readLedger);
    const auto rates = [](const Ledger &l) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "%s (%.1f%% aborted, %.1f%% ping-pong)",
                      num(static_cast<double>(l.decisions)).c_str(),
                      100.0 * rate(static_cast<double>(l.aborted),
                                   static_cast<double>(l.decisions)),
                      100.0 * rate(static_cast<double>(l.pingPongs),
                                   static_cast<double>(l.committed)));
        return std::string(buf);
    };
    std::printf("\ndecisions: base %s -> current %s\n", rates(b).c_str(),
                rates(c).c_str());

    // Line 0 is the header (run identity); lines 1.. are decisions in
    // the order the policies made them.
    std::size_t diverge = 1;
    const std::size_t n = std::min(b.lines.size(), c.lines.size());
    while (diverge < n && b.lines[diverge] == c.lines[diverge])
        ++diverge;
    if (diverge >= b.lines.size() && diverge >= c.lines.size()) {
        std::printf("decision ledgers are identical (%zu decisions)\n",
                    b.lines.size() - 1);
        return;
    }
    const auto at = [diverge](const Ledger &l) {
        return diverge < l.lines.size() ? l.lines[diverge].c_str()
                                        : "(ledger ended)";
    };
    std::printf("first diverging decision: #%zu\n", diverge - 1);
    std::printf("  base:    %s\n", at(b));
    std::printf("  current: %s\n", at(c));
}

int
cmdExplain(const std::vector<std::string> &args)
{
    std::vector<std::string> stats, ledgers;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--decisions") {
            if (i + 2 >= args.size()) {
                std::fprintf(stderr, "run_tool explain: --decisions needs "
                                     "BASE_JSONL and CUR_JSONL\n");
                return 2;
            }
            ledgers = {args[i + 1], args[i + 2]};
            i += 2;
        } else if (args[i][0] == '-') {
            std::fprintf(stderr, "run_tool explain: unknown flag '%s'\n",
                         args[i].c_str());
            return 2;
        } else {
            stats.push_back(args[i]);
        }
    }
    if (stats.size() != 2) {
        std::fprintf(stderr,
                     "usage: run_tool explain BASE_STATS CUR_STATS "
                     "[--decisions BASE_JSONL CUR_JSONL]\n");
        return 2;
    }
    const std::string &base_stats = stats[0], &cur_stats = stats[1];
    const FlatDoc base = orExit(base_stats, loadFlat);
    const FlatDoc cur = orExit(cur_stats, loadFlat);

    const double base_ammat = need(base, base_stats, "summary.ammat_ns");
    const double cur_ammat = need(cur, cur_stats, "summary.ammat_ns");
    const double measured_delta = cur_ammat - base_ammat;
    std::printf("AMMAT: base %s ns -> current %s ns (delta %+.6g ns)\n\n",
                num(base_ammat).c_str(), num(cur_ammat).c_str(),
                measured_delta);

    // --- per-component attribution ------------------------------------
    static const char *const kComponents[] = {
        "mshr_wait", "metadata", "blocked", "queue_wait", "service"};
    std::printf("%-12s %14s %14s %14s %8s\n", "component", "base_ns",
                "current_ns", "delta_ns", "share");
    double sum_delta = 0.0;
    for (const char *c : kComponents) {
        const std::string key = std::string("summary.attribution_ns.") + c;
        const double b = need(base, base_stats, key);
        const double v = need(cur, cur_stats, key);
        const double d = v - b;
        sum_delta += d;
        std::printf("%-12s %14s %14s %+14.6g %7.1f%%\n", c, num(b).c_str(),
                    num(v).c_str(), d,
                    measured_delta != 0.0 ? 100.0 * d / measured_delta
                                          : 0.0);
    }
    // Identity check: |sum - measured| within rounding of the larger.
    const double scale =
        std::max({std::fabs(sum_delta), std::fabs(measured_delta), 1.0});
    const bool attribution_ok =
        std::fabs(sum_delta - measured_delta) <= 1e-9 * scale;
    std::printf("attribution_delta_check: %s (sum=%.9g, measured=%.9g)\n",
                attribution_ok ? "OK" : "MISMATCH", sum_delta,
                measured_delta);

    // --- per-pod attribution (MemPod runs only) -----------------------
    // Each pod's blocked_ps + metadata_ps, amortized over the run's
    // demand requests, is its ns-per-access contribution.
    const double base_reqs =
        need(base, base_stats, "summary.demand_requests");
    const double cur_reqs = need(cur, cur_stats, "summary.demand_requests");
    for (int pod = 0; pod < 4096; ++pod) {
        const std::string p = "metrics.pod" + std::to_string(pod);
        const std::string blocked = p + ".migration.blocked_ps.value";
        const std::string meta = p + ".migration.metadata_ps.value";
        const std::string migs = p + ".migration.migrations.value";
        if (!base.count(blocked) && !cur.count(blocked))
            break; // pods are densely numbered; first gap = done
        if (pod == 0) {
            std::printf("\n%-8s %12s %14s %14s %14s\n", "pod",
                        "migrations", "base_ns/acc", "cur_ns/acc",
                        "delta_ns/acc");
        }
        const double b_ns = (get(base, blocked) + get(base, meta)) / 1e3 /
                            std::max(base_reqs, 1.0);
        const double c_ns = (get(cur, blocked) + get(cur, meta)) / 1e3 /
                            std::max(cur_reqs, 1.0);
        std::printf("pod%-5d %5s/%-6s %14.6g %14.6g %+14.6g\n", pod,
                    num(get(base, migs)).c_str(),
                    num(get(cur, migs)).c_str(), b_ns, c_ns, c_ns - b_ns);
    }

    // --- migration quality --------------------------------------------
    const double b_migs = get(base, "summary.migrations");
    const double c_migs = get(cur, "summary.migrations");
    std::printf("\nmigrations: base %s (%.1f%% wasted) -> current %s "
                "(%.1f%% wasted)\n",
                num(b_migs).c_str(),
                100.0 * rate(get(base, "summary.wasted_migrations"), b_migs),
                num(c_migs).c_str(),
                100.0 * rate(get(cur, "summary.wasted_migrations"), c_migs));

    if (!ledgers.empty())
        compareLedgers(ledgers[0], ledgers[1]);
    return attribution_ok ? 0 : 1;
}

// ---------------------------------------------------------------------
// speedup

/** events_per_sim_ms of a BENCH file; exits 1 when it cannot gate. */
double
simCost(const std::string &path)
{
    const json::Value doc = orExit(path, loadJson);
    const json::Value *v = doc.find("events_per_sim_ms");
    const char *why = nullptr;
    double cost = 0.0;
    if (!v)
        why = "has no events_per_sim_ms leaf";
    else if (v->kind == json::Value::Kind::kNull)
        why = "has a non-finite events_per_sim_ms (null)";
    else if (!v->asDouble())
        why = "has a non-numeric events_per_sim_ms";
    else if ((cost = *v->asDouble()) == 0.0)
        why = "has events_per_sim_ms 0: an empty run";
    else if (cost < 0.0)
        why = "has a negative events_per_sim_ms";
    if (why) {
        std::fprintf(stderr, "run_tool speedup: %s %s\n", path.c_str(), why);
        std::exit(1);
    }
    return cost;
}

int
cmdSpeedup(const std::vector<std::string> &args)
{
    char *end = nullptr;
    const double need_x =
        args.size() == 3 ? std::strtod(args[2].c_str(), &end) : 0.0;
    if (args.size() != 3 || *end != '\0' || !std::isfinite(need_x) ||
        need_x <= 0.0) {
        std::fprintf(stderr, "usage: run_tool speedup BASE_BENCH "
                             "CUR_BENCH N (N a positive factor)\n");
        return 2;
    }
    const double base = simCost(args[0]);
    const double cur = simCost(args[1]);
    // Cost metric: fewer events per simulated ms is faster.
    const double speedup = base / cur;
    const bool pass = speedup >= need_x;
    std::printf("events_per_sim_ms: base %s, current %s: %.2fx fewer "
                "events, need %.1fx: %s\n",
                num(base).c_str(), num(cur).c_str(), speedup, need_x,
                pass ? "OK" : "FAIL");
    return pass ? 0 : 1;
}

// ---------------------------------------------------------------------
// check

/** What the run-level rules need to know about a directory's files. */
struct RunFacts
{
    std::map<std::string, std::size_t> files; //!< per kind
    bool statsMigrated = false;  //!< a stats summary with migrations > 0
    bool memPodMigrated = false; //!< ... a MemPod one, or a MemPod ledger
    bool ledgerDecided = false;  //!< a ledger with decisions > 0
    bool lifecycle = false;      //!< a trace with a full migration flow
    //! stats stem -> mechanism, and the stems whose .jsonl shows
    //! .migration.migrations counters in more than one interval
    std::map<std::string, std::string> mechanismOf;
    std::set<std::string> evolving;
};

std::string
stemOf(const fs::path &p)
{
    return (p.parent_path() / p.stem()).string();
}

/** One "mempod-stats-v1" export. */
void
checkStats(const fs::path &p, RunFacts &run)
{
    std::string &mechanism_of = run.mechanismOf[stemOf(p)];
    mechanism_of = "?"; // pairs the .jsonl even if this file is bad
    const json::Value d = loadJson(p);
    schema(d, "mempod-stats-v1");
    for (const char *key : {"workload", "sim_time_ps"})
        member(d, key);
    const std::string &mechanism = mechanism_of = text(d, "mechanism");
    const json::Value &s = member(d, "summary");
    const json::Value &metrics = member(d, "metrics");
    expect(number(s, "demand_requests") > 0, "demand_requests is not > 0");
    const double ammat = number(s, "ammat_ns");
    expect(ammat > 0, "ammat_ns is not > 0");
    expect(metrics.find("frontend.ammat_ps") != nullptr,
           "metrics lack frontend.ammat_ps");
    // The five components partition AMMAT exactly (modulo print
    // rounding of each term).
    const json::Value &a = member(s, "attribution_ns");
    double total = 0.0;
    for (const char *c :
         {"mshr_wait", "metadata", "blocked", "queue_wait", "service"})
        total += number(a, c);
    expect(std::fabs(total - ammat) <= 1e-6 * ammat,
           "attribution sums to " + num(total) + ", not AMMAT " +
               num(ammat));
    const json::Value &lat = member(s, "latency_ns");
    const double p50 = number(lat, "p50"), p95 = number(lat, "p95"),
                 p99 = number(lat, "p99");
    expect(p50 <= p95 && p95 <= p99, "latency percentiles are not "
                                     "ordered p50 <= p95 <= p99");
    if (mechanism == "MemPod") {
        expect(std::any_of(metrics.members.begin(), metrics.members.end(),
                           [](const auto &m) {
                               return m.first.rfind("pod0.", 0) == 0;
                           }),
               "MemPod metrics have no pod0.* key");
    }
    const bool migrated = number(s, "migrations") > 0;
    run.statsMigrated |= migrated;
    run.memPodMigrated |= migrated && mechanism == "MemPod";
}

/** One stats time series: a JSON object per sampling interval. */
void
checkSeries(const fs::path &p, RunFacts &run)
{
    const std::string body = readText(p);
    std::set<std::uint64_t> migrating; // intervals with pod migrations
    std::size_t line = 0;
    for (std::size_t start = 0; start < body.size(); ++line) {
        const std::size_t nl = std::min(body.find('\n', start), body.size());
        try {
            const json::Value r =
                parseJson(std::string_view(body).substr(start, nl - start));
            const std::uint64_t interval = count(r, "interval");
            const json::Value &counters = member(r, "counters");
            expect(counters.kind == json::Value::Kind::kObject,
                   "'counters' is not an object");
            for (const auto &m : counters.members) {
                if (m.first.find(".migration.migrations") != std::string::npos)
                    migrating.insert(interval);
            }
        } catch (const Bad &e) {
            bad("line " + std::to_string(line + 1) + ": " + e.what());
        }
        start = nl + 1;
    }
    if (migrating.size() > 1)
        run.evolving.insert(stemOf(p));
}

void
checkLedger(const fs::path &p, RunFacts &run)
{
    const Ledger l = readLedger(p);
    run.ledgerDecided |= l.decisions > 0;
    run.memPodMigrated |= l.mechanism == "MemPod" && l.committed > 0;
}

/** One Chrome trace-event export, as Perfetto loads it. */
void
checkTrace(const fs::path &p, RunFacts &run)
{
    const json::Value d = loadJson(p);
    expect(text(d, "displayTimeUnit") == "ns", "displayTimeUnit is not ns");
    const json::Value &events = member(d, "traceEvents");
    expect(!events.items.empty(), "traceEvents is empty");
    std::map<std::string, long> open; // async spans by cat/id/name
    std::set<std::string> names, flows;
    for (std::size_t i = 0; i < events.items.size(); ++i) {
        const json::Value &e = events.items[i];
        try {
            const std::string &ph = text(e, "ph");
            expect(ph.size() == 1 &&
                       std::strchr("MBEbesitfX", ph[0]) != nullptr,
                   "ph '" + ph + "' is not one of M B E b e s i t f X");
            member(e, "pid");
            member(e, "tid");
            if (ph == "M")
                continue;
            member(e, "ts");
            const std::string &name = text(e, "name");
            names.insert(name);
            if (ph == "b" || ph == "e") {
                long &depth =
                    open[text(e, "cat") + '\0' + text(e, "id") + '\0' + name];
                expect(ph == "b" || depth > 0,
                       "async end without a begin: " + name);
                depth += ph == "b" ? 1 : -1;
            } else if (ph == "s" || ph == "t" || ph == "f") {
                flows.insert(ph);
            }
        } catch (const Bad &e) {
            bad("traceEvents[" + std::to_string(i) + "]: " + e.what());
        }
    }
    for (const auto &[key, depth] : open)
        expect(depth == 0, "unbalanced async span: " +
                               key.substr(key.rfind('\0') + 1));
    const bool full = names.count("mea_victory") &&
                      names.count("read_phase") &&
                      names.count("write_phase") &&
                      names.count("remap_commit") && flows.count("s") &&
                      flows.count("f");
    run.lifecycle |= full;
}

/** One per-job host profile. */
void
checkPerf(const fs::path &p, RunFacts &)
{
    const json::Value d = loadJson(p);
    schema(d, "mempod-perf-v1");
    for (const char *key : {"wall_seconds", "phases_ns", "counters"})
        member(d, key);
    expect(number(d, "events_executed") > 0, "events_executed is not > 0");
}

/** One BENCH_<name>.json: only deterministic fields, so byte-stable. */
void
checkBench(const fs::path &p, RunFacts &)
{
    const json::Value d = loadJson(p);
    schema(d, "mempod-bench-v2");
    text(d, "name");
    count(d, "jobs");
    count(d, "events_executed");
    expect(number(d, "events_per_sim_ms") >= 0,
           "events_per_sim_ms is negative");
    expect(d.members.size() == 5,
           "has keys beyond schema, name, jobs, events_executed and "
           "events_per_sim_ms");
}

using Checker = void (*)(const fs::path &, RunFacts &);

/** Kind name and checker for a file, by its name; nullptr if unknown. */
std::pair<const char *, Checker>
classify(const fs::path &p)
{
    const std::string name = p.filename().string();
    const auto ends = [&name](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() > n && name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends(".decisions.jsonl"))
        return {"ledger", checkLedger};
    if (ends(".trace.json"))
        return {"trace", checkTrace};
    if (ends(".perf.json"))
        return {"perf", checkPerf};
    if (name.rfind("BENCH_", 0) == 0 && ends(".json"))
        return {"bench", checkBench};
    if (ends(".jsonl"))
        return {"series", checkSeries};
    if (ends(".json"))
        return {"stats", checkStats};
    return {nullptr, nullptr};
}

/**
 * Rules over a whole run directory. They are keyed on what the run's
 * own files say happened, so a run too short to migrate passes:
 *   - every artifact subdirectory holds at least one file of its kind;
 *   - ledgers: at least one records a decision, unless the run's stats
 *     show that nothing migrated;
 *   - traces: when MemPod migrated (per its stats or ledger), at least
 *     one trace shows a full mea_victory -> read_phase -> write_phase
 *     -> remap_commit lifecycle with s/f flow events;
 *   - stats: every .jsonl has its .json; when MemPod migrated, some
 *     MemPod .jsonl shows per-pod .migration.migrations counters in
 *     more than one interval.
 */
std::vector<std::string>
checkRun(const fs::path &root, RunFacts &run)
{
    std::vector<std::string> out;
    const auto rule = [&out](bool ok, const std::string &what) {
        if (!ok)
            out.push_back(what);
    };
    std::size_t total = 0;
    for (const auto &[kind, n] : run.files)
        total += n;
    rule(total > 0, "no run artifacts found");
    for (const auto &[dir, kind] :
         {std::pair{"stats", "stats"}, {"traces", "trace"},
          {"decisions", "ledger"}, {"perf", "perf"}})
        rule(!fs::is_directory(root / dir) || run.files[kind] > 0,
             std::string(dir) + "/ holds no " + kind + " files");
    rule(!run.files["ledger"] || run.ledgerDecided ||
             (run.files["stats"] && !run.statsMigrated),
         "no decision ledger records a decision");
    rule(!run.files["trace"] || !run.memPodMigrated || run.lifecycle,
         "MemPod migrated, but no trace shows a full mea_victory -> "
         "read_phase -> write_phase -> remap_commit lifecycle with s/f "
         "flows");
    bool evolving = false;
    for (const auto &stem : run.evolving)
        evolving |= run.mechanismOf[stem] == "MemPod";
    for (const auto &[stem, mechanism] : run.mechanismOf)
        rule(!mechanism.empty(), stem + ".jsonl has no " + stem + ".json");
    rule(!run.files["stats"] || !run.memPodMigrated || evolving,
         "MemPod migrated, but no MemPod .jsonl shows per-pod "
         ".migration.migrations counters in more than one interval");
    return out;
}

int
cmdCheck(const std::vector<std::string> &paths)
{
    if (paths.empty()) {
        std::fprintf(stderr, "usage: run_tool check PATH...\n");
        return 2;
    }
    std::size_t violations = 0, checked = 0;
    const auto report = [&violations](const std::string &where,
                                      const std::string &what) {
        std::fprintf(stderr, "%s: %s\n", where.c_str(), what.c_str());
        ++violations;
    };
    for (const std::string &path : paths) {
        std::error_code ec;
        const bool is_dir = fs::is_directory(path, ec);
        if (!is_dir && !fs::is_regular_file(path, ec)) {
            std::fprintf(stderr, "run_tool check: no such file or "
                                 "directory: %s\n", path.c_str());
            return 2;
        }
        std::vector<fs::path> files;
        if (is_dir) {
            for (const auto &e : fs::recursive_directory_iterator(path))
                if (e.is_regular_file())
                    files.push_back(e.path());
            std::sort(files.begin(), files.end());
        } else {
            files.push_back(path);
        }
        RunFacts run;
        for (const fs::path &f : files) {
            const auto [kind, checker] = classify(f);
            if (!checker) {
                report(f.string(), "not a run artifact or BENCH file");
                continue;
            }
            ++run.files[kind];
            ++checked;
            try {
                checker(f, run);
            } catch (const Bad &e) {
                report(f.string(), e.what());
            }
            if (checker == checkSeries)
                run.mechanismOf.try_emplace(stemOf(f));
        }
        if (is_dir)
            for (const std::string &what : checkRun(path, run))
                report(path, what);
    }
    std::printf("run_tool check: %zu file(s) in %zu path(s), %zu "
                "violation(s)\n",
                checked, paths.size(), violations);
    return violations ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    const std::vector<std::string> args(argv + std::min(argc, 2),
                                        argv + argc);
    if (cmd == "summary")
        return cmdSummary(args);
    if (cmd == "explain")
        return cmdExplain(args);
    if (cmd == "speedup")
        return cmdSpeedup(args);
    if (cmd == "check")
        return cmdCheck(args);
    std::fprintf(stderr,
                 "usage: run_tool summary FILE...\n"
                 "       run_tool explain BASE_STATS CUR_STATS "
                 "[--decisions BASE_JSONL CUR_JSONL]\n"
                 "       run_tool speedup BASE_BENCH CUR_BENCH N\n"
                 "       run_tool check PATH...\n");
    return 2;
}
