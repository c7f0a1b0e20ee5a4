#include "trace/catalog.h"

#include <utility>

#include "common/log.h"
#include "trace/champsim.h"
#include "trace/native.h"
#include "trace/profiles.h"
#include "trace/sift.h"

namespace mempod {

namespace {

WorkloadSpec
homogeneous(const std::string &bench)
{
    WorkloadSpec w;
    w.name = bench;
    w.homogeneous = true;
    w.benchmarks.assign(8, bench);
    return w;
}

WorkloadSpec
mix(const std::string &name, std::vector<std::string> benches)
{
    MEMPOD_ASSERT(benches.size() == 8, "mix '%s' must have 8 cores",
                  name.c_str());
    WorkloadSpec w;
    w.name = name;
    w.homogeneous = false;
    w.benchmarks = std::move(benches);
    return w;
}

/**
 * The paper's workload suite: 15 homogeneous 8-core workloads and the
 * 12 mixed workloads of Table 3, normalized to exactly eight cores
 * (documented in DESIGN.md).
 */
std::vector<WorkloadSpec>
syntheticSuite()
{
    std::vector<WorkloadSpec> all;
    for (const char *b :
         {"astar", "bwaves", "bzip", "cactus", "gcc", "lbm", "leslie",
          "libquantum", "mcf", "milc", "omnetpp", "soplex", "sphinx",
          "xalanc", "zeusmp"})
        all.push_back(homogeneous(b));

    all.push_back(mix("mix1", {"astar", "gcc", "gems", "lbm", "leslie",
                               "mcf", "milc", "omnetpp"}));
    all.push_back(mix("mix2", {"gcc", "gems", "leslie", "mcf", "omnetpp",
                               "sphinx", "zeusmp", "gcc"}));
    all.push_back(mix("mix3", {"gcc", "lbm", "leslie", "libquantum",
                               "mcf", "milc", "sphinx", "gcc"}));
    all.push_back(mix("mix4", {"bzip", "dealii", "dealii", "gcc", "mcf",
                               "mcf", "milc", "soplex"}));
    all.push_back(mix("mix5", {"bwaves", "bzip", "bzip", "cactus",
                               "dealii", "dealii", "mcf", "xalanc"}));
    all.push_back(mix("mix6", {"astar", "bwaves", "bzip", "gcc", "gcc",
                               "lbm", "libquantum", "mcf"}));
    all.push_back(mix("mix7", {"astar", "bwaves", "bwaves", "bzip",
                               "bzip", "dealii", "gems", "leslie"}));
    all.push_back(mix("mix8", {"astar", "astar", "bwaves", "bzip",
                               "cactus", "dealii", "omnetpp", "xalanc"}));
    all.push_back(mix("mix9", {"bwaves", "dealii", "gems", "leslie",
                               "sphinx", "bwaves", "dealii", "gems"}));
    all.push_back(mix("mix10", {"astar", "astar", "gcc", "gcc", "lbm",
                                "libquantum", "libquantum", "mcf"}));
    all.push_back(mix("mix11", {"bzip", "bzip", "gems", "leslie",
                                "leslie", "omnetpp", "sphinx", "bzip"}));
    all.push_back(mix("mix12", {"bwaves", "cactus", "cactus", "dealii",
                                "dealii", "xalanc", "bwaves", "cactus"}));

    for (const auto &w : all)
        for (const auto &b : w.benchmarks)
            MEMPOD_ASSERT(hasProfile(b),
                          "workload '%s' references unknown benchmark "
                          "'%s'",
                          w.name.c_str(), b.c_str());
    return all;
}

std::unique_ptr<TraceSource>
openSynthetic(const WorkloadSpec &spec, const GeneratorConfig &gen)
{
    std::vector<BenchmarkProfile> profiles;
    profiles.reserve(spec.benchmarks.size());
    for (const auto &b : spec.benchmarks)
        profiles.push_back(findProfile(b));
    // Decorrelate seeds across workloads deterministically.
    GeneratorConfig cfg = gen;
    for (char ch : spec.name)
        cfg.seed = cfg.seed * 131 + static_cast<unsigned char>(ch);
    return std::make_unique<SyntheticTraceSource>(std::move(profiles),
                                                  cfg);
}

/** Open the raw (unscaled, uncapped-scale) external stream. */
std::unique_ptr<TraceSource>
openExternal(const ExternalTraceSpec &spec, std::uint64_t max_records)
{
    if (spec.format == "native") {
        return std::make_unique<NativeTraceSource>(spec.files[0].path,
                                                   max_records);
    }
    if (spec.format == "champsim") {
        return std::make_unique<ChampSimTraceSource>(
            spec.files,
            spec.timing == "ip" ? ChampSimTiming::kIp
                                : ChampSimTiming::kPeriod,
            spec.periodPs, spec.addrBias, max_records);
    }
    if (spec.format == "sift") {
        return std::make_unique<SiftTraceSource>(spec.files, spec.periodPs,
                                                 max_records);
    }
    MEMPOD_PANIC("unreachable trace format '%s'", spec.format.c_str());
}

/** A fresh cursor over `e` under `gen`; see WorkloadCatalog::open. */
std::unique_ptr<TraceSource>
openEntry(const CatalogEntry &e, const GeneratorConfig &gen)
{
    if (e.kind == CatalogEntry::Kind::kSynthetic)
        return openSynthetic(e.synthetic, gen);
    std::unique_ptr<TraceSource> src =
        openExternal(e.external, gen.totalRequests);
    const double scale = e.external.timeScale / gen.rateScale;
    if (scale != 1.0) {
        src = std::make_unique<ScaledTraceSource>(std::move(src), scale,
                                                  e.external.name);
    }
    return src;
}

} // namespace

WorkloadCatalog::WorkloadCatalog()
{
    for (auto &spec : syntheticSuite()) {
        CatalogEntry e;
        e.name = spec.name;
        e.kind = CatalogEntry::Kind::kSynthetic;
        e.homogeneous = spec.homogeneous;
        e.synthetic = std::move(spec);
        insert(std::move(e));
    }
}

WorkloadCatalog &
WorkloadCatalog::global()
{
    static WorkloadCatalog catalog;
    return catalog;
}

void
WorkloadCatalog::loadManifest(const std::string &path)
{
    for (const auto &spec : loadTraceManifest(path))
        registerExternal(spec);
}

void
WorkloadCatalog::registerExternal(const ExternalTraceSpec &spec)
{
    CatalogEntry e;
    e.name = spec.name;
    e.kind = CatalogEntry::Kind::kExternal;
    e.external = spec;
    if (const CatalogEntry *prior = tryFind(spec.name)) {
        // Shadowing a synthetic spec keeps its grouping flag so replay
        // output is named and grouped exactly like the live run.
        e.homogeneous = prior->homogeneous;
    }
    insert(std::move(e));
}

void
WorkloadCatalog::insert(CatalogEntry entry)
{
    auto it = byName_.find(entry.name);
    if (it != byName_.end()) {
        entries_[it->second] = std::move(entry);
        return;
    }
    byName_[entry.name] = entries_.size();
    entries_.push_back(std::move(entry));
}

const CatalogEntry *
WorkloadCatalog::tryFind(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : &entries_[it->second];
}

const CatalogEntry &
WorkloadCatalog::find(const std::string &name) const
{
    if (const CatalogEntry *e = tryFind(name))
        return *e;
    MEMPOD_FATAL("unknown workload '%s' (not a synthetic spec and not "
                 "in any loaded trace manifest)",
                 name.c_str());
}

std::vector<std::string>
WorkloadCatalog::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(e.name);
    return out;
}

std::vector<std::string>
WorkloadCatalog::homogeneousNames() const
{
    std::vector<std::string> out;
    for (const auto &e : entries_)
        if (e.homogeneous)
            out.push_back(e.name);
    return out;
}

std::vector<std::string>
WorkloadCatalog::mixedNames() const
{
    std::vector<std::string> out;
    for (const auto &e : entries_)
        if (!e.homogeneous)
            out.push_back(e.name);
    return out;
}

std::vector<std::string>
WorkloadCatalog::representativeNames()
{
    // One of each behaviour family: skewed-stable, streaming-huge,
    // tiny-resident, pointer-chase, phase-changing, plus two mixes.
    return {"xalanc", "lbm", "libquantum", "mcf", "zeusmp", "mix5",
            "mix10"};
}

std::unique_ptr<TraceSource>
WorkloadCatalog::open(const std::string &name,
                      const GeneratorConfig &gen) const
{
    return openEntry(find(name), gen);
}

Trace
WorkloadCatalog::build(const std::string &name,
                       const GeneratorConfig &gen) const
{
    return materialize(*open(name, gen));
}

} // namespace mempod
