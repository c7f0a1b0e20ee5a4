/**
 * @file
 * WorkloadCatalog: the one registry every harness and tool resolves
 * workload names through. It unifies the paper's 27 synthetic specs
 * (15 homogeneous + the Table 3 mixes) with manifest-declared external
 * traces behind a single name → TraceSource factory, replacing the old
 * free-function lookup surface (allWorkloads / findWorkload /
 * tryFindWorkload / buildWorkloadTrace).
 *
 * A manifest entry may reuse a synthetic name — the external trace
 * then *shadows* the generator for that name (inheriting its
 * homogeneous flag so grouping and output naming are unchanged). That
 * is what makes record-and-replay transparent: replaying a captured
 * "xalanc" produces sidecars named and grouped exactly like the live
 * synthetic run, so CI can diff them byte for byte.
 *
 * Synthetic traces stream and are never stored: opening one starts a
 * fresh SyntheticTraceSource, as opening an external trace opens its
 * file. Only build() materializes records, for analyses that need
 * random access.
 *
 * open() is the one way to a workload's trace: every tool, harness and
 * BatchRunner job calls it for its own cursor. Manifests are loaded
 * before any job starts; from then on the catalog is only read, so
 * jobs on any worker thread share it without a lock.
 */
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace/generator.h"
#include "trace/manifest.h"
#include "trace/record.h"
#include "trace/source.h"

namespace mempod {

/** An 8-core multi-programmed synthetic workload. */
struct WorkloadSpec
{
    std::string name;
    bool homogeneous = false;
    std::vector<std::string> benchmarks; //!< exactly 8 entries
};

/** One named workload: a synthetic spec or an external trace. */
struct CatalogEntry
{
    enum class Kind { kSynthetic, kExternal };

    std::string name;
    Kind kind = Kind::kSynthetic;
    bool homogeneous = false;
    WorkloadSpec synthetic;    //!< valid when kind == kSynthetic
    ExternalTraceSpec external; //!< valid when kind == kExternal
};

/** Name → workload registry; see file comment. */
class WorkloadCatalog
{
  public:
    /** A catalog seeded with the 27 synthetic paper workloads. */
    WorkloadCatalog();

    /** The process-wide catalog (harnesses load manifests into it). */
    static WorkloadCatalog &global();

    /**
     * Register every trace of a traces.json manifest; entries reusing
     * a synthetic name shadow the generator for that name.
     */
    void loadManifest(const std::string &path);

    /** Register one external trace (loadManifest's worker; tests). */
    void registerExternal(const ExternalTraceSpec &spec);

    /** Lookup by name; nullptr if unknown (recoverable callers). */
    const CatalogEntry *tryFind(const std::string &name) const;

    /** Lookup by name; fatal if unknown. */
    const CatalogEntry &find(const std::string &name) const;

    /** All names, synthetic suite order then manifest order. */
    std::vector<std::string> names() const;

    /** Names of the homogeneous subset. */
    std::vector<std::string> homogeneousNames() const;

    /** Names of the mixed subset (Table 3). */
    std::vector<std::string> mixedNames() const;

    /** The representative subset used by reduced-scale benches. */
    static std::vector<std::string> representativeNames();

    /**
     * Open a fresh streaming cursor for a workload. Synthetic entries
     * generate their records as they are read; external entries stream
     * from disk with gen.totalRequests as the record cap and
     * gen.rateScale folded into the manifest time_scale.
     * gen.seed/footprintScale apply to synthetic entries only. Fatal
     * on an unknown name; tryFind() first to recover.
     */
    std::unique_ptr<TraceSource> open(const std::string &name,
                                      const GeneratorConfig &gen) const;

    /** Materialize a workload's trace (offline analyses, tools). */
    Trace build(const std::string &name,
                const GeneratorConfig &gen) const;

  private:
    void insert(CatalogEntry entry);

    std::vector<CatalogEntry> entries_;
    std::map<std::string, std::size_t> byName_;
};

} // namespace mempod
