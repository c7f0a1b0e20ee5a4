/**
 * @file
 * The synthetic multi-programmed trace generator: one behaviour model
 * per core driven by its BenchmarkProfile, merged into a single
 * time-ordered stream. Fully deterministic given (profiles, config).
 *
 * Per-core model, per request:
 *  - with streamFraction: the next line from a monotonically advancing
 *    cursor sweeping the footprint (wrapping);
 *  - else with hotAccessProb: a Zipf-distributed page from the current
 *    hot window (which rotates every phasePeriod);
 *  - else: a uniform page from the whole footprint.
 * Inter-arrival gaps are exponential with the profile's rate.
 *
 * The trace streams and is never stored: the source holds one model
 * per core and merges the cores' streams through CoreMerge
 * (trace/core_merge.h), in O(cores) memory. Each core's times strictly
 * increase.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "trace/core_merge.h"
#include "trace/profiles.h"
#include "trace/record.h"
#include "trace/source.h"

namespace mempod {

/** Knobs shared by all cores of one generated trace. */
struct GeneratorConfig
{
    std::uint64_t totalRequests = 2'000'000; //!< across all cores
    std::uint64_t seed = 42;
    /** Shrink per-core footprints (unit tests on tiny geometries). */
    double footprintScale = 1.0;
    /** Scale request rates (load sensitivity studies). */
    double rateScale = 1.0;
};

/** State machine producing one core's access stream. */
class CoreModel
{
  public:
    CoreModel(const BenchmarkProfile &prof, std::uint8_t core,
              const GeneratorConfig &cfg);

    /** Produce the next record for this core; times strictly rise. */
    TraceRecord next();

  private:
    void advanceClock();
    std::uint64_t hotPage(std::uint64_t rank) const;
    void maybeRotatePhase();

    BenchmarkProfile prof_;
    std::uint8_t core_;
    Rng rng_;
    std::uint64_t footprintPages_ = 0;
    std::uint64_t hotPages_ = 0;
    std::uint64_t linesPerFootprint_ = 0;
    double meanGapPs_ = 0.0;
    TimePs now_ = 0;
    TimePs nextPhaseAt_ = 0;
    std::uint64_t drift_ = 0; //!< fringe-window position
    std::uint64_t cursor_ = 0;
    std::array<std::uint64_t, 6> active_{}; //!< recent hot pages
    std::size_t activeCount_ = 0;
    std::size_t activeNext_ = 0;
    std::uint64_t dwellCredits_ = 0;
};

/** One core's model as a CoreMerge stream. */
struct ModelStream
{
    CoreModel model;
    CoreModel initial; //!< the model as built, for rewind()

    bool
    next(TraceRecord &out)
    {
        out = model.next();
        return true;
    }
    void rewind() { model = initial; }
    std::uint64_t residentBytes() const { return 0; }
};

/**
 * A generated multi-programmed trace as a stream: one model per core
 * (one profile each), merged by CoreMerge. Core-local addresses start
 * at 0 for every core. Each core owes a quota of totalRequests
 * proportional to its profile's rate (the rounding remainder goes to
 * core 0).
 */
class SyntheticTraceSource final : public CoreMerge<ModelStream>
{
  public:
    SyntheticTraceSource(std::vector<BenchmarkProfile> core_profiles,
                         const GeneratorConfig &config);
};

} // namespace mempod
