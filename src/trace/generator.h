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
 * and a short batch of pending records per core, and merges the
 * cores' streams by (time, core). Each core's times strictly increase,
 * so the merge yields exactly the order of a stable time sort over the
 * cores' records appended core by core, in O(cores) memory.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
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

/**
 * A generated multi-programmed trace as a stream; one profile per
 * core. Core-local addresses start at 0 for every core. Each core owes
 * a quota of totalRequests proportional to its profile's rate (the
 * rounding remainder goes to core 0).
 */
class SyntheticTraceSource final : public TraceSource
{
  public:
    SyntheticTraceSource(std::vector<BenchmarkProfile> core_profiles,
                         const GeneratorConfig &config);

    /**
     * The next record of the core whose next time is smallest; ties go
     * to the lowest core.
     */
    bool next(TraceRecord &out) override;

    /** Rebuild every core model from (profiles, config). */
    void reset() override;

    std::uint64_t size() const override { return config_.totalRequests; }

    /** Model and batch state: O(cores), independent of the length. */
    std::uint64_t maxResidentBytes() const override;

  private:
    /**
     * Records a core generates at a time. A model run in bursts keeps
     * its branches predictable: draining 8M xalanc records took 0.68 s
     * against 0.84 s one record per merge step (median of 5, 4-vCPU
     * VM). The state stays O(cores).
     */
    static constexpr std::size_t kBatch = 64;

    /** Generate core c's next batch into its buffer slice. */
    void refill(std::size_t c);

    std::vector<BenchmarkProfile> profiles_;
    GeneratorConfig config_;
    std::vector<CoreModel> models_;
    /**
     * Core c's pending records: buffer_[c * kBatch + i] for i in
     * [pos_[c], fill_[c]).
     */
    std::vector<TraceRecord> buffer_;
    std::vector<std::uint32_t> pos_;
    std::vector<std::uint32_t> fill_;
    /** Time of core c's next record; kTimeNever once it is done. */
    std::vector<TimePs> headTime_;
    /** Records core c has yet to generate. */
    std::vector<std::uint64_t> remaining_;
    std::uint64_t left_ = 0; //!< records still to yield, all cores
};

} // namespace mempod
